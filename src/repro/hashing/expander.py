"""Expander-walk representative sets — the [HN23] construction itself.

Lemma 2.14's bandwidth trick represents Θ(log n) random colors by "a
random walk on an implicit expander graph" over the color space ([HN23,
Section 7], quoted in the paper's §2.2).  The point: a length-k walk on a
degree-d expander is described by a start vertex (O(log n) bits) plus k
degree choices (k·log d bits), and by the expander Chernoff bound the
visited vertices hit any dense target set almost as reliably as k
independent samples — with *exponentially fewer* random bits.

This module implements an explicit expander over the color space: the
Margulis–Gabber–Galil family on Z_m × Z_m (constant degree 8, spectral
gap bounded away from 0 for every m), with the color list embedded into
the torus.  ``ExpanderWalker`` exposes the same seed→colors interface as
the counter-mode PRG in :mod:`repro.hashing.prg`, and
``ColoringConfig.multitrial_sampler = "expander"`` switches MultiTrial to
it — the ablation bench (EA3) compares the two.

Seed layout (all derived from the broadcast 63-bit seed, so the bit cost
is unchanged): start vertex and degree choices come from splitmix64
outputs of the seed — i.e. the walk itself is deterministic given the
seed, exactly what the receiving neighbors need to reproduce it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hashing.fingerprints import hash_u64

__all__ = ["ExpanderWalker", "mgg_neighbors", "walk_colors"]


def mgg_neighbors(x: int, y: int, m: int) -> list[tuple[int, int]]:
    """The 8 Margulis–Gabber–Galil neighbors of (x, y) on Z_m × Z_m:

        (x ± y, y), (x ± (y+1), y), (x, y ± x), (x, y ± (x+1))

    A classic constant-degree expander family (Gabber & Galil 1981);
    every vertex has exactly 8 (not necessarily distinct) neighbors.
    """
    return [
        ((x + y) % m, y),
        ((x - y) % m, y),
        ((x + y + 1) % m, y),
        ((x - y - 1) % m, y),
        (x, (y + x) % m),
        (x, (y - x) % m),
        (x, (y + x + 1) % m),
        (x, (y - x - 1) % m),
    ]


class ExpanderWalker:
    """Deterministic expander walks over a color interval ``[lo, hi)``.

    The interval of ``width`` colors embeds into the smallest torus
    Z_m × Z_m with m² ≥ width (row-major); torus vertices beyond the
    width map back into the interval by modular reduction, keeping the
    visited-color distribution near-uniform (each color has ⌈m²/width⌉ or
    ⌊m²/width⌋ preimages — a ≤ 2× density ratio that the walk's mixing
    washes out for the hitting-probability purpose).
    """

    DEGREE = 8

    def __init__(self, lo: int, hi: int):
        if hi <= lo:
            raise ValueError("empty color interval")
        self.lo = int(lo)
        self.width = int(hi - lo)
        self.m = max(2, int(math.ceil(math.sqrt(self.width))))

    def _start(self, seed: int) -> tuple[int, int]:
        h = hash_u64(seed, salt=0x5EED)
        return (h & 0xFFFFFFFF) % self.m, (h >> 32) % self.m

    def walk(self, seed: int, k: int) -> np.ndarray:
        """The first ``k`` colors visited by the seed's walk."""
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        x, y = self._start(seed)
        out = np.empty(k, dtype=np.int64)
        for i in range(k):
            out[i] = self.lo + (x * self.m + y) % self.width
            step = hash_u64(seed, salt=i + 1) % self.DEGREE
            x, y = mgg_neighbors(x, y, self.m)[step]
        return out


def walk_colors(seed: int, k: int, lo: int, hi: int) -> np.ndarray:
    """Functional form of :meth:`ExpanderWalker.walk`: ``k`` colors from
    the interval list ``[lo, hi)``, empty when the list is."""
    if hi <= lo or k <= 0:
        return np.empty(0, dtype=np.int64)
    return ExpanderWalker(lo, hi).walk(seed, k)
