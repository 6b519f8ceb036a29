"""Seed-expansion PRG: the "representative set" device of Lemma 2.14.

The bandwidth obstacle to MultiTrial is that trying ``k`` colors naively
costs ``k·O(log n)`` bits.  [HN23] replaces the explicit list with a short
seed that both endpoints expand into the same pseudorandom set (their
construction walks an implicit expander over the color space; see the
paper's §2.2 discussion, and :mod:`repro.hashing.expander` for the walk).
As documented in DESIGN.md §2, the default sampler realizes the same
interface with a counter-mode splitmix64 expansion: every node broadcasts
a 63-bit seed (:func:`derive_seeds_batch`), and
:func:`expand_indices_batch` deterministically maps each ``(seed, list
width)`` to ``k`` pseudorandom positions in the list.  The distributional
behaviour (k near-uniform, near-independent samples from a publicly known
list) and the bit cost (one seed per round) match the paper's device.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.fingerprints import hash_array_u64, hash_u64, mix_u64

__all__ = [
    "derive_seeds_batch",
    "derive_seed_item",
    "expand_indices_batch",
    "expand_indices_item",
]

_MASK63 = (1 << 63) - 1
_MASK64 = (1 << 64) - 1
# splitmix64 increment — the counter stride of the batched expansion.
_GAMMA = 0x9E3779B97F4A7C15


def derive_seeds_batch(node_ids: np.ndarray, base: int) -> np.ndarray:
    """One 63-bit broadcast seed per node, in a single vectorized call.

    ``base`` is the public per-iteration entropy (e.g.
    ``SeedSequencer.derive_seed("mt", phase, iteration)``) — one blake2b
    digest for the whole round instead of one per node; per-node seeds are
    splitmix64 mixes of (base, node id).  Every listener derives the same
    value for a broadcaster it hears (node ids are public), which is the
    broadcaster/listener symmetry Lemma 2.14 needs.
    """
    ids = np.asarray(node_ids, dtype=np.int64)
    hashed = hash_array_u64(ids, salt=int(base) & _MASK64)
    return (hashed & np.uint64(_MASK63)).astype(np.int64)


def derive_seed_item(node_id: int, base: int) -> int:
    """Scalar twin of :func:`derive_seeds_batch` (pure-python arithmetic,
    used by the symmetry tests to validate the uint64 vector path)."""
    return hash_u64(int(node_id), salt=int(base) & _MASK64) & _MASK63


def expand_indices_batch(seeds: np.ndarray, k: int, widths: np.ndarray) -> np.ndarray:
    """Counter-mode batch expansion: row ``a`` holds ``k`` indices in
    ``[widths[a]]`` derived from ``seeds[a]`` alone.

    Definition (shared with :func:`expand_indices_item`, the per-node twin):

        out[a, j] = splitmix64(seeds[a] + (j+1)·γ)  mod  widths[a]

    One call replaces A blake2b+``np.random.Generator`` constructions; rows
    are independent, so any subset of nodes (a broadcaster, or a listener
    expanding one neighbor's seed) computes identical values.  Rows with
    ``widths[a] <= 0`` are returned as all ``-1`` (empty list sentinel).
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    a = seeds.size
    if a == 0 or k <= 0:
        return np.empty((a, max(k, 0)), dtype=np.int64)
    ctr = np.arange(1, k + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = seeds.astype(np.uint64)[:, None] + ctr[None, :] * np.uint64(_GAMMA)
    vals = mix_u64(z)
    safe_w = np.maximum(widths, 1).astype(np.uint64)
    out = (vals % safe_w[:, None]).astype(np.int64)
    out[widths <= 0] = -1
    return out


def expand_indices_item(seed: int, k: int, width: int) -> np.ndarray:
    """Per-node twin of :func:`expand_indices_batch` in scalar python
    arithmetic — what a single listener computes for one heard seed.  The
    symmetry tests assert batch row == item expansion for every node."""
    if width <= 0 or k <= 0:
        return np.empty(0, dtype=np.int64)
    s = int(seed) & _MASK64
    # hash_u64(s, salt=j) == splitmix64(s + (j+1)·γ), matching the batch.
    return np.array(
        [hash_u64(s, salt=j) % width for j in range(k)], dtype=np.int64
    )
