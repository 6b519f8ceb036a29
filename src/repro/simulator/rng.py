"""Reproducible randomness: hierarchical seeded streams.

Every randomized step of the algorithm draws from a stream derived from the
root seed plus a structured key (phase tag, iteration).  This makes a full
run a pure function of ``(graph, config, seed)`` — the property the
integration tests and the statistical experiments rely on — while keeping
streams independent enough that protocols can draw in any order.

Node-private randomness (the model's assumption) takes one public base
per step from :meth:`SeedSequencer.derive_seed`, and every node expands
its draws from (base, node id) with the counter-mode batch PRG of
:mod:`repro.hashing.prg`, so no generator is built per node.  Shared/public
coins (used e.g. for the minhash hash functions, which the paper obtains
from shared randomness or seed exchange) are plain streams.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["SeedSequencer"]


def _key_to_entropy(parts: Iterable[object]) -> int:
    """Hash a structured key to a 128-bit integer for ``SeedSequence``."""
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=16).digest(), "big")


class SeedSequencer:
    """Derives independent ``numpy.random.Generator`` streams from one seed.

    >>> seq = SeedSequencer(42)
    >>> g1 = seq.stream("slack", 0)
    >>> g2 = seq.stream("slack", 1)

    Streams for distinct keys are statistically independent; streams for the
    same key are identical (same draws), which is what lets the simulator
    model "node v broadcasts a seed, every neighbor expands the same
    pseudorandom set" (the representative-set trick of Lemma 2.14).
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def stream(self, *key: object) -> np.random.Generator:
        """A fresh generator for the structured key ``key``."""
        entropy = _key_to_entropy((self.root_seed, *key))
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def shared_stream(self, tag: str, *extra: object) -> np.random.Generator:
        """Public-coin stream (e.g. shared hash functions)."""
        return self.stream("shared", tag, *extra)

    def derive_seed(self, *key: object) -> int:
        """A 63-bit integer seed for handing to other components (e.g. the
        seeds nodes broadcast in MultiTrial)."""
        return _key_to_entropy((self.root_seed, *key)) & ((1 << 63) - 1)

    def spawn(self, *key: object) -> "SeedSequencer":
        """Child sequencer rooted at a derived seed."""
        return SeedSequencer(self.derive_seed("spawn", *key))
