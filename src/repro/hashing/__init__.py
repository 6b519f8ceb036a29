"""Pseudorandomness substrate: seed-expansion PRGs and integer hash
families.

This package implements the bandwidth-saving devices the paper leans on:

* representative sets (Lemma 2.14 / [HN23]): a node broadcasts one short
  seed, every neighbor deterministically expands the same pseudorandom
  color list — :mod:`repro.hashing.prg`;
* shared hash functions for similarity sketches (the ACD of Lemma 2.5 /
  [FGH+23]) and for Relabel's label sampling — :mod:`repro.hashing.fingerprints`.
"""

from repro.hashing.fingerprints import (
    hash_u64,
    hash_array_u64,
    minwise_fingerprints,
    pack_fingerprints,
    packed_words_per_node,
)

__all__ = [
    "hash_u64",
    "hash_array_u64",
    "minwise_fingerprints",
    "pack_fingerprints",
    "packed_words_per_node",
]
