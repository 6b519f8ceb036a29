"""BCONGEST neighborhood-similarity sketches via b-bit minwise hashing.

Every node repeatedly broadcasts a few bits of minhash fingerprint of its
closed neighborhood; after ``T`` samples each node can estimate, for every
incident edge, the Jaccard similarity of the two closed neighborhoods.
With constant fingerprint width ``b``, ``⌊bandwidth/b⌋`` samples fit in
one ``O(log n)``-bit broadcast, which is how the almost-clique
decomposition achieves its O(ε⁻⁴)-round budget (Lemma 2.5, following the
[FGH+23] strategy of packing many tiny sketches per message).

The same packing idea drives the similarity estimator itself (DESIGN.md
§4): fingerprints are packed ⌊64/b⌋ samples per uint64 word, node-major,
and per edge the two packed rows are XOR-ed and the zero b-bit fields
counted with a branch-free SWAR reduction.  Its estimates must equal, bit
for bit, those of the plain (T × m) fingerprint comparison the tests
keep as an oracle.

The hash functions are shared randomness: all nodes derive ``h_j`` from the
public seed and the sample index — exactly the kind of shared coin the
decomposition papers assume (or realize with one extra seed-broadcast
round, which we account for).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.fingerprints import minwise_fingerprints, pack_fingerprints
from repro.simulator.network import BroadcastNetwork

__all__ = [
    "SimilaritySketch",
    "account_sketch_rounds",
    "compute_sketches",
    "estimate_edge_similarity",
]

# Edges per chunk in the packed estimator: bounds every temporary to
# (chunk × words) uint64, so no (T × m) matrix is ever materialized.
_EDGE_CHUNK = 1 << 18


@dataclass
class SimilaritySketch:
    """Fingerprints, their packed words, and the accounting of the rounds
    that shipped them."""

    fingerprints: np.ndarray  # (T, n) uint16
    packed: np.ndarray  # (n, words) uint64, see pack_fingerprints
    bits_per_sample: int
    samples: int
    rounds_used: int
    phase: str = "acd/sketch"


def account_sketch_rounds(
    net: BroadcastNetwork,
    num_samples: int,
    bits: int,
    senders: int,
    phase: str = "acd/sketch",
) -> int:
    """Charge ``senders`` nodes' broadcast of ``num_samples`` b-bit
    fingerprints under the network's bandwidth cap; returns the rounds.

    Closed form: ``full`` saturated rounds of ``⌊budget/b⌋`` samples plus
    one remainder round — no python loop."""
    budget = net.bandwidth_bits or (64 * max(1, num_samples))
    per_round = max(1, budget // bits)
    full, rem = divmod(num_samples, per_round)
    net.account_vector_rounds(full, senders, per_round * bits, phase=phase)
    if rem:
        net.account_vector_round(senders, rem * bits, phase=phase)
    return full + (1 if rem else 0)


def compute_sketches(
    net: BroadcastNetwork,
    num_samples: int,
    bits: int,
    salt: int,
    phase: str = "acd/sketch",
) -> SimilaritySketch:
    """Compute and pack fingerprints and account the broadcast rounds
    needed to exchange them under the network's bandwidth cap."""
    with net.metrics.time_phase(phase):
        fps = minwise_fingerprints(
            net.indptr, net.indices, net.n, num_samples=num_samples, bits=bits, salt=salt
        )
        packed = pack_fingerprints(fps, bits)
    rounds = account_sketch_rounds(net, num_samples, bits, net.n, phase=phase)
    return SimilaritySketch(
        fingerprints=fps,
        packed=packed,
        bits_per_sample=bits,
        samples=num_samples,
        rounds_used=rounds,
        phase=phase,
    )


def _swar_match_counts(
    packed: np.ndarray, edges: np.ndarray, bits: int, samples: int
) -> np.ndarray:
    """Per-edge count of agreeing samples from the packed words.

    Per edge: XOR the two (words,)-rows, OR-fold each b-bit field onto its
    low bit (b−1 shift-ORs — branch-free, exact for any b since every
    shifted source bit stays inside its own field), mask to the field-low
    bits, popcount, and sum over words.  That counts *mismatching* fields;
    padding fields XOR to zero and contribute none, so
    ``matches = T − mismatches`` is exact.
    """
    u64 = np.uint64
    fields = 64 // bits
    low_bits = u64(sum(1 << (f * bits) for f in range(fields)))
    matches = np.empty(edges.shape[0], dtype=np.int64)
    for e0 in range(0, edges.shape[0], _EDGE_CHUNK):
        e1 = min(e0 + _EDGE_CHUNK, edges.shape[0])
        x = packed[edges[e0:e1, 0]] ^ packed[edges[e0:e1, 1]]
        nz = x.copy()
        for k in range(1, bits):
            nz |= x >> u64(k)
        nz &= low_bits
        mism = np.bitwise_count(nz).sum(axis=1, dtype=np.int64)
        matches[e0:e1] = samples - mism
    return matches


def estimate_edge_similarity(
    net: BroadcastNetwork, sketch: SimilaritySketch
) -> np.ndarray:
    """Per-undirected-edge estimate of Jaccard(N[u], N[v]).

    Uses the standard b-bit minhash debiasing: if fingerprints collide with
    empirical rate ``r``, then ``Ĵ = (r − 2^{-b}) / (1 − 2^{-b})`` clipped
    to [0, 1].  Each endpoint of an edge computes this locally from the
    fingerprints it received — no extra rounds.  The match counts come
    from the packed words, chunk-by-chunk over edges.
    """
    edges = net.undirected_edges()
    if edges.size == 0:
        return np.empty(0, dtype=np.float64)
    with net.metrics.time_phase(sketch.phase):
        matches = _swar_match_counts(
            sketch.packed, edges, sketch.bits_per_sample, sketch.samples
        )
        rate = matches / sketch.samples
        floor = 2.0 ** (-sketch.bits_per_sample)
        est = (rate - floor) / (1.0 - floor)
        return np.clip(est, 0.0, 1.0)
