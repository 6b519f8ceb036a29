"""BCONGEST neighborhood-similarity sketches via b-bit minwise hashing.

Each sender repeatedly broadcasts a few bits of minhash fingerprint of its
closed neighborhood; after ``T`` samples each endpoint of an edge whose
two ends both sent can estimate the Jaccard similarity of the two closed
neighborhoods.  The senders are every node, or the ones the caller names
(the decomposition names the endpoints of its candidates' edges).
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
    "compute_sketches",
    "estimate_edge_similarity",
]

# Bytes per temporary in the packed estimator: edges stream in chunks of
# (chunk × words) uint64 of about this size, the cache-sized budget of the
# fingerprint kernel's hash blocks, so no (T × m) matrix is materialized.
_CHUNK_BYTES = 1 << 18


@dataclass
class SimilaritySketch:
    """Fingerprints, their packed words, and the accounting of the rounds
    that shipped them.

    ``nodes`` says which nodes sent a sketch and so have a row.  None:
    every node, row v is node v.  Otherwise the sketch holds only the
    listed nodes' rows, row i for node ``nodes[i]``, and only they were
    billed; other nodes stayed silent, and estimating an edge that
    touches one raises ``ValueError``."""

    fingerprints: np.ndarray  # (T, rows) uint16
    packed: np.ndarray  # (rows, words) uint64, see pack_fingerprints
    bits_per_sample: int
    samples: int
    rounds_used: int
    phase: str = "acd/sketch"
    nodes: np.ndarray | None = None


def compute_sketches(
    net: BroadcastNetwork,
    num_samples: int,
    bits: int,
    salt: int,
    phase: str = "acd/sketch",
    nodes: np.ndarray | None = None,
) -> SimilaritySketch:
    """Compute and pack fingerprints and account the broadcast rounds
    needed to exchange them under the network's bandwidth cap.

    ``nodes`` lists the senders: only they compute, pack and broadcast
    their fingerprints (the sketch's ``nodes`` then lists its rows), and
    only they are billed.  ``None`` means every node.  The charge is
    closed-form: ``full`` saturated rounds of ``⌊budget/b⌋`` samples
    plus one remainder round, each carrying one message per sender."""
    if nodes is not None:
        nodes = np.asarray(nodes, dtype=np.int64)
    with net.metrics.time_phase(phase):
        fps = minwise_fingerprints(
            net.indptr, net.indices, net.n, num_samples=num_samples, bits=bits, salt=salt,
            nodes=nodes,
        )
        packed = pack_fingerprints(fps, bits)
    budget = net.bandwidth_bits or (64 * max(1, num_samples))
    per_round = max(1, budget // bits)
    full, rem = divmod(num_samples, per_round)
    senders = net.n if nodes is None else nodes.size
    net.account_vector_round(senders, per_round * bits, phase=phase, rounds=full)
    if rem:
        net.account_vector_round(senders, rem * bits, phase=phase)
    return SimilaritySketch(
        fingerprints=fps,
        packed=packed,
        bits_per_sample=bits,
        samples=num_samples,
        rounds_used=full + (1 if rem else 0),
        phase=phase,
        nodes=nodes,
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
    step = max(1, _CHUNK_BYTES // (8 * max(1, packed.shape[1])))
    matches = np.empty(edges.shape[0], dtype=np.int64)
    for e0 in range(0, edges.shape[0], step):
        e1 = min(e0 + step, edges.shape[0])
        x = packed.take(edges[e0:e1, 0], axis=0)
        x ^= packed.take(edges[e0:e1, 1], axis=0)
        nz = x.copy()
        for k in range(1, bits):
            nz |= x >> u64(k)
        nz &= low_bits
        mism = np.bitwise_count(nz).sum(axis=1, dtype=np.int64)
        matches[e0:e1] = samples - mism
    return matches


def _sketch_rows(sketch: SimilaritySketch, n: int, edges: np.ndarray) -> np.ndarray:
    """``edges`` with each endpoint replaced by its row in ``sketch``."""
    if sketch.nodes is None:
        return edges
    pos = np.full(n, -1, dtype=np.int64)
    pos[sketch.nodes] = np.arange(sketch.nodes.size)
    rows = pos[edges]
    if (rows < 0).any():
        raise ValueError("an edge endpoint has no row in the sketch")
    return rows


def estimate_edge_similarity(
    net: BroadcastNetwork,
    sketch: SimilaritySketch,
    edges: np.ndarray | None = None,
) -> np.ndarray:
    """Per-undirected-edge estimate of Jaccard(N[u], N[v]).

    Uses the standard b-bit minhash debiasing: if fingerprints collide with
    empirical rate ``r``, then ``Ĵ = (r − 2^{-b}) / (1 − 2^{-b})`` clipped
    to [0, 1].  Each endpoint of an edge computes this locally from the
    fingerprints it received — no extra rounds.  The match counts come
    from the packed words, chunk-by-chunk over edges.

    ``edges`` (a ``(k, 2)`` node-id array) restricts the estimate to
    those edges, in that order; the default is every edge of
    ``net.undirected_edges()``.  Each endpoint needs a row in the sketch.
    """
    if edges is None:
        edges = net.undirected_edges()
    if edges.size == 0:
        return np.empty(0, dtype=np.float64)
    with net.metrics.time_phase(sketch.phase):
        rows = _sketch_rows(sketch, net.n, edges)
        matches = _swar_match_counts(
            sketch.packed, rows, sketch.bits_per_sample, sketch.samples
        )
        rate = matches / sketch.samples
        floor = 2.0 ** (-sketch.bits_per_sample)
        est = (rate - floor) / (1.0 - floor)
        return np.clip(est, 0.0, 1.0)
