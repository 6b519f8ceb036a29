"""ε-almost-clique decomposition (Definition 2.2, Lemma 2.5).

Two constructions with a common repair/normalization core:

* :func:`decompose_exact` — centralized reference: exact closed-neighborhood
  Jaccard similarities, friend graph, connected components.  Used by tests
  and as a cross-check for the distributed protocol.
* :func:`decompose_distributed` — the BCONGEST protocol in the spirit of
  [FGH+23]: b-bit minhash sketches broadcast under the bandwidth cap
  (O(ε⁻⁴) rounds), friendship decided from local estimates, clusters formed
  by two rounds of min-ID propagation over friend edges (almost-cliques
  have friend-diameter ≤ 2), then O(1) local repair rounds.

Both enforce Definition 2.2 on their output:
  (1) evicted nodes are locally sparse (validated separately),
  (2a) |K| ≤ (1+ε)Δ, (2b) |N(v) ∩ K| ≥ (1−ε)Δ for members,
  (2c) |N(v) ∩ K| ≤ (1−ε/2)Δ for non-members (repair adds violators when
       it can do so without breaking 2a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.config import ColoringConfig
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.decomposition.sparsity import edge_common_neighbors
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_id

__all__ = [
    "AlmostCliqueDecomposition",
    "decompose_exact",
    "decompose_distributed",
    "decompose_from_sketch",
]

SPARSE = -1


@dataclass
class AlmostCliqueDecomposition:
    """labels[v] == SPARSE (-1) for V_sparse, else the clique index."""

    labels: np.ndarray
    eps: float
    rounds_used: int = 0
    _cliques: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def num_cliques(self) -> int:
        return int(self.labels.max()) + 1 if (self.labels >= 0).any() else 0

    @property
    def cliques(self) -> list[np.ndarray]:
        if self._cliques is None:
            k = self.num_cliques
            self._cliques = [
                np.flatnonzero(self.labels == i).astype(np.int64) for i in range(k)
            ]
        return self._cliques

    def members(self, i: int) -> np.ndarray:
        return self.cliques[i]

    @property
    def sparse_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels == SPARSE).astype(np.int64)

    def invalidate_cache(self) -> None:
        self._cliques = None


# ---------------------------------------------------------------------------
# Shared core
# ---------------------------------------------------------------------------


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clique ids to 0..k-1 preserving SPARSE."""
    out = np.full_like(labels, SPARSE)
    used = np.unique(labels[labels >= 0])
    for new, old in enumerate(used):
        out[labels == old] = new
    return out


def _neighbor_label_counts(net: BroadcastNetwork, labels: np.ndarray) -> sp.csr_matrix:
    """Sparse (n × k) matrix: entry (v, c) = |N(v) ∩ K_c|."""
    k = int(labels.max()) + 1 if (labels >= 0).any() else 0
    if k == 0:
        return sp.csr_matrix((net.n, 0), dtype=np.int64)
    dst_labels = labels[net.indices]
    mask = dst_labels >= 0
    rows = net.edge_src[mask]
    cols = dst_labels[mask]
    data = np.ones(rows.size, dtype=np.int64)
    return sp.csr_matrix((data, (rows, cols)), shape=(net.n, k)).tocsr()


def _admit_joins(
    v_arr: np.ndarray,
    c_arr: np.ndarray,
    cnt_arr: np.ndarray,
    quota: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized quota admission for the (2c) join: qualifying
    (node, clique, count) candidacies in, (admitted nodes, their cliques)
    out.  ``quota[c]`` is clique c's remaining (2a) headroom (mutated).

    Best-count-first with fallback: each round every node bids for its
    best remaining clique, per-clique quotas admit by grouped rank, and a
    node whose best clique ran out of headroom falls back to its next
    qualifying clique (the behaviour of the old sequential scan) — rounds
    repeat until nothing moves.
    """
    order = np.lexsort((v_arr, c_arr, -cnt_arr))
    v_arr, c_arr, cnt_arr = v_arr[order], c_arr[order], cnt_arr[order]
    out_v: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    k = quota.size
    while v_arr.size:
        # Drop candidacies for cliques with no remaining headroom — a node
        # whose best clique is full falls through to its next one.
        open_ = quota[c_arr] > 0
        v_arr, c_arr, cnt_arr = v_arr[open_], c_arr[open_], cnt_arr[open_]
        if not v_arr.size:
            break
        # One candidacy per node: its best remaining clique.
        _, first = np.unique(v_arr, return_index=True)
        bv, bc = v_arr[first], c_arr[first]
        # Per-clique quota applied to the count-sorted group via grouped
        # cumulative ranks.
        gorder = np.lexsort((-cnt_arr[first], bc))
        bv, bc = bv[gorder], bc[gorder]
        group_start = np.searchsorted(bc, bc, side="left")
        rank_in_group = np.arange(bc.size) - group_start
        admit = rank_in_group < quota[bc]
        if not admit.any():  # unreachable safety: every open group admits its top rank
            break
        out_v.append(bv[admit])
        out_c.append(bc[admit])
        quota -= np.bincount(bc[admit], minlength=k)
        still = np.isin(v_arr, bv[admit], invert=True)
        v_arr, c_arr, cnt_arr = v_arr[still], c_arr[still], cnt_arr[still]
    if not out_v:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(out_v), np.concatenate(out_c)


def _repair(
    net: BroadcastNetwork,
    labels: np.ndarray,
    eps: float,
    iterations: int,
) -> tuple[np.ndarray, int]:
    """Enforce 2a/2b/2c by peeling/dissolving/joining.  Returns the repaired
    labels and the number of O(1)-round repair passes performed (each pass
    corresponds to 2 broadcast rounds: labels out, decisions out)."""
    delta = max(net.delta, 1)
    need_inside = (1.0 - eps) * delta  # 2b
    max_size = (1.0 + eps) * delta  # 2a
    join_threshold = (1.0 - eps / 2.0) * delta  # 2c
    passes = 0
    labels = labels.copy()
    for _ in range(max(1, iterations)):
        passes += 1
        changed = False
        counts = _neighbor_label_counts(net, labels)
        k = counts.shape[1]
        if k == 0:
            break
        own = np.zeros(net.n, dtype=np.int64)
        member = labels >= 0
        if member.any():
            own[member] = np.asarray(
                counts[np.flatnonzero(member), labels[member]]
            ).ravel()
        # (2b) peel members with too few inside-neighbors.
        bad = member & (own < need_inside)
        if bad.any():
            labels[bad] = SPARSE
            changed = True
        # dissolve cliques that became too small to ever satisfy 2b.
        sizes = np.bincount(labels[labels >= 0], minlength=k) if k else np.empty(0)
        for c in range(k):
            if 0 < sizes[c] <= need_inside:
                labels[labels == c] = SPARSE
                changed = True
        # (2c) join outsiders that see almost all of a clique, unless that
        # would break (2a).  Vectorized join: qualifying (node, clique)
        # candidates sort by count (best first), each node keeps its single
        # best clique, and per-clique admission applies the remaining (2a)
        # headroom as a quota via grouped ranks — no per-entry Python.
        counts = _neighbor_label_counts(net, labels)
        k = counts.shape[1]
        if k:
            sizes = np.bincount(labels[labels >= 0], minlength=k)
            coo = counts.tocoo()
            v_arr = coo.row.astype(np.int64)
            c_arr = coo.col.astype(np.int64)
            cnt_arr = coo.data.astype(np.int64)
            cand = (
                (labels[v_arr] == SPARSE)
                & (cnt_arr > join_threshold)
                & (cnt_arr >= need_inside)
            )
            if cand.any():
                quota = np.floor(max_size - sizes).astype(np.int64)
                joined_v, joined_c = _admit_joins(
                    v_arr[cand], c_arr[cand], cnt_arr[cand], quota
                )
                if joined_v.size:
                    labels[joined_v] = joined_c
                    changed = True
        # (2a) shed lowest-connectivity members from oversized cliques.
        counts = _neighbor_label_counts(net, labels)
        k = counts.shape[1]
        if k:
            sizes = np.bincount(labels[labels >= 0], minlength=k)
            for c in np.flatnonzero(sizes > max_size):
                members_c = np.flatnonzero(labels == c)
                inside = np.asarray(counts[members_c, c]).ravel()
                order = np.argsort(inside)
                shed = members_c[order[: int(sizes[c] - np.floor(max_size))]]
                labels[shed] = SPARSE
                changed = True
        if not changed:
            break
    return _compact_labels(labels), passes


def _clusters_from_friend_edges(
    net: BroadcastNetwork,
    friend_edge_mask: np.ndarray,
    dense_mask: np.ndarray,
) -> np.ndarray:
    """Cluster ids via two rounds of min-ID propagation over friend edges
    among dense nodes (almost-cliques have friend-diameter ≤ 2, so two
    rounds suffice for every member to hear the minimum ID)."""
    n = net.n
    edges = net.undirected_edges()
    ids = np.where(dense_mask, np.arange(n, dtype=np.int64), np.iinfo(np.int64).max)
    fe = edges[friend_edge_mask]
    both_dense = dense_mask[fe[:, 0]] & dense_mask[fe[:, 1]]
    fe = fe[both_dense]
    current = ids.copy()
    for _ in range(2):
        nxt = current.copy()
        if fe.size:
            np.minimum.at(nxt, fe[:, 0], current[fe[:, 1]])
            np.minimum.at(nxt, fe[:, 1], current[fe[:, 0]])
        current = nxt
    labels = np.full(n, SPARSE, dtype=np.int64)
    dense_nodes = np.flatnonzero(dense_mask)
    labels[dense_nodes] = current[dense_nodes]
    return _compact_labels(labels)


def _friend_degree(net: BroadcastNetwork, friend_edge_mask: np.ndarray) -> np.ndarray:
    edges = net.undirected_edges()
    fe = edges[friend_edge_mask]
    if not fe.size:
        return np.zeros(net.n, dtype=np.int64)
    return np.bincount(fe.ravel(), minlength=net.n).astype(np.int64)


def _build(
    net: BroadcastNetwork,
    similarity: np.ndarray,
    cfg: ColoringConfig,
    rounds_used: int,
) -> AlmostCliqueDecomposition:
    eps = cfg.eps
    delta = max(net.delta, 1)
    friend_threshold = 1.0 - cfg.acd_friend_slack * eps
    friend_mask = similarity >= friend_threshold
    fdeg = _friend_degree(net, friend_mask)
    dense_mask = fdeg >= (1.0 - 2.0 * eps) * delta
    labels = _clusters_from_friend_edges(net, friend_mask, dense_mask)
    # cluster formation: 2 rounds of id broadcasts.
    net.account_vector_round(int(dense_mask.sum()), bits_for_id(net.n), phase="acd/cluster")
    net.account_vector_round(int(dense_mask.sum()), bits_for_id(net.n), phase="acd/cluster")
    labels, passes = _repair(net, labels, eps, cfg.acd_repair_iterations)
    for _ in range(passes):
        # each repair pass: broadcast label, then broadcast join/leave bit.
        net.account_vector_round(net.n, bits_for_id(net.n), phase="acd/repair")
        net.account_vector_round(net.n, 1, phase="acd/repair")
    return AlmostCliqueDecomposition(
        labels=labels, eps=eps, rounds_used=rounds_used + 2 + 2 * passes
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def decompose_exact(
    net: BroadcastNetwork, cfg: ColoringConfig | None = None
) -> AlmostCliqueDecomposition:
    """Centralized reference decomposition from exact similarities.

    No rounds are charged for the similarity computation itself (it is an
    oracle); cluster formation and repair still follow the distributed
    logic so that the two constructions remain comparable.
    """
    cfg = cfg or ColoringConfig.practical()
    edges = net.undirected_edges()
    if edges.size == 0:
        return AlmostCliqueDecomposition(
            labels=np.full(net.n, SPARSE, dtype=np.int64), eps=cfg.eps
        )
    cc = edge_common_neighbors(net, closed=True)
    du = net.degrees[edges[:, 0]] + 1
    dv = net.degrees[edges[:, 1]] + 1
    union = du + dv - cc
    similarity = np.where(union > 0, cc / np.maximum(union, 1), 0.0)
    return _build(net, similarity, cfg, rounds_used=0)


def decompose_distributed(
    net: BroadcastNetwork,
    cfg: ColoringConfig | None = None,
    seq: SeedSequencer | None = None,
) -> AlmostCliqueDecomposition:
    """The broadcast protocol of Lemma 2.5: minhash sketches → friendship →
    min-ID clustering → O(1) repair rounds.  All rounds accounted."""
    cfg = cfg or ColoringConfig.practical()
    seq = seq or SeedSequencer(cfg.seed)
    if net.undirected_edges().size == 0:
        return AlmostCliqueDecomposition(
            labels=np.full(net.n, SPARSE, dtype=np.int64), eps=cfg.eps
        )
    sketch = compute_sketches(
        net,
        num_samples=cfg.acd_minhash_samples,
        bits=cfg.acd_minhash_bits,
        salt=seq.derive_seed("acd-hash") % (1 << 31),
    )
    similarity = estimate_edge_similarity(net, sketch)
    return _build(net, similarity, cfg, rounds_used=sketch.rounds_used)


def decompose_from_sketch(
    net: BroadcastNetwork,
    sketch,
    cfg: ColoringConfig | None = None,
) -> AlmostCliqueDecomposition:
    """Build the almost-clique decomposition from a *precomputed*
    similarity sketch — the delta-aware maintenance seam (ISSUE 10).

    Identical to :func:`decompose_distributed` except the sketch phase is
    skipped: the caller hands in a
    :class:`~repro.decomposition.minhash.SimilaritySketch` it maintains
    incrementally (see
    :func:`repro.hashing.fingerprints.refresh_minwise_fingerprints`) and
    accounts the re-broadcast of only the changed fingerprints itself.
    Friendship estimation, min-ID clustering, and the repair rounds run —
    and are accounted — exactly as in the from-scratch path.
    """
    cfg = cfg or ColoringConfig.practical()
    if net.undirected_edges().size == 0:
        return AlmostCliqueDecomposition(
            labels=np.full(net.n, SPARSE, dtype=np.int64), eps=cfg.eps
        )
    similarity = estimate_edge_similarity(net, sketch)
    return _build(net, similarity, cfg, rounds_used=sketch.rounds_used)
