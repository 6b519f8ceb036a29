"""ε-almost-clique decomposition (Definition 2.2, Lemma 2.5).

Two constructions with a common repair/normalization core:

* :func:`decompose_exact` — centralized reference: exact closed-neighborhood
  Jaccard similarities, friend graph, connected components.  Used by tests
  and as a cross-check for the distributed protocol.
* :func:`decompose_distributed` — the BCONGEST protocol in the spirit of
  [FGH+23]: a 1-bit candidate flag, then b-bit minhash sketches broadcast
  under the bandwidth cap (O(ε⁻⁴) rounds) by the endpoints of the
  candidates' edges only, friendship decided from local estimates,
  clusters formed by two rounds of min-ID propagation over friend edges
  (almost-cliques have friend-diameter ≤ 2), then O(1) local repair
  rounds.

Every round bills exactly its senders: the flag round all n nodes, the
sketch rounds the candidates' edge endpoints, the cluster rounds the
dense nodes, and each repair pass its members (labels) and the nodes it
moved (decisions).  A silent neighbour is one with nothing to say, so
the labels are those of the protocol in which every node sends.

Both enforce Definition 2.2 on their output:
  (1) evicted nodes are locally sparse (validated separately),
  (2a) |K| ≤ (1+ε)Δ, (2b) |N(v) ∩ K| ≥ (1−ε)Δ for members,
  (2c) |N(v) ∩ K| ≤ (1−ε/2)Δ for non-members (repair adds violators when
       it can do so without breaking 2a).

The repair and the validator read each rule's counts straight from the
CSR pairs: :func:`_own_counts` gives a member's count inside its own
clique, :func:`_outsider_counts` the (node, clique, count) triples of
non-members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ColoringConfig
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.decomposition.sparsity import edge_common_neighbors
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_id

__all__ = [
    "AlmostCliqueDecomposition",
    "FRIEND_SLACK",
    "MINHASH_BITS",
    "REPAIR_PASSES",
    "decompose_exact",
    "decompose_distributed",
]

SPARSE = -1

MINHASH_BITS = 2
"""b of b-bit minwise hashing: the width of one fingerprint sample."""

FRIEND_SLACK = 1.5
"""uv is a friend edge when the estimated Jaccard similarity of the
closed neighborhoods is at least ``1 - FRIEND_SLACK·ε``."""

REPAIR_PASSES = 4
"""At most this many repair passes enforce Definition 2.2 on the
candidate cliques."""


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
            self._cliques = _clique_members(self.labels, self.num_cliques)
        return self._cliques

    def members(self, i: int) -> np.ndarray:
        return self.cliques[i]

    @property
    def sparse_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels == SPARSE).astype(np.int64)


# ---------------------------------------------------------------------------
# Shared core
# ---------------------------------------------------------------------------


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clique ids to 0..k-1 preserving SPARSE."""
    out = np.full_like(labels, SPARSE)
    member = labels >= 0
    out[member] = np.unique(labels[member], return_inverse=True)[1]
    return out


def _clique_sizes(labels: np.ndarray, k: int) -> np.ndarray:
    """Members per clique id 0..k-1."""
    return np.bincount(labels[labels >= 0], minlength=k)


def _clique_members(labels: np.ndarray, k: int) -> list[np.ndarray]:
    """The members of each clique id 0..k-1, ascending: one stable argsort
    of the members by label, split at the clique sizes."""
    if k == 0:
        return []
    member = np.flatnonzero(labels >= 0)
    by_clique = member[np.argsort(labels[member], kind="stable")]
    return np.split(by_clique, np.cumsum(_clique_sizes(labels, k))[:-1])


def _own_counts(net: BroadcastNetwork, labels: np.ndarray) -> np.ndarray:
    """|N(v) ∩ K| for each member v of a clique K, 0 for sparse nodes: one
    ``bincount`` over the directed pairs whose two ends share a label."""
    src = net.edge_src
    lab = labels[src]
    same = (lab >= 0) & (lab == labels[net.indices])
    return np.bincount(src[same], minlength=net.n)


def _outsider_counts(
    net: BroadcastNetwork, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, c, |N(v) ∩ K_c|) for every clique c that v has a neighbor in
    but does not belong to, sorted by (v, c): one ``np.unique`` over the
    keys ``v·k + c`` of the directed pairs that cross into a clique.
    ``k`` exceeds every clique id."""
    lab = labels[net.indices]
    cross = (lab >= 0) & (lab != labels[net.edge_src])
    keys, cnt = np.unique(net.edge_src[cross] * k + lab[cross], return_counts=True)
    return keys // k, keys % k, cnt


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
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Enforce 2a/2b/2c by peeling/dissolving/joining.  Returns the repaired
    labels and, per O(1)-round repair pass performed, its two rounds'
    senders: (the members at the pass's start, who broadcast their
    labels; the nodes the pass moved, who broadcast a 1-bit decision).
    Every rule reads only members' labels, so a silent neighbour is a
    non-member, or a node that did not move."""
    delta = max(net.delta, 1)
    need_inside = (1.0 - eps) * delta  # 2b
    max_size = (1.0 + eps) * delta  # 2a
    join_threshold = (1.0 - eps / 2.0) * delta  # 2c
    senders: list[tuple[int, int]] = []
    labels = labels.copy()
    for _ in range(max(1, iterations)):
        start = labels.copy()
        k = int(labels.max(initial=SPARSE)) + 1
        if k == 0:
            senders.append((0, 0))
            break
        # (2b) peel members with too few inside-neighbors.
        bad = (labels >= 0) & (_own_counts(net, labels) < need_inside)
        labels[bad] = SPARSE
        # dissolve cliques that became too small to ever satisfy 2b (the
        # appended False is the entry a SPARSE label, -1, reads).
        sizes = _clique_sizes(labels, k)
        dissolve = np.append((sizes > 0) & (sizes <= need_inside), False)[labels]
        labels[dissolve] = SPARSE
        changed = bool(bad.any() or dissolve.any())
        # (2c) join outsiders that see almost all of a clique, unless that
        # would break (2a).  Vectorized join: qualifying (node, clique)
        # candidates sort by count (best first), each node keeps its single
        # best clique, and per-clique admission applies the remaining (2a)
        # headroom as a quota via grouped ranks — no per-entry Python.
        v_arr, c_arr, cnt_arr = _outsider_counts(net, labels, k)
        cand = (
            (labels[v_arr] == SPARSE)
            & (cnt_arr > join_threshold)
            & (cnt_arr >= need_inside)
        )
        if cand.any():
            quota = np.floor(max_size - _clique_sizes(labels, k)).astype(np.int64)
            joined_v, joined_c = _admit_joins(
                v_arr[cand], c_arr[cand], cnt_arr[cand], quota
            )
            if joined_v.size:
                labels[joined_v] = joined_c
                changed = True
        # (2a) shed lowest-connectivity members from oversized cliques.
        sizes = _clique_sizes(labels, k)
        over = np.flatnonzero(sizes > max_size)
        if over.size:
            own = _own_counts(net, labels)
            members = _clique_members(labels, k)
            for c in over:
                order = np.argsort(own[members[c]])
                labels[members[c][order[: int(sizes[c] - np.floor(max_size))]]] = SPARSE
            changed = True
        senders.append((int((start >= 0).sum()), int((labels != start).sum())))
        if not changed:
            break
    return _compact_labels(labels), senders


def _clusters_from_friend_edges(
    net: BroadcastNetwork,
    friend_edges: np.ndarray,
    dense_mask: np.ndarray,
) -> np.ndarray:
    """Cluster ids via two rounds of min-ID propagation over friend edges
    among dense nodes (almost-cliques have friend-diameter ≤ 2, so two
    rounds suffice for every member to hear the minimum ID)."""
    n = net.n
    ids = np.where(dense_mask, np.arange(n, dtype=np.int64), np.iinfo(np.int64).max)
    fe = friend_edges[dense_mask[friend_edges[:, 0]] & dense_mask[friend_edges[:, 1]]]
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


def _density_floor(net: BroadcastNetwork, eps: float) -> float:
    """(1−2ε)·max(Δ, 1): the friend degree that makes a node dense.
    Friend degree is at most degree, so it is also the degree a node needs
    to be dense at all — a *candidate*."""
    return (1.0 - 2.0 * eps) * max(net.delta, 1)


def _candidate_edges(net: BroadcastNetwork, eps: float) -> np.ndarray:
    """Indices into ``net.undirected_edges()`` of the edges that touch a
    candidate — the only similarities :func:`_build` reads.

    A candidate's friend degree counts only its own edges, all of which
    are listed; a non-candidate stays sparse whatever its edges hold; and
    clusters form over friend edges between two dense nodes, both
    candidates.  So any value on an unlisted edge gives the same labels.
    After the flag round each node knows which of its neighbours are
    candidates, so both endpoints of a listed edge know they must send."""
    cand = net.degrees >= _density_floor(net, eps)
    edges = net.undirected_edges()
    return np.flatnonzero(cand[edges[:, 0]] | cand[edges[:, 1]])


def _build(
    net: BroadcastNetwork,
    similarity: np.ndarray,
    cfg: ColoringConfig,
    rounds_used: int,
) -> AlmostCliqueDecomposition:
    eps = cfg.eps
    friend_threshold = 1.0 - FRIEND_SLACK * eps
    friend_edges = net.undirected_edges()[similarity >= friend_threshold]
    fdeg = np.bincount(friend_edges.ravel(), minlength=net.n)
    dense_mask = fdeg >= _density_floor(net, eps)
    labels = _clusters_from_friend_edges(net, friend_edges, dense_mask)
    # cluster formation: 2 rounds of id broadcasts.
    net.account_vector_round(int(dense_mask.sum()), bits_for_id(net.n), phase="acd/cluster")
    net.account_vector_round(int(dense_mask.sum()), bits_for_id(net.n), phase="acd/cluster")
    labels, senders = _repair(net, labels, eps, REPAIR_PASSES)
    for members, moved in senders:
        # each repair pass: its members broadcast their labels, then the
        # nodes it moved broadcast a join/leave bit.
        net.account_vector_round(members, bits_for_id(net.n), phase="acd/repair")
        net.account_vector_round(moved, 1, phase="acd/repair")
    return AlmostCliqueDecomposition(
        labels=labels, eps=eps, rounds_used=rounds_used + 2 + 2 * len(senders)
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
    """The broadcast protocol of Lemma 2.5: candidate flags → minhash
    sketches → friendship → min-ID clustering → O(1) repair rounds.  All
    rounds accounted, each billing exactly its senders.

    Every node first broadcasts a 1-bit flag: is its degree at least the
    density floor?  Then only the endpoints of the edges that touch a
    candidate (:func:`_candidate_edges`) send their fingerprints, and
    only those edges are estimated; no decision reads any other edge, so
    the labels are those of the all-nodes sketch.  The flag round is
    charged under ``acd/sketch``."""
    cfg = cfg or ColoringConfig.practical()
    seq = seq or SeedSequencer(cfg.seed)
    if net.undirected_edges().size == 0:
        return AlmostCliqueDecomposition(
            labels=np.full(net.n, SPARSE, dtype=np.int64), eps=cfg.eps
        )
    net.account_vector_round(net.n, 1, phase="acd/sketch")  # candidate flags
    touched = _candidate_edges(net, cfg.eps)
    touched_edges = net.undirected_edges()[touched]
    endpoints = np.zeros(net.n, dtype=bool)
    endpoints[touched_edges] = True
    sketch = compute_sketches(
        net,
        num_samples=cfg.acd_minhash_samples,
        bits=MINHASH_BITS,
        salt=seq.derive_seed("acd-hash") % (1 << 31),
        nodes=np.flatnonzero(endpoints),
    )
    similarity = np.zeros(net.m, dtype=np.float64)
    similarity[touched] = estimate_edge_similarity(net, sketch, touched_edges)
    return _build(net, similarity, cfg, rounds_used=1 + sketch.rounds_used)
