"""Put-aside sets: creation (Lemma 3.4), reduction (Lemma 3.12/3.13,
Algorithm 6) and the O(1)-round finish (Lemma 3.10).

Very dense ("full") cliques generate too little permanent slack for
MultiTrial's ℓ = Θ(log^{1.1} n) requirement.  The fix (Challenge 3 of
§1.2, after [HKNT22]): park Θ(ℓ) *inliers* per full clique — the put-aside
set P_K — uncolored until the very end; their uncolored presence hands
every other member ℓ of temporary slack.  Selection guarantees **no edges
between put-aside sets of different cliques**, so at the end each P_K can
be colored purely inside K:

1. ``CompressTry`` (Algorithm 6): every node pre-samples k colors from a
   publicly known list and ships them all at once (Many-to-All,
   Claim 3.11); everyone then *locally* replays the sequential greedy in
   ID order — k TryColor iterations compressed into O(1) rounds.
2. Once |P̂_K| = O(log n / log log n), nodes broadcast entire candidate
   lists using O(log log n)-bit color indices and finish by simulating the
   greedy with no further communication (Lemma 3.10).

Because no edge joins two cliques' put-aside sets, one clique's adoptions
change nothing another clique reads, so each step runs for every clique
at once: color sets are bool rows over the palette, the pre-samples of
every node come from one batch-PRG call per repeat (the representative-set
device of Lemma 2.14, :mod:`repro.hashing.prg`), the ID-order greedy
runs as rank passes (pass j takes the j-th pending node of every
instance), and each step ends in one adoption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ColoringConfig
from repro.core.cliques import CliqueInfo
from repro.core.state import ColoringState
from repro.hashing.prg import derive_seeds_batch, expand_indices_batch
from repro.simulator.network import gather_csr_rows
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_id, bits_for_int
from repro.util.mathx import poly_log

__all__ = [
    "PutAsideReport",
    "select_putaside_sets",
    "compress_try",
    "color_putaside_sets",
]


@dataclass
class PutAsideReport:
    cliques_with_sets: int = 0
    total_selected: int = 0
    undersized_cliques: int = 0  # couldn't reach the target size
    compress_rounds: int = 0
    finish_rounds: int = 0
    colored: int = 0
    left_uncolored: int = 0

    def as_dict(self) -> dict:
        return {
            "cliques_with_sets": self.cliques_with_sets,
            "total_selected": self.total_selected,
            "undersized_cliques": self.undersized_cliques,
            "compress_rounds": self.compress_rounds,
            "finish_rounds": self.finish_rounds,
            "colored": self.colored,
            "left_uncolored": self.left_uncolored,
        }


# ---------------------------------------------------------------------------
# Selection (Lemma 3.4)
# ---------------------------------------------------------------------------


def select_putaside_sets(
    state: ColoringState,
    info: CliqueInfo,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "setup/putaside",
) -> tuple[dict[int, np.ndarray], PutAsideReport]:
    """Pick P_K ⊆ I_K of size ~cfg.putaside_size(n) in every *full* clique
    such that no edge joins two different put-aside sets.

    Protocol (O(1) rounds): inliers of full cliques volunteer with
    probability tuned to oversample 3×; volunteers broadcast a flag;
    volunteers adjacent to a volunteer of *another* full clique withdraw
    (both sides do — symmetric, so survivors are pairwise edge-free across
    cliques); each clique keeps its lowest-ID survivors up to the target.
    """
    net = state.net
    report = PutAsideReport()
    target = cfg.putaside_size(net.n)
    rng = seq.shared_stream("putaside-volunteer")

    full = [c for c in range(info.num_cliques) if info.kind[c] == "full"]
    volunteer_mask = np.zeros(net.n, dtype=bool)
    clique_of = info.labels
    candidates_by_clique: dict[int, np.ndarray] = {}
    for c in full:
        members = info.members(c)
        inliers = members[
            (state.colors[members] < 0) & (~info.outlier_mask[members])
        ]
        if inliers.size == 0:
            continue
        p = min(1.0, 3.0 * target / inliers.size)
        chosen = inliers[rng.random(inliers.size) < p]
        volunteer_mask[chosen] = True
        candidates_by_clique[c] = chosen

    # Withdraw on cross-clique volunteer adjacency.
    src, dst = net.row_edges(np.flatnonzero(volunteer_mask))
    cross = (
        volunteer_mask[src]
        & volunteer_mask[dst]
        & (clique_of[src] != clique_of[dst])
    )
    withdraw = np.zeros(net.n, dtype=bool)
    np.logical_or.at(withdraw, src[cross], True)

    result: dict[int, np.ndarray] = {}
    for c, chosen in candidates_by_clique.items():
        survivors = np.sort(chosen[~withdraw[chosen]])
        picked = survivors[:target]
        if picked.size:
            result[c] = picked.astype(np.int64)
            report.cliques_with_sets += 1
            report.total_selected += int(picked.size)
            if picked.size < target:
                report.undersized_cliques += 1

    # Rounds: volunteer flag, withdraw flag (1 bit each).
    net.account_vector_round(int(volunteer_mask.sum()), 1, phase=phase)
    net.account_vector_round(int(withdraw.sum()), 1, phase=phase)
    return result, report


# ---------------------------------------------------------------------------
# CompressTry (Algorithm 6) and the finish (Lemma 3.10), all cliques at once
# ---------------------------------------------------------------------------


class _PendingRows:
    """The put-aside nodes still uncolored when the phase starts, clique by
    clique in key order, with their CSR rows.  ``group`` maps a row to its
    clique among the G cliques with a pending node."""

    def __init__(
        self,
        state: ColoringState,
        info: CliqueInfo,
        keys: list,
        sets: list[np.ndarray],
    ):
        net = state.net
        labels = info.labels
        pending = [np.sort(p[state.colors[p] < 0]) for p in sets]
        active = [i for i, p in enumerate(pending) if p.size]
        sizes = np.array([pending[i].size for i in active], dtype=np.int64)
        self.clique = np.array([int(keys[i]) for i in active], dtype=np.int64)
        self.nodes = (
            np.concatenate([pending[i] for i in active])
            if active
            else np.empty(0, dtype=np.int64)
        )
        self.group = np.repeat(np.arange(len(active), dtype=np.int64), sizes)
        self.starts = np.cumsum(sizes) - sizes
        self.nbr = gather_csr_rows(net.indptr, net.indices, self.nodes)
        self.row = np.repeat(
            np.arange(self.nodes.size, dtype=np.int64), net.degrees[self.nodes]
        )

        # The batched order is exact only under Lemma 3.4: refuse a node
        # outside its key's clique and an edge between two cliques' sets.
        own = labels[self.nodes]
        stray = (own < 0) | (own != self.clique[self.group])
        if stray.any():
            i = int(np.flatnonzero(stray)[0])
            raise ValueError(
                f"put-aside node {self.nodes[i]} is not a member of clique "
                f"{self.clique[self.group[i]]}"
            )
        owner = np.full(net.n, -1, dtype=np.int64)
        for i, p in enumerate(sets):
            owner[p] = i
        theirs = owner[self.nbr]
        cross = (theirs >= 0) & (theirs != np.asarray(active)[self.group[self.row]])
        if cross.any():
            e = int(np.flatnonzero(cross)[0])
            v, u = int(self.nodes[self.row[e]]), int(self.nbr[e])
            raise ValueError(
                f"put-aside sets of cliques {keys[owner[v]]} and "
                f"{keys[theirs[e]]} are adjacent: edge ({v}, {u}) breaks "
                "Lemma 3.4"
            )

        clique_group = np.full(info.num_cliques, -1, dtype=np.int64)
        clique_group[self.clique] = np.arange(self.clique.size)
        member = np.flatnonzero(labels >= 0)
        g = clique_group[labels[member]]
        self.members, self.member_group = member[g >= 0], g[g >= 0]
        self.in_clique = labels[self.nbr] == self.clique[self.group[self.row]]

    def usable(
        self, colors: np.ndarray, lists: np.ndarray, runs: np.ndarray
    ) -> np.ndarray:
        """L(v) ∩ Ψ(v) per row, where Ψ(v) is the colors no neighbor
        holds; rows outside ``runs`` are empty."""
        cols = colors[self.nbr]
        held = (cols >= 0) & runs[self.row]
        usable = lists & runs[:, None]
        usable[self.row[held], cols[held]] = False
        return usable

    def lists(self, colors: np.ndarray, num_colors: int) -> tuple[np.ndarray, np.ndarray]:
        """Ψ(K) per clique and L(v) = Ψ(K) ∪ C(K\\N(v)) per row.

        C(K\\N(v)) is the clique's color histogram minus that of v's
        in-clique neighbors; v itself is uncolored, so it adds nothing.
        """
        cols = colors[self.members]
        held = cols >= 0
        in_k = np.bincount(
            self.member_group[held] * num_colors + cols[held],
            minlength=self.clique.size * num_colors,
        ).reshape(-1, num_colors)
        cols = colors[self.nbr]
        held = self.in_clique & (cols >= 0)
        near = np.bincount(
            self.row[held] * num_colors + cols[held],
            minlength=self.nodes.size * num_colors,
        ).reshape(-1, num_colors)
        psi_k = in_k == 0
        return psi_k, psi_k[self.group] | (in_k[self.group] > near)


def _presample(
    seq: SeedSequencer,
    nodes: np.ndarray,
    sizes: np.ndarray,
    stage: int,
    reps: int,
    k: int,
) -> np.ndarray:
    """CompressTry's pre-samples: row i·reps + r holds k near-uniform
    ranks into the ``sizes[i]`` usable colors of ``nodes[i]`` in
    instance r, expanded from the node's key under the public base of
    (stage, r).  The clique is not in the key: a node pends in one
    clique only (Lemma 3.4, which ``_PendingRows`` enforces)."""
    out = np.empty((nodes.size, reps, k), dtype=np.int64)
    for r in range(reps):
        seeds = derive_seeds_batch(nodes, seq.derive_seed("compress-try", stage, r))
        out[:, r] = expand_indices_batch(seeds, k, sizes)
    return out.reshape(-1, k)


def _greedy_passes(
    nodes: np.ndarray, inst: np.ndarray, cand: np.ndarray, num_inst: int, num_colors: int
) -> np.ndarray:
    """The sequential ID-order greedy of many independent instances, run
    as rank passes: pass j takes the j-th smallest node of every instance,
    and each takes its first candidate color (−1 = none) that no earlier
    node of its instance took.  Returns the color per item, −1 for none."""
    order = np.lexsort((nodes, inst))
    by_inst = inst[order]
    rank = np.arange(order.size) - np.searchsorted(by_inst, by_inst)
    step = np.argsort(rank, kind="stable")
    taken = np.zeros((num_inst, num_colors), dtype=bool)
    got = np.full(nodes.size, -1, dtype=np.int64)
    for items in np.split(order[step], np.flatnonzero(np.diff(rank[step])) + 1):
        c, where = cand[items], inst[items]
        free = (c >= 0) & ~taken[where[:, None], c]
        hit = free.any(axis=1)
        pick = c[np.arange(items.size), free.argmax(axis=1)][hit]
        taken[where[hit], pick] = True
        got[items[hit]] = pick
    return got


def compress_try(
    nodes: np.ndarray,
    group: np.ndarray,
    usable: np.ndarray,
    stage: int,
    cfg: ColoringConfig,
    seq: SeedSequencer,
) -> tuple[np.ndarray, np.ndarray]:
    """One CompressTry stage (Algorithm 6) in every clique at once.

    Row i is node ``nodes[i]`` of clique ``group[i]`` (numbered from 0),
    and ``usable[i]`` its L(v) ∩ Ψ(v) as a bool row over the palette.
    Each clique runs ``cfg.compress_try_repeats`` instances side by side
    (the §3.3 log log n repetitions).  In instance r every row
    pre-samples ``cfg.compress_try_colors`` colors from its usable row,
    expanded from the batch PRG keyed by (stage, r, node); a row with
    nothing usable draws nothing.  Then, in ID order, each node takes its
    first sample that no smaller-ID node of its instance took.  Every
    clique keeps its first instance with the most nodes colored.  Nothing
    is adopted here.  Returns the (rows, colors) of the kept instances.
    """
    k, reps = cfg.compress_try_colors, cfg.compress_try_repeats
    num_colors = usable.shape[1]
    num_groups = int(group.max()) + 1 if group.size else 0
    sizes = usable.sum(axis=1)
    drawn = np.flatnonzero(sizes)
    rows = np.repeat(drawn, reps)
    rep = np.tile(np.arange(reps, dtype=np.int64), drawn.size)
    ranks = _presample(seq, nodes[drawn], sizes[drawn], stage, reps, k)
    # Rank r of a row is its r-th usable color: read it off the row's run
    # of set positions in the flattened usable rows.
    d = np.repeat(np.arange(drawn.size, dtype=np.int64), reps)
    flat = np.flatnonzero(usable[drawn])
    first = np.cumsum(sizes[drawn]) - sizes[drawn]
    samples = flat[first[d][:, None] + ranks] - (d * num_colors)[:, None]
    inst = group[rows] * reps + rep
    got = _greedy_passes(nodes[rows], inst, samples, num_groups * reps, num_colors)
    wins = np.bincount(inst[got >= 0], minlength=num_groups * reps)
    best = wins.reshape(-1, reps).argmax(axis=1)
    keep = (got >= 0) & (rep == best[group[rows]])
    return rows[keep], got[keep]


def _finish(
    nodes: np.ndarray, group: np.ndarray, usable: np.ndarray, num_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Lemma 3.10 finish in every clique at once: in ID order, each row
    takes the lowest color of its ``usable`` row not yet taken in its
    clique.  Returns (rows, colors)."""
    rows = np.flatnonzero(usable.any(axis=1))
    num_colors = usable.shape[1]
    cand = np.where(usable[rows], np.arange(num_colors, dtype=np.int64), -1)
    got = _greedy_passes(nodes[rows], group[rows], cand, num_groups, num_colors)
    return rows[got >= 0], got[got >= 0]


def _waves(msg_bits: int, budget: int | None) -> tuple[int, int]:
    """Rounds and per-message bits of a 2-round exchange whose message may
    need several waves under the bandwidth cap."""
    if budget is not None and msg_bits > budget:
        return 2 * int(np.ceil(msg_bits / budget)), budget
    return 2, msg_bits


# ---------------------------------------------------------------------------
# Coloring the put-aside sets (Lemmas 3.10, 3.13)
# ---------------------------------------------------------------------------


def color_putaside_sets(
    state: ColoringState,
    info: CliqueInfo,
    putaside: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "putaside",
) -> PutAsideReport:
    """Color every put-aside set, all cliques at once.

    Stage 0 runs CompressTry on the clique palette Ψ(K).  Cliques with
    a_K < C log n then run stage 1 on the augmented lists
    Ψ(K) ∪ C(K\\N(v)) (second case of Lemma 3.13); those lists are built
    from the colors *before* stage 0.  Last, the Lemma 3.10 finish gives
    every pending node the lowest free color of L(v) ∩ Ψ(v).  Ψ(v) is
    read at the start of each step, and each step adopts once.

    Batching is exact because no edge joins the put-aside sets of two
    cliques (Lemma 3.4): a clique's adoptions change no Ψ(v), Ψ(K') or
    C(K'\\N(v)) another clique reads, and every pre-sample is keyed by
    (stage, repeat, node), with one node in one clique only.  A node
    outside its key's clique, or an edge between two cliques' sets,
    raises ``ValueError`` before anything is adopted.  Rounds are the
    maximum over cliques; messages the sum.
    """
    net = state.net
    report = PutAsideReport()
    keys = list(putaside)
    sets = [np.asarray(putaside[c], dtype=np.int64) for c in keys]
    pend = _PendingRows(state, info, keys, sets)
    if not pend.nodes.size:
        return report

    num_colors = state.num_colors
    budget = net.bandwidth_bits
    compress_rounds = np.zeros(pend.clique.size, dtype=np.int64)
    compress_msgs: list[tuple[int, int]] = []  # (participants, bits) per clique and stage
    finish_msgs: list[tuple[int, int]] = []
    max_finish_rounds = 0
    psi_k, augmented = pend.lists(state.colors, num_colors)
    # With a_K ≥ C log n the colorful matching left the clique palette
    # a surplus of a_K ≥ a_v, so Ψ(K) alone suffices (first case of
    # Lemma 3.13); other cliques go on to the augmented lists.
    two_stage = info.a_k[pend.clique] < cfg.log_threshold(net.n)
    stages = (
        (psi_k[pend.group], psi_k.sum(axis=1)),
        (augmented, np.maximum.reduceat(augmented.sum(axis=1), pend.starts)),
    )
    # Bits: k color indices per instance, every instance in one
    # Many-to-All wave (2 rounds); the index width follows the largest
    # list of the nodes pending when the clique started.
    per_index = cfg.compress_try_colors * cfg.compress_try_repeats
    for stage, (lists, list_size) in enumerate(stages):
        runs = state.colors[pend.nodes] < 0
        if stage:
            runs &= two_stage[pend.group]
        if not runs.any():
            break
        usable = pend.usable(state.colors, lists, runs)
        rows, cols = compress_try(pend.nodes, pend.group, usable, stage, cfg, seq)
        state.adopt(pend.nodes[rows], cols)
        report.colored += int(rows.size)
        part = np.bincount(pend.group[runs], minlength=pend.clique.size)
        for g in np.flatnonzero(part).tolist():
            msg_bits = per_index * bits_for_int(max(int(list_size[g]), 2))
            rounds, msg_bits = _waves(msg_bits + bits_for_id(net.n), budget)
            compress_msgs.append((int(part[g]), msg_bits))
            compress_rounds[g] += rounds

    runs = state.colors[pend.nodes] < 0
    if runs.any():
        _, lists = pend.lists(state.colors, num_colors)
        usable = pend.usable(state.colors, lists, runs)
        rows, cols = _finish(pend.nodes, pend.group, usable, pend.clique.size)
        state.adopt(pend.nodes[rows], cols)
        report.colored += int(rows.size)
        # Bits: |P̂_K|+1 colors of O(log log n) bits each.
        code_bits = bits_for_int(max(int(poly_log(net.n, 3.0, 1.0)), 2))
        part = np.bincount(pend.group[runs], minlength=pend.clique.size)
        for g in np.flatnonzero(part).tolist():
            msg_bits = (int(part[g]) + 1) * max(1, code_bits // 2)
            rounds, msg_bits = _waves(msg_bits, budget)
            finish_msgs.append((int(part[g]), msg_bits))
            max_finish_rounds = max(max_finish_rounds, rounds)

    # Cliques run in parallel: charge the max round count once, with the
    # aggregate message volume.
    max_compress_rounds = int(compress_rounds.max())
    for rounds, msgs in ((max_compress_rounds, compress_msgs), (max_finish_rounds, finish_msgs)):
        if msgs:
            net.account_vector_round(
                sum(p for p, _ in msgs),
                max(b for _, b in msgs),
                phase=phase,
                rounds=rounds,
            )

    report.compress_rounds = max_compress_rounds
    report.finish_rounds = max_finish_rounds
    report.left_uncolored = int((state.colors[np.concatenate(sets)] < 0).sum())
    return report
