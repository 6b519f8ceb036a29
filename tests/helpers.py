"""Shared plain-Python test helpers (not fixtures)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import scipy.sparse as sp

from repro.core import algorithm
from repro.core.algorithm import BroadcastColoring
from repro.core.permute import permute_constant
from repro.core.putaside import PutAsideReport
from repro.core.sct import SCTReport
from repro.core.state import ColoringState
from repro.core.trycolor import palette_interval_sampler, resolve_proposals, try_color_round
from repro.decomposition.acd import (
    SPARSE,
    AlmostCliqueDecomposition,
    _admit_joins,
    _build,
    _compact_labels,
)
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.dynamic import engine as engine_module
from repro.dynamic.engine import conflict_victims
from repro.hashing.prg import derive_seed_item, expand_indices_item
from repro.simulator.network import BroadcastNetwork, ShardView
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color, bits_for_id, bits_for_int
from repro.util.mathx import poly_log


def brute_force_proper(net: BroadcastNetwork, colors: np.ndarray) -> bool:
    """O(m) reference propriety check used to cross-validate the library's
    own verifiers."""
    for u, v in net.undirected_edges():
        if colors[u] >= 0 and colors[u] == colors[v]:
            return False
    return True


def one_per_round_charge(n: int, senders, silent=()) -> tuple[int, int, int]:
    """The delta-announcement charge with one entry per broadcast — the
    k = 1 oracle for ``BroadcastNetwork.apply_delta``'s packed charge.
    Each applied directed change is its own ⌈log₂ n⌉+1-bit message from
    its source in ``senders``, unless the source is silent; a node with c
    changes takes c rounds.  Returns (rounds, messages, payload bits)."""
    quiet = {int(v) for v in silent}
    counts: dict[int, int] = {}
    for v in map(int, senders):
        if v not in quiet:
            counts[v] = counts.get(v, 0) + 1
    messages = sum(counts.values())
    entry_bits = bits_for_id(max(n, 2)) + 1
    return max(counts.values(), default=0), messages, messages * entry_bits


def count_propriety_scans(patch) -> list:
    """Count ``ColoringState.is_proper`` calls under ``patch`` (a
    ``pytest.MonkeyPatch``): one entry per full edge scan."""
    calls = []
    real = ColoringState.is_proper

    def is_proper(state):
        calls.append(1)
        return real(state)

    patch.setattr(ColoringState, "is_proper", is_proper)
    return calls


def planting_repair(planted: list, fault: str = "improper"):
    """``conflict_repair`` with one fault planted after the real repair:
    the first recolored node with a colored neighbor copies that
    neighbor's color (``"improper"``), or loses its own (``"incomplete"``).
    Appends the ``(node, neighbor)`` pair to ``planted``."""
    real = engine_module.conflict_repair

    def repair(net, colors, repair_set, *args, **kwargs):
        out, done, rounds = real(net, colors, repair_set, *args, **kwargs)
        for v in repair_set:
            nb = net.neighbors(v)
            nb = nb[out[nb] >= 0]
            if nb.size and out[v] >= 0:
                out = out.copy()
                out[v] = out[nb[0]] if fault == "improper" else -1
                planted.append((int(v), int(nb[0])))
                break
        return out, done, rounds

    return repair


def clique_leftover_count(colors: np.ndarray, members: np.ndarray) -> int:
    return int((colors[members] < 0).sum())


def unpacked_edge_similarity(net: BroadcastNetwork, sketch) -> np.ndarray:
    """Reference ACD similarity estimator: compare the raw (T × m)
    fingerprint gather per edge, then debias exactly as
    :func:`repro.decomposition.minhash.estimate_edge_similarity` does.
    The oracle the packed SWAR estimator must match bit for bit."""
    edges = net.undirected_edges()
    if edges.size == 0:
        return np.empty(0, dtype=np.float64)
    fps = sketch.fingerprints
    eq = fps[:, edges[:, 0]] == fps[:, edges[:, 1]]
    matches = eq.sum(axis=0, dtype=np.int64)
    rate = matches / sketch.samples
    floor = 2.0 ** (-sketch.bits_per_sample)
    return np.clip((rate - floor) / (1.0 - floor), 0.0, 1.0)


def all_nodes_decomposition(net: BroadcastNetwork, cfg):
    """Reference ACD: fingerprint every node, estimate every edge, then
    build.  The oracle whose labels
    :func:`repro.decomposition.acd.decompose_distributed`, which reads
    only the edges around the dense candidates, must match.  It bills
    every node's sketch and sends no candidate flag, so its rounds and
    bits are not the protocol's."""
    if net.m == 0:
        return AlmostCliqueDecomposition(
            labels=np.full(net.n, SPARSE, dtype=np.int64), eps=cfg.eps
        )
    salt = SeedSequencer(cfg.seed).derive_seed("acd-hash") % (1 << 31)
    sketch = compute_sketches(
        net, cfg.acd_minhash_samples, cfg.acd_minhash_bits, salt=salt
    )
    similarity = estimate_edge_similarity(net, sketch)
    return _build(net, similarity, cfg, rounds_used=sketch.rounds_used)


# ---------------------------------------------------------------------------
# The ACD repair over the full (n × k) neighbor-label count matrix.  The
# library reads each rule's counts straight from the CSR pairs; these build
# the scipy matrix and read every rule from it.
# ---------------------------------------------------------------------------


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


def own_counts_oracle(net: BroadcastNetwork, labels: np.ndarray) -> np.ndarray:
    """``acd._own_counts`` read from the matrix: entry (v, labels[v])."""
    counts = _neighbor_label_counts(net, labels)
    own = np.zeros(net.n, dtype=np.int64)
    member = np.flatnonzero(labels >= 0)
    if member.size:
        own[member] = np.asarray(counts[member, labels[member]]).ravel()
    return own


def outsider_counts_oracle(net: BroadcastNetwork, labels: np.ndarray, k: int):
    """``acd._outsider_counts`` read from the matrix: its stored entries
    (v, c) with c ≠ labels[v], in row-major order."""
    coo = _neighbor_label_counts(net, labels).tocoo()
    out = labels[coo.row] != coo.col
    return tuple(a[out].astype(np.int64) for a in (coo.row, coo.col, coo.data))


def repair_oracle(net: BroadcastNetwork, labels: np.ndarray, eps: float, iterations: int):
    """``acd._repair`` recounting the whole matrix before each rule, with a
    per-clique dissolve loop.  Returns (labels, senders): per pass, the
    members at its start and the nodes whose label it changed."""
    delta = max(net.delta, 1)
    need_inside = (1.0 - eps) * delta  # 2b
    max_size = (1.0 + eps) * delta  # 2a
    join_threshold = (1.0 - eps / 2.0) * delta  # 2c
    senders = []
    labels = labels.copy()
    for _ in range(max(1, iterations)):
        start = labels.copy()
        changed = False
        counts = _neighbor_label_counts(net, labels)
        k = counts.shape[1]
        if k == 0:
            senders.append((0, 0))
            break
        own = np.zeros(net.n, dtype=np.int64)
        member = labels >= 0
        if member.any():
            own[member] = np.asarray(
                counts[np.flatnonzero(member), labels[member]]
            ).ravel()
        bad = member & (own < need_inside)
        if bad.any():
            labels[bad] = SPARSE
            changed = True
        sizes = np.bincount(labels[labels >= 0], minlength=k)
        for c in range(k):
            if 0 < sizes[c] <= need_inside:
                labels[labels == c] = SPARSE
                changed = True
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
        counts = _neighbor_label_counts(net, labels)
        k = counts.shape[1]
        if k:
            sizes = np.bincount(labels[labels >= 0], minlength=k)
            for c in np.flatnonzero(sizes > max_size):
                members_c = np.flatnonzero(labels == c)
                # A column of the matrix, densified: ``np.asarray`` of a
                # sparse column is a one-element object array.
                inside = counts[members_c, c].toarray().ravel()
                order = np.argsort(inside)
                shed = members_c[order[: int(sizes[c] - np.floor(max_size))]]
                labels[shed] = SPARSE
                changed = True
        members, moved = np.count_nonzero(start >= 0), np.count_nonzero(labels != start)
        senders.append((int(members), int(moved)))
        if not changed:
            break
    return _compact_labels(labels), senders

# ---------------------------------------------------------------------------
# Per-node oracles of the dense-clique phases (put-aside, LearnPalette, SCT).
# The library runs each phase for all cliques at once; these loops run one
# clique, one member, one node at a time, and the batched phases must match
# them in every color, report field, round and bit.
# ---------------------------------------------------------------------------


def compress_try_oracle(state, s_nodes, lists, cfg, seq, stage=0, rep=0):
    """One CompressTry instance, node by node: in ID order, v pre-samples
    k colors from L(v) ∩ Ψ(v), expanding its own key under the base of
    (stage, rep), and takes the first one no smaller-ID node took.
    Returns (nodes, colors); nothing is adopted."""
    k = cfg.compress_try_colors
    base = seq.derive_seed("compress-try", stage, rep)
    taken: set[int] = set()
    nodes_out: list[int] = []
    colors_out: list[int] = []
    for v in np.sort(np.asarray(s_nodes, dtype=np.int64)):
        v = int(v)
        lv = lists.get(v)
        if lv is None or lv.size == 0:
            continue
        usable = np.intersect1d(lv, state.palette(v))
        if usable.size == 0:
            continue
        for c in usable[expand_indices_item(derive_seed_item(v, base), k, usable.size)]:
            c = int(c)
            if c not in taken:
                taken.add(c)
                nodes_out.append(v)
                colors_out.append(c)
                break
    return nodes_out, colors_out


def clique_palette(state, members):
    """Ψ(K) = [Δ+1] \\ C(K) (Definition 2.7)."""
    used = np.zeros(state.num_colors, dtype=bool)
    mc = state.colors[members]
    used[mc[mc >= 0]] = True
    return np.flatnonzero(~used).astype(np.int64)


def anti_neighbor_colors(state, members, v):
    """C(K \\ N(v)): colors of v's anti-neighbors inside K."""
    nbrs = set(int(u) for u in state.net.neighbors(v))
    anti = [int(u) for u in members if int(u) != v and int(u) not in nbrs]
    cols = state.colors[np.asarray(anti, dtype=np.int64)] if anti else np.empty(0, dtype=np.int64)
    return np.unique(cols[cols >= 0]).astype(np.int64)


def color_putaside_sets_oracle(state, info, putaside, cfg, seq, phase="putaside"):
    """Put-aside coloring one clique at a time: CompressTry stages, each
    adopted per clique, then the Lemma 3.10 finish, node by node."""
    net = state.net
    report = PutAsideReport()
    log_thr = cfg.log_threshold(net.n)
    max_compress_rounds = 0
    max_finish_rounds = 0
    compress_msgs: list[tuple[int, int]] = []
    finish_msgs: list[tuple[int, int]] = []
    for c, p_nodes in putaside.items():
        members = info.members(c)
        pending = p_nodes[state.colors[p_nodes] < 0]
        if pending.size == 0:
            continue
        psi_k = clique_palette(state, members)
        stages = [{int(v): psi_k for v in pending}]
        if info.a_k[c] < log_thr:
            stages.append(
                {
                    int(v): np.union1d(psi_k, anti_neighbor_colors(state, members, int(v)))
                    for v in pending
                }
            )
        rounds_here = 0
        for stage_idx, lists in enumerate(stages):
            pending = pending[state.colors[pending] < 0]
            if pending.size == 0:
                break
            best: tuple[list[int], list[int]] = ([], [])
            for rep in range(cfg.compress_try_repeats):
                nodes_out, colors_out = compress_try_oracle(
                    state, pending, lists, cfg, seq, stage=stage_idx, rep=rep
                )
                if len(nodes_out) > len(best[0]):
                    best = (nodes_out, colors_out)
            if best[0]:
                state.adopt(np.asarray(best[0]), np.asarray(best[1]))
                report.colored += len(best[0])
            list_size = max((arr.size for arr in lists.values()), default=1)
            msg_bits = (
                cfg.compress_try_colors
                * cfg.compress_try_repeats
                * bits_for_int(max(list_size, 2))
                + bits_for_id(net.n)
            )
            waves = 1
            budget = net.bandwidth_bits
            if budget is not None and msg_bits > budget:
                waves = int(np.ceil(msg_bits / budget))
                msg_bits = budget
            compress_msgs.append((int(pending.size), msg_bits))
            rounds_here += 2 * waves
        max_compress_rounds = max(max_compress_rounds, rounds_here)

        pending = p_nodes[state.colors[p_nodes] < 0]
        if pending.size:
            psi_k = clique_palette(state, members)
            nodes_fin: list[int] = []
            cols_fin: list[int] = []
            taken: set[int] = set()
            for v in np.sort(pending):
                v = int(v)
                lv = np.union1d(psi_k, anti_neighbor_colors(state, members, v))
                usable = np.setdiff1d(
                    np.intersect1d(lv, state.palette(v)),
                    np.asarray(sorted(taken), dtype=np.int64),
                )
                if usable.size:
                    taken.add(int(usable[0]))
                    nodes_fin.append(v)
                    cols_fin.append(int(usable[0]))
            if nodes_fin:
                state.adopt(np.asarray(nodes_fin), np.asarray(cols_fin))
                report.colored += len(nodes_fin)
            color_code_bits = bits_for_int(max(int(poly_log(net.n, 3.0, 1.0)), 2))
            msg_bits = (pending.size + 1) * max(1, color_code_bits // 2)
            budget = net.bandwidth_bits
            waves = 1
            if budget is not None and msg_bits > budget:
                waves = int(np.ceil(msg_bits / budget))
                msg_bits = budget
            finish_msgs.append((int(pending.size), msg_bits))
            max_finish_rounds = max(max_finish_rounds, 2 * waves)

    for rounds, msgs in ((max_compress_rounds, compress_msgs), (max_finish_rounds, finish_msgs)):
        if msgs:
            for _ in range(rounds):
                net.account_vector_round(
                    sum(p for p, _ in msgs), max(b for _, b in msgs), phase=phase
                )
    report.compress_rounds = max_compress_rounds
    report.finish_rounds = max_finish_rounds
    report.left_uncolored = sum(
        int((state.colors[p_nodes] < 0).sum()) for p_nodes in putaside.values()
    )
    return report


def learn_palette_oracle(state, members, cfg, seq, phase="sct/learn-palette", tag=0):
    """Algorithm 2 in one clique, member by member.  Returns
    (known_free, true_free, complete, incomplete_members)."""
    net = state.net
    members = np.asarray(members, dtype=np.int64)
    num_colors = state.num_colors
    size = members.size
    k = max(1, int(net.delta // max(cfg.log_threshold(net.n), 1.0)))
    k = min(k, max(size, 1))
    bounds = np.linspace(0, num_colors, k + 1).astype(np.int64)
    t = seq.stream("learn-palette", phase, tag).integers(0, k, size=size)
    member_row = {int(v): i for i, v in enumerate(members)}
    in_clique = np.zeros(net.n, dtype=bool)
    in_clique[members] = True

    bitmaps = np.zeros((size, num_colors), dtype=bool)
    for i, v in enumerate(members):
        lo, hi = int(bounds[t[i]]), int(bounds[t[i] + 1])
        nbrs = net.neighbors(int(v))
        cols = state.colors[nbrs[in_clique[nbrs]]]
        bitmaps[i, cols[(cols >= lo) & (cols < hi)]] = True

    known_used = np.zeros((size, num_colors), dtype=bool)
    for i, v in enumerate(members):
        nbrs = net.neighbors(int(v))
        nbrs = nbrs[in_clique[nbrs]]
        rows = np.array([member_row[int(u)] for u in nbrs], dtype=np.int64)
        if rows.size:
            known_used[i] = bitmaps[rows].any(axis=0)
        cols = state.colors[nbrs]
        known_used[i, cols[cols >= 0]] = True
        if state.colors[v] >= 0:
            known_used[i, state.colors[v]] = True

    true_used = np.zeros(num_colors, dtype=bool)
    mc = state.colors[members]
    true_used[mc[mc >= 0]] = True
    incomplete = int((~known_used & true_used[None, :]).any(axis=1).sum())
    return ~known_used, ~true_used, incomplete == 0, incomplete


def relabel_oracle(net, nodes, cfg, seq, phase="sct/relabel"):
    """Algorithm 3 on one set, node by node: v's x candidates expand its
    own key under ``seq.derive_seed("relabel", phase)``, and the first
    index whose column repeats no value wins; otherwise labels are ranks
    by ID.  Returns (labels, label_universe, chosen_index, rounds)."""
    nodes = [int(v) for v in nodes]
    s, n = len(nodes), net.n
    if s == 0:
        return np.empty(0, dtype=np.int64), 1, 0, 0
    loglog = max(np.log2(max(np.log2(max(n, 4)), 2.0)), 1.0)
    x = max(1, int(np.ceil(cfg.log_threshold(n) / loglog)))
    universe = max(2, int(s * s * max(np.log2(max(n, 2)), 1.0)))
    base = seq.derive_seed("relabel", phase)
    cand = np.array(
        [expand_indices_item(derive_seed_item(v, base), x, universe) for v in nodes]
    )
    chosen = next((j for j in range(x) if len(set(cand[:, j].tolist())) == s), -1)
    label_bits = bits_for_int(universe)
    cap = net.bandwidth_bits or x * label_bits
    per_round = max(1, cap // label_bits)
    # A label wider than the cap takes ⌈label_bits / cap⌉ rounds of its own.
    label_rounds = int(np.ceil(label_bits / cap))
    map_rounds = int(np.ceil(x / (net.bandwidth_bits or x)))
    rounds = int(np.ceil(x / per_round)) * label_rounds + map_rounds
    if chosen >= 0:
        return cand[:, chosen], universe, chosen, rounds
    rank = {v: r for r, v in enumerate(sorted(nodes))}
    return np.array([rank[v] for v in nodes], dtype=np.int64), max(s, 2), -1, rounds


def permute_loglog_oracle(net, members, subset, cfg, seq, phase="sct/permute4"):
    """Algorithm 4 in one clique, bucket by bucket: v's bucket and its
    priority expand its own key, ρ orders each bucket by (priority, ID),
    Relabel runs per bucket, and π adds the earlier buckets' sizes.
    Returns (pi, rounds, relabel_failures, buckets)."""
    subset = [int(v) for v in subset]
    if not subset:
        return np.empty(0, dtype=np.int64), 0, 0, 0
    k = int(net.delta // max(cfg.log_threshold(net.n), 1.0))
    k = min(max(k, 1), max(len(members), 1))
    bucket_base = seq.derive_seed("permute4", phase)
    rho_base = seq.derive_seed("rho", phase)
    buckets: list[list[int]] = [[] for _ in range(k)]
    for v in subset:
        b = int(expand_indices_item(derive_seed_item(v, bucket_base), 1, k)[0])
        buckets[b].append(v)
    pi: dict[int, int] = {}
    offset = failures = max_relabel = max_leader = 0
    for bucket in buckets:
        if not bucket:
            continue
        _, universe, chosen, rounds = relabel_oracle(net, bucket, cfg, seq, phase)
        failures += int(chosen < 0)
        max_relabel = max(max_relabel, rounds)
        payload = len(bucket) * bits_for_int(universe)
        max_leader = max(max_leader, int(np.ceil(payload / (net.bandwidth_bits or payload))))
        ranked = sorted(bucket, key=lambda v: (derive_seed_item(v, rho_base), v))
        for rank, v in enumerate(ranked):
            pi[v] = offset + rank
        offset += len(bucket)
    pi_out = np.array([pi[v] for v in subset], dtype=np.int64)
    return pi_out, 2 + max_relabel + max_leader, failures, k


def sct_oracle(state, info, putaside, cfg, seq, phase="sct"):
    """The synchronized color trial one clique at a time, with the
    per-member LearnPalette, the per-clique Algorithm 4 (or the library's
    Algorithm 5, which is per clique) and a per-node proposal loop.
    Returns (report, proposals)."""
    net = state.net
    report = SCTReport()
    proposals = np.full(state.n, -1, dtype=np.int64)
    permute_rounds = 0
    lp_messages = 0
    for c in range(info.num_cliques):
        members = info.members(c)
        aside = set(int(v) for v in putaside.get(c, np.empty(0, dtype=np.int64)))
        unc = members[state.colors[members] < 0]
        s_nodes = np.array([v for v in unc if int(v) not in aside], dtype=np.int64)
        if s_nodes.size == 0:
            continue
        report.cliques += 1
        known_free, true_free, complete, _ = learn_palette_oracle(
            state, members, cfg, seq, phase=f"{phase}/learn-palette", tag=c
        )
        lp_messages += members.size
        if not complete:
            report.learn_palette_incomplete += 1
        if cfg.permute_constant_round:
            perm = permute_constant(
                net, [members], s_nodes, np.zeros(s_nodes.size, dtype=np.int64), cfg, seq,
                phase=f"{phase}/permute", tags=[c], account=False,
            )
            pi, rounds = perm.pi, int(perm.rounds[0])
        else:
            pi, rounds, _, _ = permute_loglog_oracle(
                net, members, s_nodes, cfg, seq, phase=f"{phase}/permute"
            )
        permute_rounds = max(permute_rounds, rounds)
        x_k = int(info.x_k[c])
        row_of = {int(v): i for i, v in enumerate(members)}
        if int((np.flatnonzero(true_free) >= x_k).sum()) < s_nodes.size:
            report.palette_deficits += 1
        for v, p in zip(s_nodes, pi):
            learned = np.flatnonzero(known_free[row_of[int(v)]])
            learned = learned[learned >= x_k]
            if p < learned.size:
                proposals[int(v)] = int(learned[p])
                report.tried += 1

    if report.cliques:
        net.account_vector_round(
            lp_messages, net.bandwidth_bits or 64, phase=f"{phase}/learn-palette"
        )
        for _ in range(permute_rounds):
            net.account_vector_round(
                lp_messages, net.bandwidth_bits or 64, phase=f"{phase}/permute"
            )
    report.permute_rounds_max = permute_rounds
    report.colored = resolve_proposals(
        state, proposals.copy(), phase=f"{phase}/trial", bits=bits_for_color(state.delta)
    )
    for c in range(info.num_cliques):
        members = info.members(c)
        aside = set(int(v) for v in putaside.get(c, np.empty(0, dtype=np.int64)))
        unc = [v for v in members[state.colors[members] < 0] if int(v) not in aside]
        report.leftover_by_clique[c] = len(unc)
    open_cliques = info.cliques_of_kind("open")
    if open_cliques:
        open_nodes_mask = np.zeros(state.n, dtype=bool)
        for c in open_cliques:
            open_nodes_mask[info.members(c)] = True
        sampler = palette_interval_sampler(state, info.x_node, state.num_colors)
        for r in range(cfg.sct_extra_trycolor_rounds):
            participants = np.flatnonzero(open_nodes_mask & (state.colors < 0))
            if participants.size == 0:
                break
            report.colored += try_color_round(
                state, participants, sampler, seq, phase=f"{phase}/open-trycolor", round_tag=r
            )
            report.extra_trycolor_rounds += 1
    return report, proposals


def greedy_color(state, nodes, rng, choices=3):
    """Color ``nodes`` greedily in a random order, each with one of its
    ``choices`` smallest free colors (any free color when ``None``), and
    adopt them in one batch: a varied, proper partial coloring to run the
    dense phases on."""
    colors = state.colors.copy()
    for v in rng.permutation(np.asarray(nodes, dtype=np.int64)):
        nb = colors[state.net.neighbors(v)]
        used = np.zeros(state.num_colors, dtype=bool)
        used[nb[nb >= 0]] = True
        free = np.flatnonzero(~used)
        if free.size:
            colors[v] = free[rng.integers(0, min(free.size, choices or free.size))]
    fresh = np.flatnonzero((colors >= 0) & (state.colors < 0))
    state.adopt(fresh, colors[fresh])


# ---------------------------------------------------------------------------
# Reference implementations the library folded into one path.
# ---------------------------------------------------------------------------


def resolve_pernode_oracle(state, active, proposals):
    """MultiTrial's adoption rule one node at a time: v adopts the first
    color of its expansion that no colored neighbor holds and no
    smaller-ID active neighbor has anywhere in its own expansion.  The
    oracle of ``repro.core.multitrial._resolve_vectorized`` (same
    signature, so tests can swap it into the pipeline)."""
    net = state.net
    pos = np.full(state.n, -1, dtype=np.int64)
    pos[active] = np.arange(active.size)
    adopt_nodes: list[int] = []
    adopt_colors: list[int] = []
    for i, v in enumerate(active):
        v = int(v)
        x_v = proposals[i]
        if x_v[0] < 0:  # empty interval — rows are homogeneous
            continue
        nbrs = net.neighbors(v)
        nbr_colors = state.colors[nbrs]
        forbidden = [nbr_colors[nbr_colors >= 0]]
        forbidden += [proposals[pos[u]] for u in nbrs if u < v and pos[u] >= 0]
        hits = np.flatnonzero(~np.isin(x_v, np.concatenate(forbidden)))
        if hits.size:
            adopt_nodes.append(v)
            adopt_colors.append(int(x_v[hits[0]]))
    return np.asarray(adopt_nodes, dtype=np.int64), np.asarray(adopt_colors, dtype=np.int64)


def induced_subgraph_oracle(net: BroadcastNetwork, members, shard: int = 0) -> ShardView:
    """One shard's view by a scan of the whole undirected edge array:
    interior edges relabeled to local ids, cut edges against the sorted
    ghost frontier, frontier write-protected.  The oracle of
    :func:`repro.simulator.network.shard_view_from_csr`."""
    mask = np.zeros(net.n, dtype=bool)
    mask[np.asarray(members, dtype=np.int64)] = True
    nodes = np.flatnonzero(mask).astype(np.int64)
    local = np.full(net.n, -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.size, dtype=np.int64)
    und = net.undirected_edges()
    in_u, in_v = mask[und[:, 0]], mask[und[:, 1]]
    both = in_u & in_v
    interior = np.stack([local[und[both, 0]], local[und[both, 1]]], axis=1)
    cross = in_u ^ in_v
    inner_end = np.where(in_u[cross], und[cross, 0], und[cross, 1])
    ghost_end = np.where(in_u[cross], und[cross, 1], und[cross, 0])
    ghost_nodes = np.unique(ghost_end)
    cut = np.stack([local[inner_end], np.searchsorted(ghost_nodes, ghost_end)], axis=1)
    ghost_nodes.flags.writeable = False
    cut.flags.writeable = False
    return ShardView(
        shard=int(shard),
        n_global=net.n,
        nodes=nodes,
        interior_edges=interior,
        ghost_nodes=ghost_nodes,
        cut_edges=cut,
    )


class TraceRecorder:
    """One ``(phase, uncolored, messages)`` event per synchronous round,
    recorded by an observer on the run's :class:`RoundMetrics`; see
    :func:`traced_run`."""

    def __init__(self) -> None:
        self.events: list[tuple[str, int, int]] = []
        self.probe = None  # returns the run's current uncolored count

    def record(self, phase: str, messages: int) -> None:
        self.events.append((phase, int(self.probe()), int(messages)))

    def uncolored_series(self) -> list[int]:
        return [uncolored for _, uncolored, _ in self.events]

    def phases_seen(self) -> list[str]:
        out: list[str] = []
        for phase, _, _ in self.events:
            if not out or out[-1] != phase:
                out.append(phase)
        return out

    def rounds_in_phase(self, phase: str) -> int:
        return sum(1 for p, _, _ in self.events if p == phase)

    def is_monotone(self) -> bool:
        series = self.uncolored_series()
        return all(b <= a for a, b in zip(series, series[1:]))


def traced_run(graph, cfg):
    """Run the pipeline on ``graph`` with a :class:`TraceRecorder`
    subscribed to ``RoundMetrics.observers``; returns ``(result,
    recorder)``.  The recorder probes the run's own
    :class:`ColoringState`, which it picks up as the pipeline builds it."""
    recorder = TraceRecorder()

    class ProbedState(ColoringState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorder.probe = self.num_uncolored

    net = BroadcastNetwork(graph)
    net.bandwidth_bits = cfg.bandwidth_bits(net.n)
    net.metrics.observers.append(recorder.record)
    with mock.patch.object(algorithm, "ColoringState", ProbedState):
        result = BroadcastColoring(net, cfg).run()
    return result, recorder


def full_scan_conflicts(engine, num_colors: int) -> np.ndarray:
    """The conflict detector as a full scan: the engine's victim rule
    over every monochromatic edge of the current CSR, plus every active
    node whose color fell out of ``[num_colors]``.  The oracle the
    delta-routed ``DynamicColoring._detect_conflicts`` must match while
    the pre-batch coloring is proper."""
    c = engine.colors
    conflict = conflict_victims(
        engine.net, c, policy=engine.cfg.conflict_victim, num_colors=num_colors
    )
    conflict |= engine.active & (c >= num_colors)
    return conflict
