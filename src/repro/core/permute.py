"""Distributed permutation sampling (Algorithms 4 and 5, §4).

The synchronized color trial needs a (near-)uniform random permutation of
the uncolored clique members, computed with O(log n)-bit broadcasts.  Both
algorithms share the skeleton *rough-bucket → relabel → permute within
buckets → prefix offsets*:

* **Algorithm 4** (O(log log n) rounds): one level of random buckets of
  ~C log n nodes; the max-ID node of each bucket gathers the
  O(log log n)-bit labels, samples a uniform permutation of its bucket and
  ships it — Θ(log n · log log n) bits, i.e. O(log log n) rounds.
* **Algorithm 5** (O(1) rounds): a second, finer bucketing splits each
  bucket into ~log n/log log n-sized sub-buckets whose permutations fit in
  *one* message; sub-buckets that fail the AC-preservation test
  (Definition 4.6) fall into a leftover set R, permuted via Many-to-All
  broadcast of random priorities (Claim 3.11).

Both take every clique at once: S of all cliques, with a group array
naming each node's clique.  Algorithm 4 runs as one array pass.  A node's
bucket and its priority inside the bucket are counter-mode expansions of
its own key (:mod:`repro.hashing.prg`), so no generator is built per
clique or bucket.  ρ orders each bucket by priority, ties by ID; one
lexsort by (clique, bucket, priority, ID) lays the buckets out, and a
node's place in its clique's run is π(v).  Relabel runs once for every
bucket of every clique.  Algorithm 5 keeps its per-clique body, one
clique at a time, with one Relabel call for all of a clique's buckets.

Output: π, a bijection S_q → [|S_q|] in every clique q; node v tries the
π(v)-th color of its clique palette (§3.2).  Lemma 4.4/4.5 say π is
within 1/poly(n) of uniform — the test suite checks bijectivity exactly
and uniformity statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import ColoringConfig
from repro.core.relabel import relabel
from repro.hashing.prg import derive_seeds_batch, expand_indices_batch
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_count, bits_for_id, bits_for_int

__all__ = ["PermutationResult", "permute_loglog", "permute_constant", "sample_permutation"]


@dataclass
class PermutationResult:
    """Permute over Q cliques: π per node of S, the rest per clique.  A
    clique with an empty S has 0 rounds and 0 buckets."""

    group: np.ndarray  # (S,) clique of each node of S
    pi: np.ndarray  # (S,) position of each node within its clique's S
    rounds: np.ndarray  # (Q,)
    relabel_failures: np.ndarray  # (Q,)
    buckets: np.ndarray  # (Q,)
    leftover: np.ndarray  # (Q,) |R| (Algorithm 5 only)

    def validate(self) -> bool:
        """π is a bijection onto [|S_q|] in every clique q."""
        order = np.lexsort((self.pi, self.group))
        sizes = np.bincount(self.group, minlength=self.rounds.size)
        start = (np.cumsum(sizes) - sizes)[self.group[order]]
        return bool(np.array_equal(self.pi[order], np.arange(self.pi.size) - start))


def _bucket_count(net: BroadcastNetwork, cfg: ColoringConfig, size: int) -> int:
    """k = ⌊Δ/(C log n)⌋ rough buckets (Lemma 4.1), clamped to the set."""
    k = int(net.delta // max(cfg.log_threshold(net.n), 1.0))
    return int(np.clip(k, 1, max(size, 1)))


def _many_to_all_rounds(
    net: BroadcastNetwork,
    cfg: ColoringConfig,
    num_messages: int,
    bits: int,
    phase: str,
    account: bool = True,
) -> int:
    """Claim 3.11: O(Δ/log n) messages disseminate clique-wide in O(1)
    rounds (everyone re-broadcasts a random received message).  More
    messages cost proportionally more rounds."""
    if num_messages <= 0:
        return 0
    capacity = max(1, int(net.delta // max(cfg.log_threshold(net.n), 1.0)))
    rounds = 2 * int(np.ceil(num_messages / capacity))  # send + relay per wave
    if account:
        net.account_vector_round(
            min(num_messages, capacity), bits, phase=phase, rounds=rounds
        )
    return rounds


def _loglog_draws(
    seq: SeedSequencer, phase: str, subset: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 4's node-private draws: node ``subset[i]``'s bucket in
    [``k[i]``] and its priority inside the bucket, each from one
    per-call base and the node's ID."""
    base = seq.derive_seed("permute4", phase)
    bucket = expand_indices_batch(derive_seeds_batch(subset, base), 1, k)[:, 0]
    return bucket, derive_seeds_batch(subset, seq.derive_seed("rho", phase))


def permute_loglog(
    net: BroadcastNetwork,
    cliques: Sequence[np.ndarray],
    subset: np.ndarray,
    group: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/permute4",
    account: bool = True,
) -> PermutationResult:
    """Algorithm 4 in every clique at once: the O(log log n)-round
    permutation of S_q ⊆ K_q, where ``subset[i]`` belongs to S of clique
    ``group[i]`` (an index into ``cliques``, the member arrays).

    Rounds per clique: 2 (counting) + the most Relabel rounds of its
    buckets + the most leader rounds, where a bucket's leader ships b
    labels of ``label_bits`` each under the bandwidth.  With ``account``,
    the cliques' shared rounds are charged once, each the widest clique's.
    """
    subset = np.asarray(subset, dtype=np.int64)
    group = np.asarray(group, dtype=np.int64)
    num = len(cliques)
    size = np.array([len(m) for m in cliques], dtype=np.int64)
    s_size = np.bincount(group, minlength=num)
    live = s_size > 0
    k = np.array([_bucket_count(net, cfg, int(c)) for c in size], dtype=np.int64)

    # Step 1 — v's bucket, numbered clique after clique, and its
    # priority; then ρ of every bucket and the offsets Σ_{j<i}|S_j| in
    # one sort.
    bucket, prio = _loglog_draws(seq, phase, subset, k[group])
    bucket += (np.cumsum(k) - k)[group]
    order = np.lexsort((subset, prio, bucket))
    start = np.cumsum(s_size) - s_size
    pi = np.empty(subset.size, dtype=np.int64)
    pi[order] = np.arange(subset.size) - start[group[order]]

    # Step 3 — Relabel, all buckets in parallel (each node broadcasts once).
    rr = relabel(net, subset, bucket, cfg, seq, phase=phase, account=False)
    bucket_clique = np.repeat(np.arange(num), k)[: rr.rounds.size]

    # Step 4 — the max-ID node of each bucket gathers the new labels,
    # samples ρ_i and broadcasts it: Θ(log n) labels of Θ(log log n) bits,
    # paced by the bandwidth — the O(log log n) of the name.  An empty
    # bucket ships nothing.
    payload = np.bincount(bucket, minlength=rr.rounds.size) * rr.label_bits
    leader = -(-payload // (net.bandwidth_bits or np.maximum(payload, 1)))
    relabel_rounds = np.zeros(num, dtype=np.int64)
    leader_rounds = np.zeros(num, dtype=np.int64)
    np.maximum.at(relabel_rounds, bucket_clique, rr.rounds)
    np.maximum.at(leader_rounds, bucket_clique, leader)

    # Step 2 — counting buckets, aggregated and disseminated along a
    # depth-2 BFS (2 rounds); then the Relabel and leader rounds.
    if account and live.any():
        cnt_bits = bits_for_count(int(size[live].max()))
        wide = net.bandwidth_bits or 64
        net.account_vector_round(int(size[live].sum()), cnt_bits, phase=phase)
        net.account_vector_round(int(k[live].sum()), cnt_bits, phase=phase)
        net.account_vector_round(
            subset.size, wide, phase=phase, rounds=int(relabel_rounds.max())
        )
        net.account_vector_round(
            int(k[live].sum()), wide, phase=phase, rounds=int(leader_rounds.max())
        )

    return PermutationResult(
        group=group,
        pi=pi,
        rounds=np.where(live, 2 + relabel_rounds + leader_rounds, 0),
        relabel_failures=np.bincount(bucket_clique[~rr.succeeded], minlength=num),
        buckets=np.where(live, k, 0),
        leftover=np.zeros(num, dtype=np.int64),
    )


def permute_constant(
    net: BroadcastNetwork,
    cliques: Sequence[np.ndarray],
    subset: np.ndarray,
    group: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/permute5",
    tags: Sequence[object] | None = None,
    account: bool = True,
) -> PermutationResult:
    """Algorithm 5, clique by clique, on the same arguments as
    :func:`permute_loglog`.  Clique q draws from streams keyed by
    ``tags[q]`` (q by default); with ``account`` every clique charges its
    own rounds."""
    subset = np.asarray(subset, dtype=np.int64)
    group = np.asarray(group, dtype=np.int64)
    num = len(cliques)
    tags = range(num) if tags is None else tags
    pi = np.empty(subset.size, dtype=np.int64)
    per_clique = np.zeros((4, num), dtype=np.int64)
    for q, (members, tag) in enumerate(zip(cliques, tags)):
        mine = np.flatnonzero(group == q)
        if mine.size:
            out = _permute_constant_clique(
                net, members, subset[mine], cfg, seq, phase, tag, account
            )
            pi[mine] = out[0]
            per_clique[:, q] = out[1:]
    rounds, failures, buckets, leftover = per_clique
    return PermutationResult(
        group=group,
        pi=pi,
        rounds=rounds,
        relabel_failures=failures,
        buckets=buckets,
        leftover=leftover,
    )


def _permute_constant_clique(
    net: BroadcastNetwork,
    clique_members: np.ndarray,
    subset: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str,
    tag: object,
    account: bool,
) -> tuple[np.ndarray, int, int, int, int]:
    """Algorithm 5 on one nonempty ``subset`` ⊆ K.  Returns (π, rounds,
    Relabel failures, buckets, |R|)."""
    members = np.asarray(clique_members, dtype=np.int64)
    s = subset.size

    rng = seq.stream("permute5", phase, tag)
    eps2 = cfg.permute_ac_eps  # ε'' of Algorithm 5 (paper: 1/12)
    k = _bucket_count(net, cfg, members.size)
    k_fine = max(1, int(np.ceil(cfg.c_log * np.log2(max(np.log2(max(net.n, 4)), 2.0)))))

    # Step 1 — rough bucketing of all of K.
    t_members = rng.integers(0, k, size=members.size)
    # Step 2 — counting |T_i|, |S_i|: 2 rounds.
    cnt_bits = bits_for_count(members.size)
    if account:
        net.account_vector_round(members.size, 2 * cnt_bits, phase=phase)
        net.account_vector_round(k, 2 * cnt_bits, phase=phase)
    rounds = 2

    member_bucket = {int(v): int(b) for v, b in zip(members, t_members)}
    t_buckets: list[list[int]] = [[] for _ in range(k)]  # T_i over K
    for v in members:
        t_buckets[member_bucket[int(v)]].append(int(v))
    s_buckets: list[list[int]] = [[] for _ in range(k)]  # S_i = T_i ∩ S
    for v in subset:
        s_buckets[member_bucket[int(v)]].append(int(v))

    # Step 3 — Relabel (parallel across buckets): 2 shared rounds.
    rr = relabel(
        net,
        subset,
        np.array([member_bucket[int(v)] for v in subset], dtype=np.int64),
        cfg,
        seq,
        phase=phase,
        account=False,
    )
    relabel_failures = int((~rr.succeeded).sum())
    if account:
        net.account_vector_round(s, net.bandwidth_bits or 64, phase=phase, rounds=2)
    rounds += 2

    pi = np.empty(s, dtype=np.int64)
    pos = {int(v): idx for idx, v in enumerate(subset)}
    leftover_entries: list[tuple[int, int, int]] = []  # (i, i', v)
    # Steps 4a–4c per rough bucket.
    fine_assign: dict[int, int] = {}
    local_perm: dict[tuple[int, int], list[int]] = {}
    preserved_flags: dict[tuple[int, int], bool] = {}
    for i in range(k):
        t_i = t_buckets[i]
        s_i = s_buckets[i]
        if not s_i:
            continue
        sub_rng = seq.stream("fine", phase, tag, i)
        tprime = sub_rng.integers(0, k_fine, size=len(t_i))
        for v, b in zip(t_i, tprime):
            fine_assign[v] = int(b)
        # AC-preservation check (Definition 4.6) per fine bucket: every
        # v ∈ T_i must see ≈ |N(v)∩T_i|/k' neighbors in T_{i,i'}.
        t_i_mask = np.zeros(net.n, dtype=bool)
        t_i_mask[np.asarray(t_i, dtype=np.int64)] = True
        for i2 in range(k_fine):
            fine_nodes = [v for v in t_i if fine_assign[v] == i2]
            s_fine = [v for v in s_i if fine_assign[v] == i2]
            if not s_fine:
                continue
            fine_mask = np.zeros(net.n, dtype=bool)
            fine_mask[np.asarray(fine_nodes, dtype=np.int64)] = True
            preserved = True
            for v in t_i:
                nb = net.neighbors(v)
                in_ti = int(t_i_mask[nb].sum())
                in_fine = int(fine_mask[nb].sum())
                target = in_ti / k_fine
                if not (1 - eps2) * target <= in_fine <= (1 + eps2) * target:
                    preserved = False
                    break
            preserved_flags[(i, i2)] = preserved
            if preserved:
                rho = seq.stream("rho5", phase, tag, i, i2).permutation(len(s_fine))
                local_perm[(i, i2)] = [int(p) for p in rho]
            else:
                for v in s_fine:
                    leftover_entries.append((i, i2, v))
    # Step 4b/4c accounting: fine counts + the one-message permutations.
    if account:
        net.account_vector_round(members.size, bits_for_int(max(k_fine, 2)), phase=phase)
        net.account_vector_round(
            len(local_perm), net.bandwidth_bits or 64, phase=phase
        )
    rounds += 2

    # Step 5 — leftover R: (ID, t, t', r) tuples via Many-to-All broadcast,
    # then in-bucket ordering by the random priorities r.
    r_bits = max(16, (net.bandwidth_bits or 64) // 2)
    tuple_bits = (
        bits_for_id(net.n)
        + bits_for_int(max(k, 2))
        + bits_for_int(max(k_fine, 2))
        + r_bits
    )
    rounds += _many_to_all_rounds(
        net,
        cfg,
        len(leftover_entries),
        min(tuple_bits, net.bandwidth_bits or tuple_bits),
        phase,
        account=account,
    )
    leftover_rank: dict[tuple[int, int], list[int]] = {}
    prio_rng = seq.stream("prio", phase, tag)
    prio = {v: int(prio_rng.integers(0, 1 << 62)) for (_, _, v) in leftover_entries}
    for (i, i2, v) in leftover_entries:
        leftover_rank.setdefault((i, i2), []).append(v)
    for key, vs in leftover_rank.items():
        vs.sort(key=lambda v: (prio[v], v))
        local_perm[key] = list(range(len(vs)))

    # Step 6 — output: global offset = Σ_{j<i}|S_j| + Σ_{j'<i'}|S_{i,j'}|.
    offset = 0
    for i in range(k):
        s_i = s_buckets[i]
        if not s_i:
            continue
        fine_groups: list[list[int]] = [[] for _ in range(k_fine)]
        for v in s_i:
            fine_groups[fine_assign[v]].append(v)
        inner_offset = 0
        for i2 in range(k_fine):
            group = fine_groups[i2]
            if not group:
                continue
            key = (i, i2)
            if key in leftover_rank:
                ordered = leftover_rank[key]
                for rank, v in enumerate(ordered):
                    pi[pos[v]] = offset + inner_offset + rank
            else:
                rho = local_perm[key]
                for local_idx, v in enumerate(group):
                    pi[pos[v]] = offset + inner_offset + rho[local_idx]
            inner_offset += len(group)
        offset += len(s_i)

    return pi, rounds, relabel_failures, k, len(leftover_entries)


def sample_permutation(
    net: BroadcastNetwork,
    cliques: Sequence[np.ndarray],
    subset: np.ndarray,
    group: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/permute",
    tags: Sequence[object] | None = None,
    account: bool = True,
) -> PermutationResult:
    """Dispatch on ``cfg.permute_constant_round`` (Algorithm 5 vs 4).
    ``tags`` keys Algorithm 5's per-clique streams; Algorithm 4 draws
    every value from node keys."""
    if cfg.permute_constant_round:
        return permute_constant(
            net, cliques, subset, group, cfg, seq, phase=phase, tags=tags, account=account
        )
    return permute_loglog(net, cliques, subset, group, cfg, seq, phase=phase, account=account)
