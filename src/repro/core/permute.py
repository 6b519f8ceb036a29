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

Output: π, a bijection S → [|S|]; node v tries the π(v)-th color of the
clique palette (§3.2).  Lemma 4.4/4.5 say π is within 1/poly(n) of
uniform — the test suite checks bijectivity exactly and uniformity
statistically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ColoringConfig
from repro.core.relabel import relabel
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_count, bits_for_id, bits_for_int

__all__ = ["PermutationResult", "permute_loglog", "permute_constant", "sample_permutation"]


@dataclass
class PermutationResult:
    nodes: np.ndarray  # S, the permuted set
    pi: np.ndarray  # pi[i] = position of nodes[i]; a bijection onto [|S|]
    rounds: int
    leftover: int = 0  # |R| (Algorithm 5 only)
    relabel_failures: int = 0
    buckets: int = 0

    def validate(self) -> bool:
        return (
            np.sort(self.pi).tolist() == list(range(self.nodes.size))
            if self.nodes.size
            else True
        )


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
    waves = int(np.ceil(num_messages / capacity))
    rounds = 2 * waves  # send + relay per wave
    if account:
        for _ in range(waves):
            net.account_vector_round(min(num_messages, capacity), bits, phase=phase)
            net.account_vector_round(min(num_messages, capacity), bits, phase=phase)
    return rounds


def permute_loglog(
    net: BroadcastNetwork,
    clique_members: np.ndarray,
    subset: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/permute4",
    tag: object = 0,
    account: bool = True,
) -> PermutationResult:
    """Algorithm 4: the O(log log n)-round permutation of ``subset`` ⊆ K."""
    members = np.asarray(clique_members, dtype=np.int64)
    subset = np.asarray(subset, dtype=np.int64)
    s = subset.size
    if s == 0:
        return PermutationResult(nodes=subset, pi=np.empty(0, dtype=np.int64), rounds=0)

    rng = seq.stream("permute4", phase, tag)
    k = _bucket_count(net, cfg, members.size)
    t_members = rng.integers(0, k, size=members.size)
    member_bucket = {int(v): int(b) for v, b in zip(members, t_members)}
    buckets: list[list[int]] = [[] for _ in range(k)]
    for v in subset:
        buckets[member_bucket[int(v)]].append(int(v))

    # Step 2 — counting buckets: aggregate + disseminate along depth-2 BFS.
    cnt_bits = bits_for_count(members.size)
    if account:
        net.account_vector_round(members.size, cnt_bits, phase=phase)
        net.account_vector_round(k, cnt_bits, phase=phase)
    rounds = 2

    # Step 3 — Relabel, all buckets in parallel (each node broadcasts once).
    relabel_results = []
    relabel_failures = 0
    max_relabel_rounds = 0
    for i, bucket in enumerate(buckets):
        rr = relabel(
            net,
            np.asarray(bucket, dtype=np.int64),
            cfg,
            seq.spawn("relabel", phase, tag, i),
            phase=phase,
            account=False,
        )
        relabel_results.append(rr)
        relabel_failures += 0 if rr.succeeded else 1
        max_relabel_rounds = max(max_relabel_rounds, rr.rounds)
    if account:
        for _ in range(max_relabel_rounds):
            net.account_vector_round(s, net.bandwidth_bits or 64, phase=phase)
    rounds += max_relabel_rounds

    # Step 4 — the max-ID node of each bucket gathers the new labels,
    # samples ρ_i and broadcasts it: Θ(log n) labels of Θ(log log n) bits,
    # paced by the bandwidth — the O(log log n) of the name.
    pi = np.empty(s, dtype=np.int64)
    pos = {int(v): idx for idx, v in enumerate(subset)}
    offset = 0
    max_leader_rounds = 0
    for i, bucket in enumerate(buckets):
        b = len(bucket)
        if b == 0:
            continue
        rr = relabel_results[i]
        rho = seq.stream("rho", phase, tag, i).permutation(b)
        for local_idx, v in enumerate(bucket):
            pi[pos[v]] = offset + int(rho[local_idx])
        label_bits = rr.label_bits if rr.nodes.size else 1
        payload = b * max(label_bits, 1)
        budget = net.bandwidth_bits or payload
        max_leader_rounds = max(max_leader_rounds, int(np.ceil(payload / budget)))
        offset += b
    if account:
        for _ in range(max_leader_rounds):
            net.account_vector_round(k, net.bandwidth_bits or 64, phase=phase)
    rounds += max_leader_rounds

    return PermutationResult(
        nodes=subset,
        pi=pi,
        rounds=rounds,
        relabel_failures=relabel_failures,
        buckets=k,
    )


def permute_constant(
    net: BroadcastNetwork,
    clique_members: np.ndarray,
    subset: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/permute5",
    tag: object = 0,
    account: bool = True,
) -> PermutationResult:
    """Algorithm 5: the O(1)-round permutation of ``subset`` ⊆ K."""
    members = np.asarray(clique_members, dtype=np.int64)
    subset = np.asarray(subset, dtype=np.int64)
    s = subset.size
    if s == 0:
        return PermutationResult(nodes=subset, pi=np.empty(0, dtype=np.int64), rounds=0)

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
    relabel_failures = 0
    for i in range(k):
        rr = relabel(
            net,
            np.asarray(s_buckets[i], dtype=np.int64),
            cfg,
            seq.spawn("relabel", phase, tag, i),
            phase=phase,
            account=False,
        )
        relabel_failures += 0 if rr.succeeded else 1
    if account:
        net.account_vector_round(s, net.bandwidth_bits or 64, phase=phase)
        net.account_vector_round(s, net.bandwidth_bits or 64, phase=phase)
    rounds += 2

    in_member = np.zeros(net.n, dtype=bool)
    in_member[members] = True

    pi = np.empty(s, dtype=np.int64)
    pos = {int(v): idx for idx, v in enumerate(subset)}
    leftover_entries: list[tuple[int, int, int]] = []  # (i, i', v)
    offset = 0
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

    return PermutationResult(
        nodes=subset,
        pi=pi,
        rounds=rounds,
        leftover=len(leftover_entries),
        relabel_failures=relabel_failures,
        buckets=k,
    )


def sample_permutation(
    net: BroadcastNetwork,
    clique_members: np.ndarray,
    subset: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/permute",
    tag: object = 0,
    account: bool = True,
) -> PermutationResult:
    """Dispatch on ``cfg.permute_constant_round`` (Algorithm 5 vs 4)."""
    fn = permute_constant if cfg.permute_constant_round else permute_loglog
    return fn(net, clique_members, subset, cfg, seq, phase=phase, tag=tag, account=account)
