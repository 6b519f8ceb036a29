"""Relabel (Algorithm 3): O(log log n)-bit labels unique within a set.

Permutations of poly(log n)-sized node sets must fit into O(log n)-bit
messages; with Θ(log n)-bit node IDs they do not.  Relabel fixes this:
every node of S samples x = ⌈C log n / log log n⌉ candidate labels from
[|S|²·log n] (each label costs O(log log n) bits when |S| = poly log n),
collisions per candidate index j are detected by common neighbors (S sits
inside a 2-hop-connected set), and the smallest collision-free index wins.

Lemma 4.3: success w.h.p. in O(1) rounds.  On the (measurable) failure
event the implementation falls back to rank-by-ID labels and flags it.

Permute runs Relabel in many disjoint buckets in parallel, so one call
takes every set at once, named by a group array.  A node's candidates
are the counter-mode expansion of its own key (:mod:`repro.hashing.prg`),
so they do not depend on which other sets share the call.  One lexsort
by (index, set, value) and an adjacent compare find every colliding
(index, set) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ColoringConfig
from repro.hashing.prg import derive_seeds_batch, expand_indices_batch
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_ints

__all__ = ["RelabelResult", "relabel"]


@dataclass
class RelabelResult:
    """Relabel over G disjoint sets: a label per node, the rest per set.
    An empty set succeeds in 0 rounds with universe 1."""

    labels: np.ndarray  # (S,) new labels, unique within each set
    label_universe: np.ndarray  # (G,) set g's labels live in [label_universe[g]]
    chosen_index: np.ndarray  # (G,) winning candidate index j, −1 on fallback
    rounds: np.ndarray  # (G,)

    @property
    def succeeded(self) -> np.ndarray:
        """(G,) bool: False = the set fell back to rank labels."""
        return self.chosen_index >= 0

    @property
    def label_bits(self) -> np.ndarray:
        return bits_for_ints(self.label_universe)


def relabel(
    net: BroadcastNetwork,
    nodes: np.ndarray,
    group: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/relabel",
    account: bool = True,
) -> RelabelResult:
    """Run Algorithm 3 on every set ``{nodes[i] : group[i] == g}`` at once
    (disjoint sets, each inside a 2-hop-connected T).

    Node v's x candidates come from ``seq.derive_seed("relabel", phase)``
    and v.  Rounds per set: one batch for the x candidate labels, one for
    the collision bitmaps, each split into rounds that fit the cap.  With
    ``account``, the sets' shared rounds are charged once: every node
    broadcasts in each, and the message is the widest set's.  Algorithms
    4 and 5 pass ``account=False`` and charge their own rounds.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    group = np.asarray(group, dtype=np.int64)
    n = net.n
    num_sets = int(group.max()) + 1 if group.size else 0
    sizes = np.bincount(group, minlength=num_sets)

    # x = ⌈C log n / log log n⌉ candidate indices from [|S|²·log n].
    loglog = max(np.log2(max(np.log2(max(n, 4)), 2.0)), 1.0)
    x = max(1, int(np.ceil(cfg.log_threshold(n) / loglog)))
    universe = np.maximum(
        2, (sizes * sizes * max(np.log2(max(n, 2)), 1.0)).astype(np.int64)
    )
    seeds = derive_seeds_batch(nodes, seq.derive_seed("relabel", phase))
    candidates = expand_indices_batch(seeds, x, universe[group])

    # Index j collides in set g when two of g's nodes share a value in
    # column j: sort every (j, g, value) and compare neighbors.
    col = np.repeat(np.arange(x, dtype=np.int64), nodes.size)
    grp = np.tile(group, x)
    val = candidates.T.ravel()
    order = np.lexsort((val, grp, col))
    col, grp, val = col[order], grp[order], val[order]
    same = (col[1:] == col[:-1]) & (grp[1:] == grp[:-1]) & (val[1:] == val[:-1])
    clean = np.ones((num_sets, x), dtype=bool)
    clean[grp[1:][same], col[1:][same]] = False
    chosen = np.where(clean.any(axis=1), clean.argmax(axis=1), -1)

    # Rounds: step 1 broadcasts x labels of bits_for_int(universe) bits
    # each, a label wider than the cap in ⌈label_bits / cap⌉ rounds; step 2
    # an x-bit collision map in ⌈x / cap⌉ rounds (detection by common
    # neighbors — S is 2-hop connected, so every colliding pair is seen).
    label_bits = bits_for_ints(universe)
    cap = net.bandwidth_bits or x * label_bits
    per_round = np.maximum(1, cap // label_bits)
    step1 = -(-x // per_round) * -(-label_bits // cap)
    map_bits = min(x, net.bandwidth_bits or x)
    step2 = -(-x // map_bits)
    live = sizes > 0
    rounds = np.where(live, step1 + step2, 0)
    if account and live.any():
        net.account_vector_round(
            nodes.size,
            int(np.minimum(np.minimum(x, per_round) * label_bits, cap)[live].max()),
            phase=phase,
            rounds=int(step1[live].max()),
        )
        net.account_vector_round(nodes.size, map_bits, phase=phase, rounds=step2)

    # Fallback (measurably rare, per Lemma 4.3): rank within sorted IDs.
    by_id = np.lexsort((nodes, group))
    rank = np.empty(nodes.size, dtype=np.int64)
    rank[by_id] = np.arange(nodes.size) - (np.cumsum(sizes) - sizes)[group[by_id]]
    mine = chosen[group]
    labels = np.where(
        mine >= 0, candidates[np.arange(nodes.size), np.maximum(mine, 0)], rank
    )
    return RelabelResult(
        labels=labels,
        label_universe=np.where(
            live, np.where(chosen >= 0, universe, np.maximum(sizes, 2)), 1
        ),
        chosen_index=chosen,
        rounds=rounds,
    )
