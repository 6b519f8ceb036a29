"""Colorful matching (Definition 2.6, Lemma 2.9, Appendix A).

An almost-clique can hold more than Δ+1 nodes, so its clique palette
Ψ(K) = [Δ+1] \\ C(K) could run empty before every member is colored.  The
fix [ACK19]: color pairs of *anti-edges* (non-adjacent pairs inside K)
with the *same* color — contracting such a pair shrinks the clique while
keeping the coloring proper, and Claim 2.8 turns a matching of size
Θ(a_K) into a clique-palette surplus.

Protocol (the [FGH+23] style, O(β) rounds): per round, every uncolored
member of a participating clique flips a coin and broadcasts a uniform
color from [Δ+1]\\[x(K)].  If two *non-adjacent* members of K picked the
same color c, c is unused in K and by both nodes' outside neighbors, the
(lexicographically first such) pair adopts c and the anti-edge joins the
matching.  Cross-clique simultaneous collisions are resolved by clique id.
Stops once every participating clique reached its β·a_K target (or the
O(β) round budget is spent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ColoringConfig
from repro.core.cliques import CliqueInfo
from repro.core.state import ColoringState
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

__all__ = ["MatchingReport", "ROUND_FACTOR", "colorful_matching"]

ROUND_FACTOR = 6.0
"""The matching loop runs at most ``ceil(ROUND_FACTOR·β)`` rounds — the
O(β) bound of Lemma 2.9."""


@dataclass
class MatchingReport:
    targets: dict[int, int] = field(default_factory=dict)  # clique -> β·a_K
    sizes: dict[int, int] = field(default_factory=dict)  # clique -> matched pairs
    colored_nodes: int = 0
    rounds: int = 0

    def size_of(self, c: int) -> int:
        return self.sizes.get(c, 0)

    def reached_target(self, c: int) -> bool:
        return self.size_of(c) >= self.targets.get(c, 0)

    def as_dict(self) -> dict:
        return {
            "cliques": len(self.targets),
            "total_pairs": sum(self.sizes.values()),
            "colored_nodes": self.colored_nodes,
            "rounds": self.rounds,
            "all_reached": all(self.reached_target(c) for c in self.targets),
        }


def _eligible_cliques(info: CliqueInfo, cfg: ColoringConfig, n: int) -> list[int]:
    """Cliques with a_K ≥ C log n run the matching (§3.4)."""
    thr = cfg.log_threshold(n)
    return [c for c in range(info.num_cliques) if info.a_k[c] >= thr]


def colorful_matching(
    state: ColoringState,
    info: CliqueInfo,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "matching",
) -> MatchingReport:
    """Compute a colorful matching of target size ⌈β·a_K⌉ in every clique
    with a_K ≥ C log n.  Colors only come from [Δ+1]\\[x(K)]."""
    net = state.net
    report = MatchingReport()
    cliques = _eligible_cliques(info, cfg, net.n)
    if not cliques:
        return report
    for c in cliques:
        report.targets[c] = int(np.ceil(cfg.beta * info.a_k[c]))
        report.sizes[c] = 0

    max_rounds = max(1, int(np.ceil(ROUND_FACTOR * cfg.beta)))
    matched_colors: dict[int, set[int]] = {c: set() for c in cliques}

    for rnd in range(max_rounds):
        pending = [c for c in cliques if report.sizes[c] < report.targets[c]]
        if not pending:
            break
        report.rounds += 1
        rng = seq.stream("matching", rnd)

        # 1. Every uncolored member of a pending clique samples a color.
        proposals: dict[int, dict[int, list[int]]] = {}
        participants = 0
        for c in pending:
            members = info.members(c)
            unc = members[state.colors[members] < 0]
            if unc.size < 2:
                continue
            x_k = int(info.x_k[c])
            width = state.num_colors - x_k
            if width <= 0:
                continue
            cols = x_k + rng.integers(0, width, size=unc.size)
            participants += int(unc.size)
            by_color: dict[int, list[int]] = {}
            for v, col in zip(unc, cols):
                by_color.setdefault(int(col), []).append(int(v))
            proposals[c] = by_color

        # 2. Per clique, pick at most one valid anti-edge pair per color.
        candidate_pairs: list[tuple[int, int, int, int]] = []  # (clique, u, w, color)
        for c, by_color in proposals.items():
            used_in_k = set(
                int(x)
                for x in state.colors[info.members(c)]
                if x >= 0
            )
            for col, nodes in by_color.items():
                if len(nodes) < 2 or col in used_in_k or col in matched_colors[c]:
                    continue
                nodes.sort()
                pair = None
                for i in range(len(nodes)):
                    for j in range(i + 1, len(nodes)):
                        u, w = nodes[i], nodes[j]
                        if not net.has_edge(u, w):
                            pair = (u, w)
                            break
                    if pair:
                        break
                if pair is None:
                    continue
                u, w = pair
                # Outside-neighbor conflicts with already-colored nodes.
                if col in state.neighbor_color_set(u) or col in state.neighbor_color_set(w):
                    continue
                candidate_pairs.append((c, u, w, col))

        # 3. Cross-clique simultaneous conflicts: an edge between two
        #    adopting nodes of different cliques with the same color — the
        #    smaller clique id wins (candidate_pairs is sorted by clique).
        node_color: dict[int, int] = {}
        for c, u, w, col in sorted(candidate_pairs):
            conflict = False
            for v in (u, w):
                for nb in net.neighbors(v):
                    nb = int(nb)
                    if node_color.get(nb) == col:
                        conflict = True
                        break
                if conflict:
                    break
            if conflict:
                continue
            node_color[u] = col
            node_color[w] = col
            report.sizes[c] += 1
            matched_colors[c].add(col)

        if node_color:
            nodes = np.array(sorted(node_color), dtype=np.int64)
            cols = np.array([node_color[v] for v in nodes], dtype=np.int64)
            state.adopt(nodes, cols)
            report.colored_nodes += int(nodes.size)

        # Bits: one color broadcast per participant + one adopt/confirm.
        net.account_vector_round(participants, bits_for_color(state.delta), phase=phase)
        net.account_vector_round(
            len(node_color), bits_for_color(state.delta), phase=phase
        )

    return report
