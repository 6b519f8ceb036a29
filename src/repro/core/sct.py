"""Synchronized Color Trial (§3.2, Lemma 3.5, §4).

The dense-node engine (Challenge 2 of §1.2): inside each almost-clique K,
distribute the colors of the clique palette Ψ(K)\\[x(K)] bijectively to the
uncolored members via a random permutation — no two members can collide,
so a member only fails because of *external* neighbors.  Lemma 3.5: w.h.p.
at most O(e_K + log n) members per clique stay uncolored.

Pipeline per clique (all cliques run in parallel; rounds are charged as
the maximum over cliques, messages as the sum):

1. LearnPalette (Algorithm 2) — everyone learns Ψ(K), O(1) rounds;
2. Permute (Algorithm 4; Algorithm 5 under the paper preset) — a
   near-uniform π of S = K̂\\P_K;
3. node with position p tries the p-th color of Ψ(K)\\[x(K)];
4. global conflict resolution (colored neighbors, smaller-ID ties) and
   adoption;
5. open cliques only: O(1) extra TryColor rounds restricted to
   Ψ(v)\\[x(v)] (proof of Lemma 3.7).

The simulator runs steps 1–3 for every clique at once: one LearnPalette
kernel over all cliques with a nonempty S, one Permute call over all
their S (Algorithm 4 is one array pass; Algorithm 5 loops over cliques
inside it), and one select that reads every proposal off the learned
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ColoringConfig
from repro.core.cliques import CliqueInfo
from repro.core.learn_palette import learn_palette
from repro.core.permute import sample_permutation
from repro.core.state import ColoringState
from repro.core.trycolor import palette_interval_sampler, resolve_proposals, try_color_round
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

__all__ = ["SCTReport", "synchronized_color_trial"]


@dataclass
class SCTReport:
    tried: int = 0
    colored: int = 0
    cliques: int = 0
    permute_rounds_max: int = 0
    learn_palette_incomplete: int = 0
    palette_deficits: int = 0  # cliques where |Ψ(K)\[x]| < |S| (Lemma 3.6 check)
    leftover_by_clique: dict[int, int] = field(default_factory=dict)
    extra_trycolor_rounds: int = 0

    def as_dict(self) -> dict:
        return {
            "tried": self.tried,
            "colored": self.colored,
            "cliques": self.cliques,
            "permute_rounds_max": self.permute_rounds_max,
            "learn_palette_incomplete": self.learn_palette_incomplete,
            "palette_deficits": self.palette_deficits,
            "extra_trycolor_rounds": self.extra_trycolor_rounds,
        }


def synchronized_color_trial(
    state: ColoringState,
    info: CliqueInfo,
    putaside: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct",
) -> SCTReport:
    """Run the SCT in every almost-clique simultaneously.

    S is a clique's uncolored members that are not put aside; cliques
    with an empty S sit out.  Nothing is adopted before the trial
    resolves, so LearnPalette and then Permute run once for all of them.
    Node v proposes the π(v)-th learned-free color ≥ x(K), read off its
    learned row in one vectorized select over every proposing node.
    """
    net = state.net
    report = SCTReport()
    proposals = np.full(state.n, -1, dtype=np.int64)
    labels = info.labels
    aside = np.zeros(state.n, dtype=bool)
    for c, nodes in putaside.items():
        nodes = np.asarray(nodes, dtype=np.int64)
        aside[nodes[labels[nodes] == c]] = True

    def trial_set() -> np.ndarray:
        """S of every clique, by clique and then by ID."""
        s = np.flatnonzero((labels >= 0) & (state.colors < 0) & ~aside)
        return s[np.argsort(labels[s], kind="stable")]

    s_all = trial_set()
    s_size = np.bincount(labels[s_all], minlength=info.num_cliques)
    cliques = np.flatnonzero(s_size).tolist()
    report.cliques = len(cliques)
    members = [info.members(c) for c in cliques]
    knowledge = learn_palette(
        state, members, cfg, seq, phase=f"{phase}/learn-palette", tags=cliques, account=False
    )
    lp_messages = int(knowledge.offsets[-1])
    report.learn_palette_incomplete = int((~knowledge.complete).sum())

    perm = sample_permutation(
        net,
        members,
        s_all,
        np.repeat(np.arange(len(cliques)), s_size[cliques]),
        cfg,
        seq,
        phase=f"{phase}/permute",
        tags=cliques,
        account=False,
    )
    permute_rounds = int(perm.rounds.max(initial=0))

    if cliques:
        # Lemma 3.6 feasibility diagnostic: enough colors above the prefix?
        colors_idx = np.arange(state.num_colors, dtype=np.int64)
        x_k = info.x_k[cliques].astype(np.int64)
        above = colors_idx[None, :] >= x_k[:, None]
        available_true = (knowledge.true_free & above).sum(axis=1)
        report.palette_deficits = int((available_true < s_size[cliques]).sum())

        # Node v with position p tries the p-th learned-free color ≥ x(K).
        pi = perm.pi
        row_of = np.full(state.n, -1, dtype=np.int64)
        row_of[knowledge.members] = np.arange(knowledge.members.size)
        rows = row_of[s_all]
        x_row = np.repeat(x_k, np.diff(knowledge.offsets))[rows]
        learned = knowledge.known_free[rows] & (colors_idx[None, :] >= x_row[:, None])
        sizes = learned.sum(axis=1)
        ok = pi < sizes
        flat = np.flatnonzero(learned)
        first = np.cumsum(sizes) - sizes
        chosen = flat[first[ok] + pi[ok]] - np.flatnonzero(ok) * state.num_colors
        proposals[s_all[ok]] = chosen
        report.tried = int(ok.sum())

    # Charge the parallel LearnPalette round(s) and the max permute rounds.
    if report.cliques:
        net.account_vector_round(
            lp_messages, net.bandwidth_bits or 64, phase=f"{phase}/learn-palette"
        )
        net.account_vector_round(
            lp_messages,
            net.bandwidth_bits or 64,
            phase=f"{phase}/permute",
            rounds=permute_rounds,
        )
    report.permute_rounds_max = permute_rounds

    # The trial itself: one simultaneous proposal round, globally resolved.
    report.colored = resolve_proposals(
        state, proposals, phase=f"{phase}/trial", bits=bits_for_color(state.delta)
    )

    # Leftovers per clique (the Lemma 3.5 / Claim 3.8 measurement).
    left = np.bincount(labels[trial_set()], minlength=info.num_cliques)
    report.leftover_by_clique = dict(enumerate(left.tolist()))

    # Open cliques: extra TryColor rounds from Ψ(v)\[x(v)] (Lemma 3.7).
    open_cliques = info.cliques_of_kind("open")
    if open_cliques:
        open_nodes_mask = np.isin(labels, open_cliques)
        sampler = palette_interval_sampler(state, info.x_node, state.num_colors)
        for r in range(cfg.sct_extra_trycolor_rounds):
            participants = np.flatnonzero(open_nodes_mask & (state.colors < 0))
            if participants.size == 0:
                break
            colored = try_color_round(
                state,
                participants,
                sampler,
                seq,
                phase=f"{phase}/open-trycolor",
                round_tag=r,
            )
            report.colored += colored
            report.extra_trycolor_rounds += 1

    return report
