"""Luby-style random-priority coloring — the second classic O(log n)
broadcast baseline [Lub86, ABI86].

Per round every uncolored node draws a random priority and broadcasts it;
local maxima among uncolored neighbors pick the smallest free color and
broadcast the choice.  Priorities are O(log n)-bit numbers, colors
O(log Δ) bits — BCONGEST-compliant.  An independent set of local maxima is
colored per round, so the algorithm finishes in O(log n) rounds w.h.p.,
with the greedy's color economy (it often uses far fewer than Δ+1 colors).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.johansson import BaselineResult
from repro.core.state import ColoringState
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color, bits_for_id

__all__ = ["luby_coloring"]


def luby_coloring(
    graph,
    seed: int = 0,
    max_rounds: int = 100_000,
    bandwidth_bits: int | None = None,
) -> BaselineResult:
    metrics = RoundMetrics()
    net = (
        graph
        if isinstance(graph, BroadcastNetwork)
        else BroadcastNetwork(graph, bandwidth_bits=bandwidth_bits, metrics=metrics)
    )
    if net.metrics is not metrics:
        metrics = net.metrics
    metrics.begin_phase("luby")
    state = ColoringState(net)
    seq = SeedSequencer(seed)
    rounds = 0
    while state.num_uncolored() and rounds < max_rounds:
        pending_mask = state.colors < 0
        pending = np.flatnonzero(pending_mask)
        rng = seq.stream("luby", rounds)
        prio = np.full(state.n, -1.0)
        prio[pending] = rng.random(pending.size)
        # Local maxima among uncolored neighbors win (ties by id).
        src, dst = net.edge_src, net.indices
        beaten = np.zeros(state.n, dtype=bool)
        rel = pending_mask[src] & pending_mask[dst]
        worse = rel & (
            (prio[dst] > prio[src]) | ((prio[dst] == prio[src]) & (dst < src))
        )
        np.logical_or.at(beaten, src[worse], True)
        winners = pending[~beaten[pending]]
        nodes, cols = [], []
        for v in winners:
            v = int(v)
            used = set(int(c) for c in state.colors[net.neighbors(v)] if c >= 0)
            c = 0
            while c in used:
                c += 1
            if c < state.num_colors:
                nodes.append(v)
                cols.append(c)
        if nodes:
            state.adopt(np.asarray(nodes), np.asarray(cols))
        # Two broadcasts: priority, then the chosen color.
        net.account_vector_round(int(pending.size), bits_for_id(net.n), phase="luby")
        net.account_vector_round(len(nodes), bits_for_color(state.delta), phase="luby")
        rounds += 1
    state.verify()
    return BaselineResult(
        colors=state.colors.copy(),
        rounds=rounds,
        proper=True,  # state.verify() above raised on any conflict
        complete=state.is_complete(),
        max_message_bits=metrics.max_message_bits,
        total_bits=metrics.total_bits,
    )
