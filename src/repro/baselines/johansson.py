"""Johansson's folklore randomized coloring [Joh99] — the O(log n)-round
BCONGEST baseline the paper improves on.

Per round, every uncolored node broadcasts a uniform color from its
current palette and keeps it if no neighbor announced the same color
(ID-priority tie-break).  Each node survives a round with constant
probability, so the uncolored set decays geometrically: Θ(log n) rounds
w.h.p.  One color broadcast per node per round — BCONGEST-compliant, which
is exactly why this 25-year-old bound was still the state of the art for
broadcast-only coloring before the paper (§1: "the best such
broadcast-based algorithm required O(log n) rounds").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import ColoringState
from repro.core.trycolor import palette_sampler, try_color_round
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer

__all__ = ["BaselineResult", "johansson_coloring"]


@dataclass
class BaselineResult:
    colors: np.ndarray
    rounds: int
    proper: bool
    complete: bool
    max_message_bits: int
    total_bits: int

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "proper": self.proper,
            "complete": self.complete,
            "max_message_bits": self.max_message_bits,
            "total_bits": self.total_bits,
        }


def johansson_coloring(
    graph,
    seed: int = 0,
    max_rounds: int = 100_000,
    bandwidth_bits: int | None = None,
) -> BaselineResult:
    """Run the baseline to completion; returns colors plus round metrics."""
    metrics = RoundMetrics()
    net = (
        graph
        if isinstance(graph, BroadcastNetwork)
        else BroadcastNetwork(graph, bandwidth_bits=bandwidth_bits, metrics=metrics)
    )
    if net.metrics is not metrics:
        metrics = net.metrics
    metrics.begin_phase("johansson")
    state = ColoringState(net)
    seq = SeedSequencer(seed)
    sampler = palette_sampler(state)
    rounds = 0
    while state.num_uncolored() and rounds < max_rounds:
        pending = state.uncolored_nodes()
        try_color_round(state, pending, sampler, seq, phase="johansson", round_tag=rounds)
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
