"""(deg+1)-coloring with broadcasts — the list-coloring extension.

The paper proves (Δ+1); its CONGEST ancestor [HKNT22] proves the harder
*degree+1* variant, where node v must pick its color from ``[d(v)+1]``
(such a coloring always exists: greedy never needs more than one color
per neighbor).  Degree+1 is the natural extension target for the
broadcast setting (the paper's §3 remarks that improvements to
(deg+1)-list-coloring would carry over), so the reproduction ships a
broadcast-only implementation built from the same primitives:

* every list is the interval ``[0, d(v)+1)`` — an interval, so the
  seed-broadcast MultiTrial applies verbatim (neighbors know d(v) after
  one degree-announcement round);
* low-degree nodes are *automatically* slack-rich relative to their own
  palette only when neighbors share colors, so the engine is: MultiTrial
  sweeps with growing budgets, then ID-priority TryColor cleanup
  restricted to ``Ψ(v) ∩ [d(v)+1]``.

Termination is unconditional: in every cleanup round the globally
smallest-ID uncolored node draws from a *non-empty* restricted palette
(``|[d(v)+1]| > #neighbors``) and cannot be displaced, so it colors.
Rounds are accounted like everything else; this is an extension, not a
claimed O(log³ log n) result — the experiment harness reports its
measured rounds next to the (Δ+1) pipeline's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ColoringConfig
from repro.core.multitrial import multitrial
from repro.core.state import ColoringState
from repro.core.trycolor import palette_interval_sampler, try_color_round
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_count

__all__ = ["DegPlusOneResult", "deg_plus_one_coloring"]


@dataclass
class DegPlusOneResult:
    colors: np.ndarray
    proper: bool
    complete: bool
    within_lists: bool  # colors[v] ≤ deg(v) for all v
    rounds: int
    multitrial_iterations: int
    cleanup_rounds: int
    max_message_bits: int

    def as_dict(self) -> dict:
        return {
            "proper": self.proper,
            "complete": self.complete,
            "within_lists": self.within_lists,
            "rounds": self.rounds,
            "multitrial_iterations": self.multitrial_iterations,
            "cleanup_rounds": self.cleanup_rounds,
            "max_message_bits": self.max_message_bits,
        }


def deg_plus_one_coloring(
    graph,
    config: ColoringConfig | None = None,
    max_cleanup_rounds: int = 100_000,
) -> DegPlusOneResult:
    """Color every node v with a color from ``[d(v)+1]``, broadcasts only."""
    cfg = config or ColoringConfig.practical()
    metrics = RoundMetrics()
    net = (
        graph
        if isinstance(graph, BroadcastNetwork)
        else BroadcastNetwork(graph, metrics=metrics)
    )
    if net.metrics is not metrics:
        metrics = net.metrics
    if net.bandwidth_bits is None:
        net.bandwidth_bits = cfg.bandwidth_bits(net.n)
    seq = SeedSequencer(cfg.seed).spawn("deg+1")

    # State over the full [Δ+1] space; per-node lists clamp it down.
    state = ColoringState(net)
    caps = net.degrees.astype(np.int64) + 1  # |list(v)| = d(v)+1

    # Round 0: every node announces its degree, making the interval lists
    # publicly known (Property 1 of Lemma 2.14 for interval lists).
    net.account_vector_round(net.n, bits_for_count(max(net.delta, 1)), phase="deg+1/announce")

    # MultiTrial sweep on the per-node intervals.
    lo = np.zeros(net.n, dtype=np.int64)
    mask = np.ones(net.n, dtype=bool)
    mt = multitrial(state, mask, lo, caps, cfg, seq, phase="deg+1/multitrial")

    # Cleanup: ID-priority TryColor from Ψ(v) ∩ [d(v)+1].
    sampler = palette_interval_sampler(state, lo, caps)
    cleanup = 0
    while state.num_uncolored() and cleanup < max_cleanup_rounds:
        pending = state.uncolored_nodes()
        try_color_round(state, pending, sampler, seq, phase="deg+1/cleanup", round_tag=cleanup)
        cleanup += 1

    state.verify()
    within = bool((state.colors <= net.degrees).all())
    return DegPlusOneResult(
        colors=state.colors.copy(),
        proper=True,  # state.verify() above raised on any conflict
        complete=state.is_complete(),
        within_lists=within,
        rounds=metrics.total_rounds,
        multitrial_iterations=mt.iterations,
        cleanup_rounds=cleanup,
        max_message_bits=metrics.max_message_bits,
    )
