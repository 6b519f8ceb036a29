"""Algorithm 1 / Theorem 1: the full (Δ+1)-coloring pipeline.

Phase order follows §3 and the proof in §3.4:

1.  **setup** — ε-almost-clique decomposition (Lemma 2.5), clique
    aggregates a_K/e_K, outliers, classes, the reserved prefixes x(K).
2.  **slack** — slack generation: each node w.p. p_s tries one color from
    [Δ+1]\\[x(v)] (Lemma 2.12).
3.  **matching** — colorful matching of size β·a_K in every clique with
    a_K ≥ C log n (Lemma 2.9).
4.  **putaside-select** — P_K ⊆ I_K in full cliques (Lemma 3.4).
5.  **sparse** — V_sparse colored by MultiTrial on [Δ+1] (they hold Ω(Δ)
    permanent slack).
6.  **outliers** — O_K colored by MultiTrial on [Δ+1]\\[x(K)] (temporary
    slack from the ≥0.9Δ inactive inliers, Claim 3.2).
7.  **sct** — synchronized color trial in every clique (Lemma 3.5), plus
    the O(1) open-clique TryColor rounds (Lemma 3.7).
8.  **inliers** — MultiTrial with lists L(v) = [x(v)] (Step 3 of
    Algorithm 1; Lemma 3.7 guarantees |[x(v)] ∩ Ψ(v)| ≥ 2d̂(v)).
9.  **putaside** — CompressTry reduction + O(1)-round finish (§3.3).
10. **cleanup** — plain TryColor from true palettes until everyone is
    colored.  With the paper's constants this phase is empty w.h.p.; with
    scaled practical constants it mops up the tail, and its rounds are
    reported separately so experiments keep the phases honest.

The result is always a proper (Δ+1)-coloring (hard invariant), and the
returned :class:`ColoringResult` carries per-phase rounds/bits plus every
lemma-level diagnostic the experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import obs
from repro.config import ColoringConfig
from repro.core.cliques import CliqueInfo, compute_clique_info
from repro.core.matching import MatchingReport, colorful_matching
from repro.core.multitrial import MultiTrialReport, multitrial
from repro.core.putaside import (
    PutAsideReport,
    color_putaside_sets,
    select_putaside_sets,
)
from repro.core.sct import SCTReport, synchronized_color_trial
from repro.core.slack import SlackReport, generate_slack
from repro.core.state import ColoringState
from repro.core.trycolor import palette_sampler, try_color_round
from repro.decomposition.acd import (
    AlmostCliqueDecomposition,
    decompose_distributed,
    decompose_exact,
)
from repro.simulator.metrics import RoundMetrics, accrued
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer

__all__ = ["BroadcastColoring", "ColoringResult", "MAX_CLEANUP_ROUNDS"]

MAX_CLEANUP_ROUNDS = 10_000
"""Hard cap on the TryColor cleanup rounds of a run and of a dynamic
repair (the cleanup always terminates first)."""


@dataclass
class ColoringResult:
    """Everything a run produced."""

    colors: np.ndarray
    proper: bool
    complete: bool
    num_colors_used: int
    delta: int
    n: int
    rounds_total: int
    """Rounds of this run; like ``rounds_cleanup``, ``total_bits``,
    ``phase_rounds`` and ``phase_seconds`` it excludes what earlier runs
    on the same network were billed."""
    rounds_cleanup: int
    max_message_bits: int
    """The widest message the network has carried, over every run on it:
    a running maximum, since ``RoundMetrics`` keeps no per-run one."""
    total_bits: int
    phase_rounds: dict[str, int]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds spent executing each phase (simulator time, not a
    model quantity — the runner's per-trial ``timings``)."""
    reports: dict[str, Any] = field(default_factory=dict)
    metrics: RoundMetrics | None = None
    clique_summary: dict | None = None

    @property
    def rounds_algorithm(self) -> int:
        """Rounds spent in the paper's phases (cleanup excluded)."""
        return self.rounds_total - self.rounds_cleanup

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "proper": self.proper,
            "complete": self.complete,
            "num_colors_used": self.num_colors_used,
            "rounds_total": self.rounds_total,
            "rounds_algorithm": self.rounds_algorithm,
            "rounds_cleanup": self.rounds_cleanup,
            "max_message_bits": self.max_message_bits,
            "total_bits": self.total_bits,
            "phase_rounds": dict(self.phase_rounds),
        }


class BroadcastColoring:
    """The BCONGEST (Δ+1)-coloring algorithm of the paper, end to end.

    >>> from repro.graphs.generators import gnp_graph
    >>> algo = BroadcastColoring(gnp_graph(500, 0.05, seed=1))
    >>> result = algo.run()
    >>> assert result.proper and result.complete

    Parameters
    ----------
    graph:
        ``networkx.Graph`` or ``(n, edges)`` pair.
    config:
        :class:`ColoringConfig`; practical preset by default.
    decomposition:
        "distributed" (Lemma 2.5 protocol, default), "exact" (centralized
        similarity oracle, same downstream pipeline), or a precomputed
        :class:`AlmostCliqueDecomposition` (e.g. a planted ground truth).
    """

    def __init__(
        self,
        graph,
        config: ColoringConfig | None = None,
        decomposition: str | AlmostCliqueDecomposition = "distributed",
    ):
        self.cfg = config or ColoringConfig.practical()
        metrics = RoundMetrics()
        if isinstance(graph, BroadcastNetwork):
            self.net = graph
        else:
            net = BroadcastNetwork(graph, metrics=metrics)
            net.bandwidth_bits = self.cfg.bandwidth_bits(net.n)
            self.net = net
        self.decomposition_mode = decomposition
        self.seq = SeedSequencer(self.cfg.seed)

    # ------------------------------------------------------------------
    def run(self) -> ColoringResult:
        cfg = self.cfg
        net = self.net
        obs.count("repro_color_runs_total")
        # Unscoped span around the whole pipeline: the per-phase spans
        # RoundMetrics emits (begin_phase/stop_timer) nest under it.
        run_span = obs.start_span("color.run", n=int(net.n))
        metrics = net.metrics
        # The network's account runs across runs: the result reports the
        # difference from where this run started.
        rounds0 = metrics.phase_rounds()
        bits0 = metrics.total_bits
        seconds0 = dict(metrics.phase_seconds)
        state = ColoringState(net)
        reports: dict[str, Any] = {}

        # ---- phase 1: setup --------------------------------------------
        metrics.begin_phase("setup")
        if isinstance(self.decomposition_mode, AlmostCliqueDecomposition):
            acd = self.decomposition_mode
        elif self.decomposition_mode == "exact":
            acd = decompose_exact(net, cfg)
        else:
            acd = decompose_distributed(net, cfg, self.seq.spawn("acd"))
        info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
        reports["clique_info"] = info.summary()

        # ---- phase 2: slack generation ---------------------------------
        metrics.begin_phase("slack")
        reports["slack"] = generate_slack(
            state, info.x_node, cfg, self.seq.spawn("slack"), phase="slack"
        ).as_dict()

        # ---- phase 3: colorful matching --------------------------------
        metrics.begin_phase("matching")
        if cfg.enable_matching:
            matching_report = colorful_matching(
                state, info, cfg, self.seq.spawn("matching"), phase="matching"
            )
            reports["matching"] = matching_report.as_dict()
        else:
            reports["matching"] = {"skipped": True}

        # ---- phase 4: put-aside selection ------------------------------
        metrics.begin_phase("putaside-select")
        if cfg.enable_putaside:
            putaside, select_report = select_putaside_sets(
                state, info, cfg, self.seq.spawn("putaside"), phase="putaside-select"
            )
            reports["putaside_select"] = select_report.as_dict()
        else:
            putaside = {}
            reports["putaside_select"] = {"skipped": True}

        # ---- phase 5: sparse nodes via MultiTrial -----------------------
        metrics.begin_phase("sparse")
        sparse_mask = info.labels < 0
        lo = np.zeros(state.n, dtype=np.int64)
        hi = np.full(state.n, state.num_colors, dtype=np.int64)
        reports["sparse"] = multitrial(
            state, sparse_mask, lo, hi, cfg, self.seq.spawn("mt-sparse"), phase="sparse"
        ).as_dict()

        # ---- phase 6: outliers via MultiTrial ---------------------------
        metrics.begin_phase("outliers")
        outlier_mask = info.outlier_mask & (state.colors < 0)
        lo_out = info.x_node.astype(np.int64)
        reports["outliers"] = multitrial(
            state,
            outlier_mask,
            lo_out,
            hi,
            cfg,
            self.seq.spawn("mt-outliers"),
            phase="outliers",
        ).as_dict()

        # ---- phase 7: synchronized color trial --------------------------
        metrics.begin_phase("sct")
        sct_report = synchronized_color_trial(
            state, info, putaside, cfg, self.seq.spawn("sct"), phase="sct"
        )
        reports["sct"] = sct_report.as_dict()

        # ---- phase 8: inliers via MultiTrial on [x(v)] -------------------
        metrics.begin_phase("inliers")
        putaside_mask = np.zeros(state.n, dtype=bool)
        for nodes in putaside.values():
            putaside_mask[nodes] = True
        inlier_mask = (info.labels >= 0) & ~putaside_mask & (state.colors < 0)
        lo_in = np.zeros(state.n, dtype=np.int64)
        hi_in = np.maximum(info.x_node.astype(np.int64), 1)
        reports["inliers"] = multitrial(
            state,
            inlier_mask,
            lo_in,
            hi_in,
            cfg,
            self.seq.spawn("mt-inliers"),
            phase="inliers",
        ).as_dict()
        # Inliers whose reserved prefix ran dry retry on the full palette
        # (still MultiTrial — the paper's w.h.p. argument makes this branch
        # empty; with scaled constants it occasionally fires).
        leftover_inliers = inlier_mask & (state.colors < 0)
        if leftover_inliers.any():
            reports["inliers_fullrange"] = multitrial(
                state,
                leftover_inliers,
                lo,
                hi,
                cfg,
                self.seq.spawn("mt-inliers2"),
                phase="inliers",
            ).as_dict()

        # ---- phase 9: color the put-aside sets --------------------------
        metrics.begin_phase("putaside")
        reports["putaside"] = color_putaside_sets(
            state, info, putaside, cfg, self.seq.spawn("putaside-color"), phase="putaside"
        ).as_dict()

        # ---- phase 10: cleanup ------------------------------------------
        metrics.begin_phase("cleanup")
        cleanup_rounds = 0
        sampler = palette_sampler(state)
        while state.num_uncolored() and cleanup_rounds < MAX_CLEANUP_ROUNDS:
            pending = state.uncolored_nodes()
            try_color_round(
                state, pending, sampler, self.seq, phase="cleanup", round_tag=cleanup_rounds
            )
            cleanup_rounds += 1
        reports["cleanup"] = {"rounds": cleanup_rounds}

        state.verify()
        metrics.stop_timer()
        obs.end_span(run_span)
        phase_rounds = accrued(rounds0, metrics.phase_rounds())
        rounds_total = phase_rounds.pop("total", 0)
        return ColoringResult(
            colors=state.colors.copy(),
            proper=True,  # state.verify() above raised on any conflict
            complete=state.is_complete(),
            num_colors_used=state.count_colors_used(),
            delta=state.delta,
            n=state.n,
            rounds_total=rounds_total,
            rounds_cleanup=phase_rounds.get("cleanup", 0),
            max_message_bits=metrics.max_message_bits,
            total_bits=metrics.total_bits - bits0,
            phase_rounds=phase_rounds,
            phase_seconds=accrued(seconds0, metrics.phase_seconds),
            reports=reports,
            metrics=metrics,
            clique_summary=info.summary(),
        )
