"""Tests for the (deg+1)-coloring extension and the per-round trace."""

import numpy as np
import pytest

from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.extensions.degplusone import deg_plus_one_coloring
from repro.graphs.generators import (
    clique_blob_graph,
    complete_graph,
    gnp_graph,
    ring_graph,
    star_graph,
)
from repro.simulator.network import BroadcastNetwork

from tests.helpers import brute_force_proper, traced_run


class TestDegPlusOne:
    @pytest.mark.parametrize(
        "graph",
        [
            gnp_graph(200, 0.05, seed=1),
            ring_graph(50),
            star_graph(40),
            complete_graph(25),
            clique_blob_graph(3, 30, 15, 8, seed=2),
        ],
        ids=["gnp", "ring", "star", "clique", "blobs"],
    )
    def test_proper_complete_within_lists(self, graph):
        res = deg_plus_one_coloring(graph)
        assert res.proper and res.complete
        assert res.within_lists
        net = BroadcastNetwork(graph)
        assert brute_force_proper(net, res.colors)
        assert (res.colors <= net.degrees).all()

    def test_star_leaves_use_tiny_lists(self):
        # Leaves have degree 1 → colors in {0, 1} only.
        res = deg_plus_one_coloring(star_graph(30))
        assert res.colors[1:].max() <= 1

    def test_harder_than_delta_plus_one(self):
        """deg+1 restricts low-degree nodes below Δ+1 — verify it still
        finishes where the (Δ+1) pipeline has full freedom."""
        g = star_graph(50)
        res = deg_plus_one_coloring(g)
        assert res.complete
        # the hub may need color up to 50... no: hub degree 49, colors ≤ 49.
        assert res.colors[0] <= 49

    def test_deterministic(self):
        g = gnp_graph(120, 0.08, seed=3)
        a = deg_plus_one_coloring(g, ColoringConfig.practical(seed=5))
        b = deg_plus_one_coloring(g, ColoringConfig.practical(seed=5))
        assert np.array_equal(a.colors, b.colors)

    def test_bandwidth_compliant(self):
        g = gnp_graph(300, 0.05, seed=4)
        cfg = ColoringConfig.practical()
        res = deg_plus_one_coloring(g, cfg)
        assert res.max_message_bits <= cfg.bandwidth_bits(300)

    def test_report_dict(self):
        res = deg_plus_one_coloring(ring_graph(20))
        d = res.as_dict()
        assert d["within_lists"] and d["rounds"] > 0


class TestTraceRecorder:
    """The per-round recorder on ``RoundMetrics.observers`` sees every
    round the metrics account, in phase order."""

    def test_trace_records_every_round(self):
        cfg = ColoringConfig.practical(seed=1)
        g = clique_blob_graph(2, 30, 10, 5, seed=1)
        res, trace = traced_run(g, cfg)
        assert len(trace.events) == res.rounds_total

    def test_uncolored_series_monotone(self):
        cfg = ColoringConfig.practical(seed=2)
        g = gnp_graph(150, 0.06, seed=2)
        _, trace = traced_run(g, cfg)
        assert trace.is_monotone()
        assert trace.uncolored_series()[-1] == 0

    def test_phases_seen_in_order(self):
        cfg = ColoringConfig.practical(seed=3)
        g = clique_blob_graph(3, 30, 10, 5, seed=3)
        _, trace = traced_run(g, cfg)
        phases = trace.phases_seen()
        # ACD phases come before slack, which comes before SCT.
        acd_idx = min(i for i, p in enumerate(phases) if p.startswith("acd"))
        slack_idx = phases.index("slack")
        assert acd_idx < slack_idx

    def test_rounds_in_phase_matches_metrics(self):
        cfg = ColoringConfig.practical(seed=4)
        g = gnp_graph(100, 0.05, seed=4)
        res, trace = traced_run(g, cfg)
        for phase, rounds in res.phase_rounds.items():
            assert trace.rounds_in_phase(phase) == rounds


class TestAblationFlags:
    def test_matching_can_be_disabled(self):
        cfg = ColoringConfig.practical(enable_matching=False, seed=1)
        g = clique_blob_graph(3, 40, 60, 10, seed=1)
        res = BroadcastColoring(g, cfg).run()
        assert res.proper and res.complete  # cleanup still saves the day
        assert res.reports["matching"] == {"skipped": True}
        assert res.phase_rounds.get("matching", 0) == 0

    def test_putaside_can_be_disabled(self):
        cfg = ColoringConfig.practical(enable_putaside=False, seed=2)
        g = clique_blob_graph(3, 40, 10, 5, seed=2)
        res = BroadcastColoring(g, cfg).run()
        assert res.proper and res.complete
        assert res.reports["putaside_select"] == {"skipped": True}
