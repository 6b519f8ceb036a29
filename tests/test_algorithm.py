"""Integration tests: the full Algorithm 1 pipeline (Theorem 1)."""

import time

import numpy as np
import pytest

from repro.analysis.verify import assert_proper_coloring
from repro.config import ColoringConfig
from repro.core import algorithm
from repro.core.algorithm import BroadcastColoring
from repro.core.state import ImproperColoring
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphs.generators import (
    clique_blob_graph,
    complete_graph,
    geometric_graph,
    gnp_graph,
    hard_mix_graph,
    planted_acd_graph,
    ring_graph,
    star_graph,
)
from repro.simulator.network import BroadcastNetwork

from tests.helpers import brute_force_proper, count_propriety_scans


FAMILIES = [
    ("gnp", lambda s: gnp_graph(300, 0.04, seed=s)),
    ("ring", lambda s: ring_graph(100 + s)),
    ("star", lambda s: star_graph(60 + s)),
    ("clique", lambda s: complete_graph(40 + s)),
    ("blobs", lambda s: clique_blob_graph(3, 40, 30, 10, seed=s)),
    ("planted", lambda s: planted_acd_graph(3, 40, 0.1, sparse_nodes=40, seed=s)),
    ("geom", lambda s: geometric_graph(200, 0.12, seed=s)),
    ("hardmix", lambda s: hard_mix_graph(2, 40, 150, 0.03, 40, seed=s)),
]


class TestEndToEnd:
    @pytest.mark.parametrize("name,make", FAMILIES)
    def test_proper_complete_on_all_families(self, name, make):
        res = BroadcastColoring(make(1)).run()
        assert res.proper and res.complete, name
        assert res.num_colors_used <= res.delta + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_seed_sweep_blobs(self, seed):
        cfg = ColoringConfig.practical(seed=seed)
        g = clique_blob_graph(3, 50, 60, 20, seed=seed)
        res = BroadcastColoring(g, cfg).run()
        assert res.proper and res.complete
        net = BroadcastNetwork(g)
        assert brute_force_proper(net, res.colors)

    def test_bandwidth_compliance(self):
        cfg = ColoringConfig.practical()
        g = clique_blob_graph(4, 60, 40, 20, seed=3)
        res = BroadcastColoring(g, cfg).run()
        assert res.max_message_bits <= cfg.bandwidth_bits(res.n)

    def test_deterministic_given_seed(self):
        cfg = ColoringConfig.practical(seed=5)
        g = gnp_graph(200, 0.05, seed=1)
        a = BroadcastColoring(g, cfg).run()
        b = BroadcastColoring(g, cfg).run()
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds_total == b.rounds_total

    def test_seed_changes_coloring(self):
        g = gnp_graph(200, 0.05, seed=1)
        a = BroadcastColoring(g, ColoringConfig.practical(seed=1)).run()
        b = BroadcastColoring(g, ColoringConfig.practical(seed=2)).run()
        assert not np.array_equal(a.colors, b.colors)

    def test_empty_graph(self):
        res = BroadcastColoring((10, [])).run()
        assert res.complete
        assert res.num_colors_used == 1

    def test_single_edge(self):
        res = BroadcastColoring((2, [(0, 1)])).run()
        assert res.complete and res.proper
        assert res.num_colors_used == 2


class TestPhases:
    def test_phase_rounds_reported(self):
        g = planted_acd_graph(3, 40, 0.1, sparse_nodes=40, seed=2)
        res = BroadcastColoring(g).run()
        assert "slack" in res.phase_rounds
        assert any(k.startswith("acd") for k in res.phase_rounds)
        assert res.rounds_total == sum(res.phase_rounds.values())

    def test_cleanup_usually_empty(self):
        # On well-behaved inputs the paper phases finish the job.
        done_without_cleanup = 0
        for seed in range(5):
            g = clique_blob_graph(3, 40, 30, 10, seed=seed)
            res = BroadcastColoring(g, ColoringConfig.practical(seed=seed)).run()
            if res.rounds_cleanup == 0:
                done_without_cleanup += 1
        assert done_without_cleanup >= 3

    def test_rounds_algorithm_excludes_cleanup(self):
        g = gnp_graph(100, 0.05, seed=4)
        res = BroadcastColoring(g).run()
        assert res.rounds_algorithm == res.rounds_total - res.rounds_cleanup

    def test_reports_have_expected_sections(self):
        g = planted_acd_graph(3, 40, 0.1, seed=5)
        res = BroadcastColoring(g).run()
        for section in ("clique_info", "slack", "matching", "sct", "putaside", "cleanup"):
            assert section in res.reports, section

    def test_as_dict_roundtrip(self):
        g = gnp_graph(80, 0.05, seed=6)
        d = BroadcastColoring(g).run().as_dict()
        for key in ("n", "delta", "proper", "complete", "rounds_total"):
            assert key in d


class TestDecompositionModes:
    def test_exact_mode(self):
        g = planted_acd_graph(3, 40, 0.1, seed=7)
        res = BroadcastColoring(g, decomposition="exact").run()
        assert res.proper and res.complete

    def test_precomputed_ground_truth(self):
        g = planted_acd_graph(3, 40, 0.1, sparse_nodes=20, seed=8)
        n = g[0]
        labels = np.where(np.arange(n) < 120, np.arange(n) // 40, -1)
        acd = AlmostCliqueDecomposition(labels=labels, eps=0.1)
        res = BroadcastColoring(g, decomposition=acd).run()
        assert res.proper and res.complete
        assert res.clique_summary["num_cliques"] == 3

    def test_network_object_input(self):
        cfg = ColoringConfig.practical()
        g = gnp_graph(100, 0.05, seed=9)
        net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(100))
        res = BroadcastColoring(net, cfg).run()
        assert res.proper and res.complete

    def test_result_reports_only_its_own_run(self):
        """Two runs on one network report the same totals: each result
        used to carry the network's running totals (rounds 22, 44, 66
        over three runs of one colouring)."""
        cfg = ColoringConfig.practical(seed=4)
        net = BroadcastNetwork(
            geometric_graph(600, 0.08, seed=4), bandwidth_bits=cfg.bandwidth_bits(600)
        )
        first = BroadcastColoring(net, cfg).run()
        t0 = time.perf_counter()
        second = BroadcastColoring(net, cfg).run()
        wall = time.perf_counter() - t0
        assert np.array_equal(first.colors, second.colors)
        assert second.rounds_total == first.rounds_total > 0
        assert second.rounds_cleanup == first.rounds_cleanup
        assert second.total_bits == first.total_bits > 0
        assert second.phase_rounds == first.phase_rounds
        assert sum(second.phase_rounds.values()) == second.rounds_total
        assert set(second.phase_seconds) == set(first.phase_seconds)
        assert 0 < sum(second.phase_seconds.values()) <= wall
        # The network's own account still runs across both.
        assert net.metrics.total_rounds == 2 * first.rounds_total
        # A running maximum, documented as such.
        assert second.max_message_bits == net.metrics.max_message_bits


class TestPaperPreset:
    def test_paper_constants_still_color_correctly(self):
        """With the published constants the dense machinery is dormant at
        this scale (thresholds astronomically high), but the pipeline must
        still produce a proper complete coloring."""
        cfg = ColoringConfig.paper()
        g = gnp_graph(150, 0.08, seed=10)
        res = BroadcastColoring(g, cfg).run()
        assert res.proper and res.complete

    def test_paper_preset_values(self):
        cfg = ColoringConfig.paper()
        assert cfg.eps == pytest.approx(1e-5)
        assert cfg.beta == 401.0
        assert cfg.putaside_factor == 201.0


class TestVerifierCrossCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_external_verifier_agrees(self, seed):
        g = hard_mix_graph(2, 40, 100, 0.04, 30, seed=seed)
        res = BroadcastColoring(g, ColoringConfig.practical(seed=seed)).run()
        net = BroadcastNetwork(g)
        assert_proper_coloring(net, res.colors, num_colors=res.delta + 1)


class TestOnePropernessScan:
    """``run()`` scans the edges for a conflict once: ``verify`` raises on
    one, so a returned result is proper without a second scan."""

    def test_one_scan_per_run(self):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_propriety_scans(patch)
            res = BroadcastColoring(clique_blob_graph(3, 40, 30, 10, seed=2)).run()
        assert res.proper and res.complete
        assert len(calls) == 1

    def test_improper_coloring_still_raises(self):
        """A conflict planted after the last phase is caught by that one
        scan."""
        real = algorithm.color_putaside_sets

        def planting(state, *args, **kwargs):
            report = real(state, *args, **kwargs)
            u = int(np.flatnonzero(state.net.degrees)[0])
            state.colors[u] = state.colors[state.net.neighbors(u)[0]]
            return report

        with pytest.MonkeyPatch.context() as patch:
            calls = count_propriety_scans(patch)
            patch.setattr(algorithm, "color_putaside_sets", planting)
            with pytest.raises(ImproperColoring, match="not proper"):
                BroadcastColoring(gnp_graph(120, 0.08, seed=1)).run()
        assert len(calls) == 1
