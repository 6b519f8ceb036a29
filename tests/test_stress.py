"""Stress matrix: the full pipeline across a wide family × parameter ×
seed grid, with every hard invariant checked on every run.

These are the tests that earn trust: no shortcuts — each cell runs the
complete algorithm (the per-round trace recorder only observes it) and
audits the output contract (proper, complete, ≤ Δ+1 colors,
bandwidth-compliant, deterministic, monotone trace).
"""

import numpy as np
import pytest

from helpers import traced_run
from repro.analysis.verify import verify_coloring
from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.extensions.degplusone import deg_plus_one_coloring
from repro.graphs.generators import (
    clique_blob_graph,
    complete_graph,
    geometric_graph,
    gnp_graph,
    hard_mix_graph,
    planted_acd_graph,
    random_regular_graph,
    ring_graph,
    star_graph,
)
from repro.simulator.network import BroadcastNetwork


GRID = [
    ("gnp-sparse", lambda s: gnp_graph(400, 0.01, seed=s)),
    ("gnp-mid", lambda s: gnp_graph(400, 0.05, seed=s)),
    ("gnp-dense", lambda s: gnp_graph(200, 0.3, seed=s)),
    ("regular", lambda s: random_regular_graph(300, 12, seed=s)),
    ("blobs-small", lambda s: clique_blob_graph(4, 24, 10, 6, seed=s)),
    ("blobs-holey", lambda s: clique_blob_graph(3, 48, 120, 20, seed=s)),
    ("blobs-linked", lambda s: clique_blob_graph(5, 32, 8, 40, seed=s)),
    ("planted", lambda s: planted_acd_graph(4, 36, 0.1, sparse_nodes=60, seed=s)),
    ("geom", lambda s: geometric_graph(300, 0.1, seed=s)),
    ("hardmix", lambda s: hard_mix_graph(3, 36, 200, 0.03, 60, seed=s)),
    ("ring", lambda s: ring_graph(200 + s)),
    ("star", lambda s: star_graph(150 + s)),
    ("clique", lambda s: complete_graph(50 + s)),
]


class TestPipelineMatrix:
    @pytest.mark.parametrize("name,make", GRID)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_contract(self, name, make, seed):
        graph = make(seed)
        cfg = ColoringConfig.practical(seed=seed)
        res, trace = traced_run(graph, cfg)

        net = BroadcastNetwork(graph)
        audit = verify_coloring(net, res.colors, num_colors=res.delta + 1)
        assert audit["proper"], (name, seed)
        assert audit["complete"], (name, seed)
        assert audit["within_palette"], (name, seed)
        assert res.max_message_bits <= cfg.bandwidth_bits(res.n), (name, seed)
        assert trace.is_monotone(), (name, seed)
        assert len(trace.events) == res.rounds_total

    @pytest.mark.parametrize(
        "name,make", [g for g in GRID if g[0] in ("gnp-mid", "blobs-small", "hardmix")]
    )
    def test_exact_decomposition_variant(self, name, make):
        res = BroadcastColoring(make(3), decomposition="exact").run()
        assert res.proper and res.complete

    @pytest.mark.parametrize("seed", range(4))
    def test_determinism_across_grid(self, seed):
        graph = clique_blob_graph(3, 32, 16, 8, seed=seed)
        cfg = ColoringConfig.practical(seed=seed)
        a = BroadcastColoring(graph, cfg).run()
        b = BroadcastColoring(graph, cfg).run()
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds_total == b.rounds_total
        assert a.total_bits == b.total_bits


class TestDegPlusOneMatrix:
    @pytest.mark.parametrize(
        "name,make", [g for g in GRID if g[0] not in ("gnp-dense",)]
    )
    def test_deg_plus_one_contract(self, name, make):
        graph = make(1)
        res = deg_plus_one_coloring(graph)
        assert res.proper and res.complete and res.within_lists, name


class TestConfigVariantsMatrix:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"permute_constant_round": True},
            {"multitrial_sampler": "expander"},
            {"enable_matching": False},
            {"enable_putaside": False},
            {"multitrial_cap": 8},
            {"slack_probability": 0.1},
            {"eps": 0.05},
            {"beta": 0.5},
        ],
        ids=lambda o: next(iter(o.items()))[0],
    )
    def test_pipeline_robust_to_config_variants(self, overrides):
        cfg = ColoringConfig.practical(seed=7, **overrides)
        graph = hard_mix_graph(3, 40, 200, 0.03, 60, seed=7)
        res = BroadcastColoring(graph, cfg).run()
        assert res.proper and res.complete

    def test_tiny_bandwidth_still_finishes(self):
        """Shrinking the bandwidth constant slows protocols (more waves)
        but must never break them."""
        cfg = ColoringConfig.practical(bandwidth_factor=12.0, seed=1)
        graph = clique_blob_graph(3, 32, 12, 8, seed=1)
        res = BroadcastColoring(graph, cfg).run()
        assert res.proper and res.complete
        assert res.max_message_bits <= cfg.bandwidth_bits(res.n)

    def test_wide_bandwidth_fewer_or_equal_rounds(self):
        g = clique_blob_graph(3, 32, 12, 8, seed=2)
        narrow = BroadcastColoring(
            g, ColoringConfig.practical(bandwidth_factor=12.0, seed=2)
        ).run()
        wide = BroadcastColoring(
            g, ColoringConfig.practical(bandwidth_factor=64.0, seed=2)
        ).run()
        assert wide.rounds_total <= narrow.rounds_total + 2
