"""Tests for the colorful matching (Definition 2.6, Lemma 2.9)."""

import numpy as np
import pytest

from repro.config import ColoringConfig
from repro.core.cliques import compute_clique_info
from repro.core.matching import ROUND_FACTOR, colorful_matching
from repro.core.state import ColoringState
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphs.generators import clique_blob_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


def blob_setup(
    num=2, size=50, anti=200, ext=5, seed=0, c_log=0.2, beta=1.0
):
    """A blob graph whose cliques have a_K well above the C log n gate."""
    cfg = ColoringConfig.practical(c_log=c_log, beta=beta)
    g = clique_blob_graph(num, size, anti, ext, seed=seed)
    net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
    labels = np.arange(net.n) // size
    acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
    state = ColoringState(net)
    info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
    return cfg, net, state, info


class TestMatchingProperties:
    def test_pairs_are_anti_edges_with_same_color(self):
        cfg, net, state, info = blob_setup()
        rep = colorful_matching(state, info, cfg, SeedSequencer(1))
        assert sum(rep.sizes.values()) > 0
        # Reconstruct pairs from the coloring: same color within a clique.
        for c in range(info.num_cliques):
            members = info.members(c)
            colored = members[state.colors[members] >= 0]
            by_color = {}
            for v in colored:
                by_color.setdefault(int(state.colors[v]), []).append(int(v))
            for col, nodes in by_color.items():
                assert len(nodes) == 2  # exactly pairs
                u, w = nodes
                assert not net.has_edge(u, w)  # an anti-edge

    def test_colors_distinct_within_clique(self):
        cfg, net, state, info = blob_setup(seed=2)
        colorful_matching(state, info, cfg, SeedSequencer(2))
        for c in range(info.num_cliques):
            members = info.members(c)
            used = state.colors[members]
            used = used[used >= 0]
            vals, counts = np.unique(used, return_counts=True)
            assert (counts == 2).all()  # each matched color exactly twice

    def test_reserved_prefix_untouched(self):
        cfg, net, state, info = blob_setup(seed=3)
        colorful_matching(state, info, cfg, SeedSequencer(3))
        used = state.colors[state.colors >= 0]
        if used.size:
            assert used.min() >= int(info.x_k.min())

    def test_coloring_proper(self):
        cfg, net, state, info = blob_setup(seed=4, ext=40)
        colorful_matching(state, info, cfg, SeedSequencer(4))
        state.verify()

    def test_reaches_target_mostly(self):
        cfg, net, state, info = blob_setup(seed=5, beta=1.0)
        rep = colorful_matching(state, info, cfg, SeedSequencer(5))
        for c, target in rep.targets.items():
            assert rep.sizes[c] >= 0.5 * target  # statistical, generous

    def test_colored_node_bound(self):
        # Lemma 2.9: at most 2β a_K nodes colored per clique.
        cfg, net, state, info = blob_setup(seed=6)
        rep = colorful_matching(state, info, cfg, SeedSequencer(6))
        for c in rep.sizes:
            members = info.members(c)
            colored = int((state.colors[members] >= 0).sum())
            assert colored <= 2 * rep.sizes[c]
            assert colored <= 2 * np.ceil(cfg.beta * info.a_k[c]) + 2

    def test_round_budget_o_beta(self):
        cfg, net, state, info = blob_setup(seed=7)
        rep = colorful_matching(state, info, cfg, SeedSequencer(7))
        assert rep.rounds <= int(np.ceil(ROUND_FACTOR * cfg.beta))


class TestMatchingGates:
    def test_skips_low_anti_degree_cliques(self):
        # a_K = 0 (pure cliques) → below the C log n gate → no matching.
        cfg, net, state, info = blob_setup(anti=0, c_log=1.0)
        rep = colorful_matching(state, info, cfg, SeedSequencer(8))
        assert rep.targets == {}
        assert (state.colors < 0).all()

    def test_no_cliques_no_rounds(self):
        cfg = ColoringConfig.practical()
        net = BroadcastNetwork((10, [(0, 1)]))
        state = ColoringState(net)
        labels = np.full(10, -1, dtype=np.int64)
        acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
        info = compute_clique_info(net, acd, cfg)
        rep = colorful_matching(state, info, cfg, SeedSequencer(9))
        assert rep.rounds == 0

    def test_deterministic(self):
        def run(seed_root):
            cfg, net, state, info = blob_setup(seed=10)
            colorful_matching(state, info, cfg, SeedSequencer(seed_root))
            return state.colors.copy()

        assert np.array_equal(run(5), run(5))
        assert not np.array_equal(run(5), run(6))
