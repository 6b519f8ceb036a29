"""Tests for MultiTrial (Lemma 2.14)."""

import numpy as np
import pytest

from repro.config import ColoringConfig
from repro.core.multitrial import INITIAL_TRIES, MAX_ITERATIONS, multitrial
from repro.core.state import ColoringState
from repro.graphs.generators import complete_graph, gnp_graph, ring_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


@pytest.fixture
def cfg():
    return ColoringConfig.practical()


def full_lists(state):
    lo = np.zeros(state.n, dtype=np.int64)
    hi = np.full(state.n, state.num_colors, dtype=np.int64)
    return lo, hi


class TestBasicBehavior:
    def test_colors_everyone_with_slack(self, cfg):
        # Sparse graph: palettes are huge relative to degrees.
        net = BroadcastNetwork(gnp_graph(200, 0.03, seed=1))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        rep = multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(1), "mt")
        assert rep.remaining == 0
        assert state.is_complete()
        state.verify()

    def test_result_proper_even_on_clique(self, cfg):
        net = BroadcastNetwork(complete_graph(12))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(2), "mt")
        state.verify()

    def test_respects_mask(self, cfg):
        net = BroadcastNetwork(ring_graph(20))
        state = ColoringState(net)
        mask = np.zeros(net.n, dtype=bool)
        mask[:10] = True
        multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(3), "mt")
        assert (state.colors[10:] < 0).all()

    def test_respects_list_intervals(self, cfg):
        net = BroadcastNetwork(ring_graph(30))
        state = ColoringState(net, num_colors=8)
        lo = np.full(net.n, 5, dtype=np.int64)
        hi = np.full(net.n, 8, dtype=np.int64)
        mask = np.ones(net.n, dtype=bool)
        multitrial(state, mask, lo, hi, cfg, SeedSequencer(4), "mt")
        used = state.colors[state.colors >= 0]
        assert used.size > 0
        assert used.min() >= 5

    def test_empty_interval_never_colors(self, cfg):
        net = BroadcastNetwork(ring_graph(10))
        state = ColoringState(net)
        lo = np.full(net.n, 2, dtype=np.int64)
        hi = np.full(net.n, 2, dtype=np.int64)
        mask = np.ones(net.n, dtype=bool)
        rep = multitrial(state, mask, lo, hi, cfg, SeedSequencer(5), "mt")
        assert rep.colored == 0
        assert rep.remaining == net.n


class TestReporting:
    def test_iterations_bounded(self, cfg):
        net = BroadcastNetwork(gnp_graph(100, 0.05, seed=6))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        rep = multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(6), "mt")
        assert rep.iterations <= MAX_ITERATIONS

    def test_tries_grow_geometrically(self, cfg):
        net = BroadcastNetwork(complete_graph(30))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        rep = multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(7), "mt")
        tries = [r["tries"] for r in rep.per_iteration]
        assert all(b >= a for a, b in zip(tries, tries[1:]))
        assert tries[0] == INITIAL_TRIES

    def test_rounds_charged_two_per_iteration(self, cfg):
        net = BroadcastNetwork(ring_graph(12))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        rep = multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(8), "mtx")
        assert net.metrics.rounds_in("mtx") == 2 * rep.iterations

    def test_deterministic(self, cfg):
        def run(seed):
            net = BroadcastNetwork(gnp_graph(80, 0.05, seed=3))
            state = ColoringState(net)
            mask = np.ones(net.n, dtype=bool)
            multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(seed), "mt")
            return state.colors.copy()

        assert np.array_equal(run(11), run(11))

    def test_report_dict(self, cfg):
        net = BroadcastNetwork(ring_graph(8))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        rep = multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(9), "mt")
        d = rep.as_dict()
        assert d["colored"] + d["remaining"] == 8


class TestLogStarBehavior:
    def test_fast_on_high_slack(self, cfg):
        """With slack ≥ 2d̂ everywhere, MultiTrial finishes in very few
        iterations — the O(log* n) engine observable."""
        net = BroadcastNetwork(gnp_graph(500, 0.01, seed=10))
        state = ColoringState(net)
        mask = np.ones(net.n, dtype=bool)
        rep = multitrial(state, mask, *full_lists(state), cfg, SeedSequencer(10), "mt")
        assert rep.remaining == 0
        assert rep.iterations <= 6
