"""Tests for the baseline algorithms (repro.baselines)."""

import numpy as np
import pytest

from repro.baselines.greedy import greedy_coloring
from repro.baselines.johansson import johansson_coloring
from repro.baselines.luby import luby_coloring
from repro.core.state import ColoringState, ImproperColoring
from repro.extensions.degplusone import deg_plus_one_coloring
from repro.graphs.generators import (
    clique_blob_graph,
    complete_graph,
    gnp_graph,
    ring_graph,
    star_graph,
)
from repro.simulator.network import BroadcastNetwork

from tests.helpers import brute_force_proper, count_propriety_scans


class TestGreedy:
    def test_proper_and_complete(self):
        net = BroadcastNetwork(gnp_graph(100, 0.1, seed=1))
        colors = greedy_coloring(net)
        assert (colors >= 0).all()
        assert brute_force_proper(net, colors)

    def test_at_most_delta_plus_one_colors(self):
        net = BroadcastNetwork(gnp_graph(100, 0.1, seed=2))
        colors = greedy_coloring(net)
        assert colors.max() <= net.delta

    def test_clique_uses_exactly_n_colors(self):
        net = BroadcastNetwork(complete_graph(10))
        assert np.unique(greedy_coloring(net)).size == 10

    def test_smallest_last_never_worse(self):
        net = BroadcastNetwork(gnp_graph(150, 0.08, seed=3))
        plain = np.unique(greedy_coloring(net)).size
        sl = np.unique(greedy_coloring(net, smallest_last=True)).size
        assert sl <= plain + 2  # allow small noise; usually strictly fewer

    def test_custom_order(self):
        net = BroadcastNetwork(ring_graph(6))
        colors = greedy_coloring(net, order=np.array([5, 4, 3, 2, 1, 0]))
        assert brute_force_proper(net, colors)

    def test_star_two_colors(self):
        net = BroadcastNetwork(star_graph(20))
        assert np.unique(greedy_coloring(net, smallest_last=True)).size == 2


@pytest.mark.parametrize("algo", [johansson_coloring, luby_coloring])
class TestDistributedBaselines:
    def test_proper_complete(self, algo):
        g = gnp_graph(200, 0.05, seed=4)
        res = algo(g, seed=1)
        assert res.proper and res.complete
        net = BroadcastNetwork(g)
        assert brute_force_proper(net, res.colors)

    def test_works_on_cliques(self, algo):
        res = algo(complete_graph(30), seed=2)
        assert res.complete
        assert np.unique(res.colors).size == 30

    def test_works_on_blobs(self, algo):
        res = algo(clique_blob_graph(3, 30, 20, 10, seed=1), seed=3)
        assert res.proper and res.complete

    def test_deterministic(self, algo):
        g = gnp_graph(100, 0.05, seed=5)
        a = algo(g, seed=7)
        b = algo(g, seed=7)
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds

    def test_bandwidth_logarithmic(self, algo):
        g = gnp_graph(100, 0.05, seed=6)
        res = algo(g, seed=1, bandwidth_bits=32 * 7)
        assert res.max_message_bits <= 32 * 7

    def test_report_dict(self, algo):
        res = algo(ring_graph(20), seed=1)
        d = res.as_dict()
        assert d["complete"] and d["rounds"] >= 1


@pytest.mark.parametrize(
    "algo", [johansson_coloring, luby_coloring, deg_plus_one_coloring]
)
class TestOnePropernessScan:
    """Each run scans the edges for a conflict once: ``verify`` raises on
    one, so a returned result is proper without a second scan."""

    def test_one_scan_per_run(self, algo):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_propriety_scans(patch)
            res = algo(gnp_graph(200, 0.05, seed=4))
        assert res.proper and res.complete
        assert len(calls) == 1

    def test_improper_coloring_still_raises(self, algo):
        """A conflict planted right after the adoption that colors the
        last node is caught by that one scan."""
        real = ColoringState.adopt
        planted = []

        def planting(state, nodes, new_colors):
            real(state, nodes, new_colors)
            if not planted and state.num_uncolored() == 0:
                u = int(np.flatnonzero(state.net.degrees)[0])
                state.colors[u] = state.colors[state.net.neighbors(u)[0]]
                planted.append(u)

        with pytest.MonkeyPatch.context() as patch:
            calls = count_propriety_scans(patch)
            patch.setattr(ColoringState, "adopt", planting)
            with pytest.raises(ImproperColoring, match="not proper"):
                algo(gnp_graph(120, 0.08, seed=1))
        assert planted
        assert len(calls) == 1


class TestRoundGrowth:
    def test_johansson_rounds_grow_with_n_on_cliques(self):
        """The Θ(log n) behavior: coloring cliques of growing size takes
        more rounds (coupon-collector pressure on tight palettes)."""
        small = np.mean(
            [johansson_coloring(complete_graph(8), seed=s).rounds for s in range(5)]
        )
        large = np.mean(
            [johansson_coloring(complete_graph(128), seed=s).rounds for s in range(5)]
        )
        assert large > small

    def test_luby_rounds_reasonable(self):
        res = luby_coloring(gnp_graph(300, 0.05, seed=7), seed=1)
        assert res.rounds <= 60
