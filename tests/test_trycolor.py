"""Tests for the TryColor primitive and proposal resolution (Lemma 2.13)."""

import numpy as np
import pytest

from repro.core.state import ColoringState
from repro.core.trycolor import (
    interval_sampler,
    palette_interval_sampler,
    palette_sampler,
    resolve_proposals,
    try_color_round,
)
from repro.graphs.generators import complete_graph, gnp_graph, ring_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color


@pytest.fixture
def seq():
    return SeedSequencer(99)


class TestSamplers:
    def test_interval_sampler_bounds(self, seq):
        nodes = np.arange(10)
        lo = np.full(20, 3, dtype=np.int64)
        hi = np.full(20, 7, dtype=np.int64)
        out = interval_sampler(lo, hi)(nodes, seq.stream("s"))
        assert (out >= 3).all() and (out < 7).all()

    def test_interval_sampler_scalar_bounds(self, seq):
        out = interval_sampler(0, 5)(np.arange(100), seq.stream("s"))
        assert (out >= 0).all() and (out < 5).all()
        assert np.unique(out).size > 1  # actually random

    def test_palette_sampler_respects_palette(self, seq):
        net = BroadcastNetwork(complete_graph(4))
        state = ColoringState(net)
        state.adopt(np.array([1, 2]), np.array([0, 1]))
        out = palette_sampler(state)(np.array([0]), seq.stream("p"))
        assert out[0] in (2, 3)

    def test_palette_interval_sampler_intersection(self, seq):
        net = BroadcastNetwork(complete_graph(4))
        state = ColoringState(net)
        state.adopt(np.array([1]), np.array([2]))
        lo = np.zeros(net.n, dtype=np.int64)
        hi = np.full(net.n, 3, dtype=np.int64)  # interval [0,3)
        out = palette_interval_sampler(state, lo, hi)(np.array([0]), seq.stream("q"))
        assert out[0] in (0, 1)  # 2 excluded by palette, 3 by interval

    def test_palette_interval_sampler_empty_gives_minus_one(self, seq):
        net = BroadcastNetwork(complete_graph(3))
        state = ColoringState(net)
        state.adopt(np.array([1, 2]), np.array([0, 1]))
        lo = np.zeros(net.n, dtype=np.int64)
        hi = np.full(net.n, 2, dtype=np.int64)
        out = palette_interval_sampler(state, lo, hi)(np.array([0]), seq.stream("q"))
        assert out[0] == -1


class TestTryColorRound:
    def test_progress_on_clique(self, seq):
        net = BroadcastNetwork(complete_graph(8))
        state = ColoringState(net)
        total = 0
        for r in range(200):
            colored = try_color_round(
                state, state.uncolored_nodes(), palette_sampler(state), seq, "t", r
            )
            total += colored
            if state.num_uncolored() == 0:
                break
        assert state.num_uncolored() == 0
        assert total == 8
        state.verify()

    def test_min_id_always_succeeds_from_palette(self, seq):
        # Priority rule: the globally smallest-ID node can't be killed.
        net = BroadcastNetwork(complete_graph(5))
        state = ColoringState(net)
        colored = try_color_round(
            state, state.uncolored_nodes(), palette_sampler(state), seq, "t", 0
        )
        assert colored >= 1
        assert state.colors[0] >= 0 or colored >= 1

    def test_colored_neighbor_blocks(self, seq):
        net = BroadcastNetwork((2, [(0, 1)]))
        state = ColoringState(net)
        state.adopt(np.array([0]), np.array([1]))
        # Force node 1 to try color 1 (its only choice from [1,2)).
        colored = try_color_round(
            state, np.array([1]), interval_sampler(1, 2), seq, "t", 0
        )
        assert colored == 0
        assert state.colors[1] < 0

    def test_already_colored_skipped(self, seq):
        net = BroadcastNetwork((2, [(0, 1)]))
        state = ColoringState(net)
        state.adopt(np.array([0]), np.array([0]))
        colored = try_color_round(
            state, np.array([0, 1]), palette_sampler(state), seq, "t", 0
        )
        assert state.colors[0] == 0  # unchanged

    def test_rounds_accounted(self, seq):
        net = BroadcastNetwork(complete_graph(4))
        state = ColoringState(net)
        try_color_round(state, state.uncolored_nodes(), palette_sampler(state), seq, "abc", 0)
        assert net.metrics.rounds_in("abc") == 1

    def test_empty_participants_counts_round(self, seq):
        net = BroadcastNetwork(complete_graph(3))
        state = ColoringState(net)
        colored = try_color_round(
            state, np.empty(0, dtype=np.int64), palette_sampler(state), seq, "e", 0
        )
        assert colored == 0
        assert net.metrics.rounds_in("e") == 1

    def test_draw_of_minus_one_sits_out_unbilled(self, seq):
        """A participant whose sampler draws −1 sits the round out: it
        neither adopts nor sends, so the round bills one message per
        node that proposes."""
        net = BroadcastNetwork(ring_graph(20))
        state = ColoringState(net)
        participants = np.arange(net.n)
        sits_out = participants % 3 == 0

        def sampler(nodes, rng):
            return np.where(nodes % 3 == 0, -1, nodes % 3)

        colored = try_color_round(state, participants, sampler, seq, "m", 0)
        proposing = int((~sits_out).sum())
        stats = net.metrics.phases["m"]
        assert colored == proposing  # neighbors 3j+1, 3j+2 differ
        assert (state.colors[sits_out] < 0).all()
        assert stats.rounds == 1 and stats.messages == proposing
        assert stats.total_bits == proposing * bits_for_color(state.delta)

    def test_deterministic_given_seed(self):
        def run(seed):
            net = BroadcastNetwork(gnp_graph(40, 0.2, seed=5))
            state = ColoringState(net)
            s = SeedSequencer(seed)
            for r in range(5):
                try_color_round(
                    state, state.uncolored_nodes(), palette_sampler(state), s, "t", r
                )
            return state.colors.copy()

        assert np.array_equal(run(3), run(3))
        assert not np.array_equal(run(3), run(4))


class TestResolveProposals:
    def test_smaller_id_wins_tie(self):
        net = BroadcastNetwork((2, [(0, 1)]))
        state = ColoringState(net)
        proposals = np.array([1, 1])
        colored = resolve_proposals(state, proposals, "r")
        assert colored == 1
        assert state.colors[0] == 1 and state.colors[1] < 0

    def test_non_adjacent_both_win(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        state = ColoringState(net)
        proposals = np.array([-1, 1, 1])
        colored = resolve_proposals(state, proposals, "r")
        assert colored == 2

    def test_colored_neighbor_blocks(self):
        net = BroadcastNetwork((2, [(0, 1)]))
        state = ColoringState(net)
        state.adopt(np.array([0]), np.array([1]))
        colored = resolve_proposals(state, np.array([-1, 1]), "r")
        assert colored == 0

    def test_distinct_colors_all_win(self):
        net = BroadcastNetwork(complete_graph(3))
        state = ColoringState(net)
        colored = resolve_proposals(state, np.array([0, 1, 2]), "r")
        assert colored == 3
        state.verify()

    def test_result_always_proper(self):
        rng = np.random.default_rng(0)
        net = BroadcastNetwork(gnp_graph(50, 0.2, seed=8))
        state = ColoringState(net)
        proposals = rng.integers(0, state.num_colors, size=net.n)
        resolve_proposals(state, proposals, "r")
        state.verify()
