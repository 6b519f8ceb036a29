"""Tests for LearnPalette (Algorithm 2, Lemma 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ColoringConfig
from repro.core.learn_palette import learn_palette
from repro.core.state import ColoringState
from repro.graphs.generators import clique_blob_graph, complete_graph, planted_acd_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from tests.helpers import greedy_color, learn_palette_oracle


@pytest.fixture
def cfg():
    return ColoringConfig.practical()


@pytest.fixture
def seq():
    return SeedSequencer(77)


class TestLearnPalette:
    def test_uncolored_clique_everything_free(self, cfg, seq):
        net = BroadcastNetwork(complete_graph(20))
        state = ColoringState(net)
        know = learn_palette(state, [np.arange(20)], cfg, seq)
        assert know.complete.all()
        assert know.true_free.all()
        assert know.known_free.all()

    def test_learns_used_colors_in_clique(self, cfg, seq):
        net = BroadcastNetwork(complete_graph(20))
        state = ColoringState(net)
        state.adopt(np.array([0, 1, 2]), np.array([5, 7, 11]))
        know = learn_palette(state, [np.arange(20)], cfg, seq)
        assert know.complete.all()
        assert not know.true_free[0, 5] and not know.true_free[0, 7] and not know.true_free[0, 11]
        for row in range(20):
            pal = know.learned_palette(row)
            assert 5 not in pal and 7 not in pal and 11 not in pal

    def test_never_overapproximates(self, cfg, seq):
        # Learned-used ⊆ true-used, i.e. learned_free ⊇ true_free.
        g = clique_blob_graph(1, 30, anti_edges_per_clique=60, seed=1)
        net = BroadcastNetwork(g)
        state = ColoringState(net)
        state.adopt(np.array([3, 4]), np.array([0, 1]))
        know = learn_palette(state, [np.arange(30)], cfg, seq)
        assert (know.known_free | ~know.true_free[0][None, :]).all()

    def test_incomplete_detected_with_anti_edges(self, cfg):
        """With heavy anti-edges a member may miss a color whose holders are
        all non-neighbors; completeness flag must notice when it happens.
        This is a *can-happen* test: we only assert consistency between the
        flag and the matrices, not that failure occurs."""
        g = clique_blob_graph(1, 24, anti_edges_per_clique=120, seed=3)
        net = BroadcastNetwork(g)
        state = ColoringState(net)
        members = np.arange(24)
        colored = members[:8]
        state.adopt(colored, np.arange(8))
        know = learn_palette(state, [members], cfg, SeedSequencer(3))
        missed = (~know.known_free ^ ~know.true_free[0][None, :]).any(axis=1)
        assert know.complete[0] == (not missed.any())
        assert know.incomplete_members[0] == int(missed.sum())

    def test_one_round_charged(self, cfg, seq):
        net = BroadcastNetwork(complete_graph(10))
        state = ColoringState(net)
        learn_palette(state, [np.arange(10)], cfg, seq, phase="lp")
        assert net.metrics.rounds_in("lp") == 1

    def test_account_false_charges_nothing(self, cfg, seq):
        net = BroadcastNetwork(complete_graph(10))
        state = ColoringState(net)
        learn_palette(state, [np.arange(10)], cfg, seq, phase="lp", account=False)
        assert net.metrics.rounds_in("lp") == 0

    def test_bitmap_fits_bandwidth(self, cfg):
        n = 300
        net = BroadcastNetwork(
            complete_graph(n), bandwidth_bits=cfg.bandwidth_bits(n)
        )
        state = ColoringState(net)
        learn_palette(state, [np.arange(n)], cfg, SeedSequencer(5), phase="lp")
        assert net.metrics.max_message_bits <= net.bandwidth_bits

    def test_members_own_neighbors_always_known(self, cfg, seq):
        # Even without bitmaps, direct neighbors' colors are known.
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        state = ColoringState(net)
        state.adopt(np.array([2]), np.array([1]))
        know = learn_palette(state, [np.arange(3)], cfg, seq)
        for row in range(3):
            assert 1 not in know.learned_palette(row)


def partly_colored(family, size, anti, colored, seed):
    """A clique-blob or planted graph, its cliques, and a proper coloring
    of a random ``colored`` fraction of its nodes."""
    if family == "blob":
        g = clique_blob_graph(3, size, anti * size, size // 2, seed=seed)
        labels = np.arange(g[0]) // size
    else:
        g = planted_acd_graph(3, size, 0.1, sparse_nodes=size, seed=seed)
        labels = np.where(np.arange(g[0]) < 3 * size, np.arange(g[0]) // size, -1)
    net = BroadcastNetwork(g)
    state = ColoringState(net)
    rng = np.random.default_rng(seed)
    greedy_color(state, np.flatnonzero(rng.random(net.n) < colored), rng)
    cliques = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    return state, cliques


class TestBatchedMatchesOracle:
    @given(
        family=st.sampled_from(["blob", "planted"]),
        size=st.sampled_from([12, 30, 70, 140]),
        anti=st.sampled_from([0, 1, 4]),
        colored=st.sampled_from([0.0, 0.3, 0.9]),
        c_log=st.sampled_from([0.1, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_member_oracle(self, family, size, anti, colored, c_log, seed):
        """One kernel over every clique equals Algorithm 2 run member by
        member in each clique, with multi-word color rows and incomplete
        cliques among the examples."""
        cfg = ColoringConfig.practical(c_log=c_log)
        state, cliques = partly_colored(family, size, anti, colored, seed)
        tags = [7 * q + 1 for q in range(len(cliques))]
        know = learn_palette(state, cliques, cfg, SeedSequencer(seed), phase="lp", tags=tags)
        for q, members in enumerate(cliques):
            known_free, true_free, complete, incomplete = learn_palette_oracle(
                state, members, cfg, SeedSequencer(seed), phase="lp", tag=tags[q]
            )
            rows = slice(know.offsets[q], know.offsets[q + 1])
            assert np.array_equal(know.members[rows], members)
            assert np.array_equal(know.known_free[rows], known_free)
            assert np.array_equal(know.true_free[q], true_free)
            assert know.complete[q] == complete
            assert know.incomplete_members[q] == incomplete

    def test_incomplete_clique_reported_per_clique(self, cfg):
        """A clique missing colors is flagged alone, beside a complete one."""
        for seed in range(20):
            state, cliques = partly_colored("blob", 24, 5, 0.5, seed)
            know = learn_palette(state, cliques, cfg, SeedSequencer(seed))
            if know.complete.any() and not know.complete.all():
                break
        else:
            pytest.fail("no seed left one clique complete and another not")
        for q, members in enumerate(cliques):
            _, _, complete, incomplete = learn_palette_oracle(
                state, members, cfg, SeedSequencer(seed), tag=q
            )
            assert (know.complete[q], know.incomplete_members[q]) == (complete, incomplete)

    def test_cliques_charged_as_one_round(self, cfg, seq):
        net = BroadcastNetwork(clique_blob_graph(3, 20, 0, 0, seed=1))
        state = ColoringState(net)
        cliques = [np.arange(20 * c, 20 * c + 20) for c in range(3)]
        learn_palette(state, cliques, cfg, seq, phase="lp")
        assert net.metrics.rounds_in("lp") == 1
        assert net.metrics.phases["lp"].messages == 60
