"""Tests for Relabel (Algorithm 3, Lemma 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ColoringConfig
from repro.core.relabel import RelabelResult, relabel
from repro.graphs.generators import complete_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_int
from tests.helpers import relabel_oracle


@pytest.fixture
def cfg():
    return ColoringConfig.practical()


@pytest.fixture
def net(cfg):
    n = 64
    return BroadcastNetwork(complete_graph(n), bandwidth_bits=cfg.bandwidth_bits(n))


def one_set(net, nodes, cfg, seq, **kw):
    """Relabel the single set ``nodes``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return relabel(net, nodes, np.zeros(nodes.size, dtype=np.int64), cfg, seq, **kw)


class TestRelabel:
    def test_labels_unique(self, cfg, net):
        nodes = np.arange(20)
        rr = one_set(net, nodes, cfg, SeedSequencer(1))
        assert np.unique(rr.labels).size == 20

    def test_labels_in_universe(self, cfg, net):
        nodes = np.arange(30)
        rr = one_set(net, nodes, cfg, SeedSequencer(2))
        assert rr.labels.min() >= 0
        assert rr.labels.max() < rr.label_universe[0]

    def test_universe_is_s2_log_n(self, cfg, net):
        nodes = np.arange(10)
        rr = one_set(net, nodes, cfg, SeedSequencer(3))
        assert rr.label_universe[0] == int(10 * 10 * np.log2(net.n))

    def test_label_bits_loglog_scale(self, cfg, net):
        # For poly(log n)-sized S the labels are O(log log n)-bit: far
        # smaller than full IDs.
        nodes = np.arange(12)
        rr = one_set(net, nodes, cfg, SeedSequencer(4))
        assert rr.label_bits[0] < bits_for_int(net.n) * 2
        assert rr.label_bits[0] == bits_for_int(int(rr.label_universe[0]))

    def test_success_whp(self, cfg, net):
        successes = sum(
            bool(one_set(net, np.arange(16), cfg, SeedSequencer(s)).succeeded[0])
            for s in range(30)
        )
        assert successes == 30  # collision prob is ~1/log n per index, x tries

    def test_empty_set(self, cfg, net):
        rr = one_set(net, [], cfg, SeedSequencer(5))
        assert rr.succeeded.all()
        assert rr.labels.size == 0
        assert rr.rounds.sum() == 0

    def test_singleton(self, cfg, net):
        rr = one_set(net, [3], cfg, SeedSequencer(6))
        assert rr.succeeded[0]
        assert rr.labels.size == 1

    def test_rounds_charged(self, cfg, net):
        one_set(net, np.arange(8), cfg, SeedSequencer(7), phase="rl")
        assert net.metrics.rounds_in("rl") >= 2

    def test_label_wider_than_the_cap(self):
        """A 9-bit label under an 8-bit cap goes out in two rounds, then
        the 1-bit collision map in one: no message over the cap."""
        cfg = ColoringConfig.practical(c_log=1e-9)
        net = BroadcastNetwork(complete_graph(64), bandwidth_bits=8)
        rr = one_set(net, np.arange(7), cfg, SeedSequencer(1), phase="rl", account=True)
        assert rr.label_bits.tolist() == [9]
        assert rr.rounds.tolist() == [3]
        assert net.metrics.rounds_in("rl") == 3
        assert net.metrics.max_message_bits == 8

    def test_account_false(self, cfg, net):
        one_set(net, np.arange(8), cfg, SeedSequencer(8), phase="rl2", account=False)
        assert net.metrics.rounds_in("rl2") == 0

    def test_fallback_labels_still_unique(self, net):
        # Force the fallback by exhausting the candidate space: a universe
        # this tiny cannot happen via the public API, so drive the internal
        # path by monkeypatching the config to near-zero candidates.
        cfg_tiny = ColoringConfig.practical(c_log=1e-9)
        nodes = np.arange(10)
        rr = one_set(net, nodes, cfg_tiny, SeedSequencer(9))
        # x = 1 candidate; collisions possible but uniqueness guaranteed
        # either way (success or fallback).
        assert np.unique(rr.labels).size == nodes.size

    def test_deterministic(self, cfg, net):
        a = one_set(net, np.arange(15), cfg, SeedSequencer(10)).labels
        b = one_set(net, np.arange(15), cfg, SeedSequencer(10)).labels
        assert np.array_equal(a, b)


class TestBatchedMatchesOracle:
    """Relabel over many disjoint sets at once equals the per-set oracle:
    labels, universe, winning index and rounds of every set."""

    @given(
        sizes=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        c_log=st.sampled_from([1e-9, 0.4, 1.0, 4.0]),
        bandwidth=st.sampled_from([None, 8, 64]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_set_oracle(self, sizes, c_log, bandwidth, seed):
        """Under an 8-bit cap some labels, and at c_log = 4 the collision
        maps, are wider than the cap: they go out over several rounds,
        and no message exceeds the cap."""
        cfg = ColoringConfig.practical(c_log=c_log)
        net = BroadcastNetwork(complete_graph(64), bandwidth_bits=bandwidth)
        rng = np.random.default_rng(seed)
        order = rng.permutation(sum(sizes))  # sets interleaved in the call
        group = np.repeat(np.arange(len(sizes)), sizes)[order]
        nodes = rng.choice(10**5, size=group.size, replace=False)
        rr = relabel(net, nodes, group, cfg, SeedSequencer(seed), phase="p")
        assert net.metrics.rounds_in("p") == rr.rounds.max(initial=0)
        assert net.metrics.max_message_bits <= (bandwidth or np.inf)
        for g in range(int(group.max()) + 1 if group.size else 0):
            labels, universe, chosen, rounds = relabel_oracle(
                net, nodes[group == g], cfg, SeedSequencer(seed), phase="p"
            )
            assert np.array_equal(rr.labels[group == g], labels)
            assert np.unique(labels).size == labels.size
            assert (rr.label_universe[g], rr.chosen_index[g], rr.rounds[g]) == (
                universe, chosen, rounds
            )

    def test_fallback_in_a_shared_call(self, net):
        """One candidate index (tiny C): some sets collide and fall back
        to rank labels while the others keep their candidates."""
        cfg = ColoringConfig.practical(c_log=1e-9)
        group = np.repeat(np.arange(40), 12)
        rr = relabel(net, np.arange(group.size) * 7, group, cfg, SeedSequencer(3))
        assert 0 < (~rr.succeeded).sum() < 40
        for g in np.flatnonzero(~rr.succeeded):
            assert rr.labels[group == g].tolist() == list(range(12))
            assert rr.label_universe[g] == 12

    def test_label_bits_match_scalar_codec(self):
        universes = np.array([1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, 2**40 + 1])
        rr = RelabelResult(
            labels=np.empty(0, dtype=np.int64),
            label_universe=universes,
            chosen_index=np.zeros(universes.size, dtype=np.int64),
            rounds=np.zeros(universes.size, dtype=np.int64),
        )
        assert rr.label_bits.tolist() == [bits_for_int(int(u)) for u in universes]
