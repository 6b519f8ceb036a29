"""Tests for distributed permutation sampling (Algorithms 4–5, §4)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.config import ColoringConfig
from repro.core.permute import (
    _loglog_draws,
    permute_constant,
    permute_loglog,
    sample_permutation,
)
from repro.graphs.generators import clique_blob_graph, complete_graph
from repro.hashing.prg import derive_seed_item, expand_indices_item
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from tests.helpers import permute_loglog_oracle


@pytest.fixture
def cfg():
    return ColoringConfig.practical()


@pytest.fixture
def net(cfg):
    n = 80
    return BroadcastNetwork(complete_graph(n), bandwidth_bits=cfg.bandwidth_bits(n))


def one_clique(permute_fn, net, members, subset, cfg, seq, **kw):
    """Permute ``subset`` of the single clique ``members``."""
    subset = np.asarray(subset, dtype=np.int64)
    group = np.zeros(subset.size, dtype=np.int64)
    return permute_fn(net, [np.asarray(members)], subset, group, cfg, seq, **kw)


@pytest.mark.parametrize("permute_fn", [permute_loglog, permute_constant])
class TestBothAlgorithms:
    def test_output_is_bijection(self, cfg, net, permute_fn):
        members = np.arange(80)
        subset = np.arange(0, 80, 2)
        res = one_clique(permute_fn, net, members, subset, cfg, SeedSequencer(1))
        assert res.validate()
        assert np.array_equal(np.sort(res.pi), np.arange(subset.size))

    def test_subset_equals_members(self, cfg, net, permute_fn):
        members = np.arange(80)
        res = one_clique(permute_fn, net, members, members, cfg, SeedSequencer(2))
        assert res.validate()

    def test_empty_subset(self, cfg, net, permute_fn):
        res = one_clique(permute_fn, net, np.arange(80), [], cfg, SeedSequencer(3))
        assert res.pi.size == 0
        assert res.rounds[0] == 0

    def test_singleton_subset(self, cfg, net, permute_fn):
        res = one_clique(permute_fn, net, np.arange(80), [5], cfg, SeedSequencer(4))
        assert res.pi.tolist() == [0]

    def test_deterministic(self, cfg, net, permute_fn):
        members = np.arange(80)
        subset = np.arange(40)
        a = one_clique(permute_fn, net, members, subset, cfg, SeedSequencer(7)).pi
        b = one_clique(permute_fn, net, members, subset, cfg, SeedSequencer(7)).pi
        assert np.array_equal(a, b)

    def test_seed_changes_permutation(self, cfg, net, permute_fn):
        members = np.arange(80)
        subset = np.arange(40)
        a = one_clique(permute_fn, net, members, subset, cfg, SeedSequencer(8)).pi
        b = one_clique(permute_fn, net, members, subset, cfg, SeedSequencer(9)).pi
        assert not np.array_equal(a, b)

    def test_account_false_no_rounds(self, cfg, net, permute_fn):
        members = np.arange(80)
        one_clique(
            permute_fn, net, members, members[:30], cfg, SeedSequencer(5), phase="px",
            account=False,
        )
        assert net.metrics.rounds_in("px") == 0

    def test_rounds_positive_when_accounting(self, cfg, net, permute_fn):
        members = np.arange(80)
        res = one_clique(permute_fn, net, members, members[:30], cfg, SeedSequencer(6), phase="py")
        assert res.rounds[0] > 0
        assert net.metrics.rounds_in("py") > 0

    def test_works_on_blob_clique(self, cfg, permute_fn):
        g = clique_blob_graph(1, 60, anti_edges_per_clique=100, seed=2)
        net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(60))
        members = np.arange(60)
        res = one_clique(permute_fn, net, members, members[5:55], cfg, SeedSequencer(10))
        assert res.validate()


class TestUniformity:
    def test_positions_approximately_uniform(self, cfg, net):
        """Lemma 4.4/4.5: each node's position is near-uniform.  Chi-square
        over many samples for a fixed node's position."""
        members = np.arange(80)
        subset = np.arange(8)
        counts = np.zeros(8, dtype=np.int64)
        trials = 400
        for s in range(trials):
            res = one_clique(sample_permutation, net, members, subset, cfg, SeedSequencer(s))
            counts[res.pi[0]] += 1
        _, p_value = scipy_stats.chisquare(counts)
        assert p_value > 1e-4  # not obviously non-uniform

    def test_all_permutations_reachable_small(self, cfg, net):
        members = np.arange(80)
        subset = np.arange(3)
        seen = set()
        for s in range(120):
            res = one_clique(sample_permutation, net, members, subset, cfg, SeedSequencer(s))
            seen.add(tuple(res.pi.tolist()))
        assert len(seen) == 6  # all 3! permutations occur


class TestDispatch:
    def test_dispatch_follows_config(self, net):
        members = np.arange(80)
        subset = np.arange(20)
        cfg5 = ColoringConfig.practical(permute_constant_round=True)
        cfg4 = ColoringConfig.practical(permute_constant_round=False)
        r5 = one_clique(sample_permutation, net, members, subset, cfg5, SeedSequencer(1))
        r4 = one_clique(sample_permutation, net, members, subset, cfg4, SeedSequencer(1))
        assert r5.validate() and r4.validate()

    def test_loglog_has_no_leftover_field_use(self, cfg, net):
        res = one_clique(permute_loglog, net, np.arange(80), np.arange(20), cfg, SeedSequencer(2))
        assert res.leftover.tolist() == [0]


def partitioned(sizes, bandwidth_factor=None, **cfg_kw):
    """A complete graph cut into consecutive cliques of ``sizes``: the
    member arrays and a network whose Δ prices the bucket counts."""
    cfg = ColoringConfig.practical(**cfg_kw)
    n = max(int(sum(sizes)), 2)
    bw = None if bandwidth_factor is None else replace(
        cfg, bandwidth_factor=bandwidth_factor
    ).bandwidth_bits(n)
    net = BroadcastNetwork(complete_graph(n), bandwidth_bits=bw)
    bounds = np.cumsum([0, *sizes])
    return cfg, net, [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def subsets_of(cliques, rng, frac):
    """S of every clique (each member kept with probability ``frac``), by
    clique and then by ID, and the clique of each node."""
    parts = [m[rng.random(m.size) < frac] for m in cliques]
    subset = np.concatenate(parts).astype(np.int64)
    group = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    return parts, subset, group


def assert_matches_oracle(net, cliques, parts, subset, group, cfg, seed):
    res = permute_loglog(net, cliques, subset, group, cfg, SeedSequencer(seed), phase="p")
    assert res.validate()
    oracle = [
        permute_loglog_oracle(net, m, s, cfg, SeedSequencer(seed), phase="p")
        for m, s in zip(cliques, parts)
    ]
    expected_pi = np.concatenate([o[0] for o in oracle]).astype(np.int64)
    assert np.array_equal(res.pi, expected_pi)
    assert res.rounds.tolist() == [o[1] for o in oracle]
    assert res.relabel_failures.tolist() == [o[2] for o in oracle]
    assert res.buckets.tolist() == [o[3] for o in oracle]
    return res


class TestBatchedDraws:
    @given(
        nodes=st.lists(st.integers(0, 10**6), min_size=0, max_size=40, unique=True),
        k=st.integers(1, 50),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bucket_and_priority_match_item_derivation(self, nodes, k, seed):
        """Each bucket and ρ key is the node's own per-node derivation,
        whatever other nodes share the call (Lemma 2.14's symmetry)."""
        seq = SeedSequencer(seed)
        subset = np.asarray(nodes, dtype=np.int64)
        widths = np.full(subset.size, k, dtype=np.int64)
        bucket, prio = _loglog_draws(seq, "p", subset, widths)
        bucket_base = seq.derive_seed("permute4", "p")
        rho_base = seq.derive_seed("rho", "p")
        for v, b, r in zip(nodes, bucket.tolist(), prio.tolist()):
            assert b == int(expand_indices_item(derive_seed_item(v, bucket_base), 1, k)[0])
            assert r == derive_seed_item(v, rho_base)


class TestBatchedMatchesOracle:
    """Algorithm 4 over many cliques at once equals the clique-by-clique,
    bucket-by-bucket oracle in π, rounds, Relabel failures and buckets."""

    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        frac=st.sampled_from([0.0, 0.3, 1.0]),
        c_log=st.sampled_from([0.05, 0.4, 1.0, 50.0]),
        bandwidth=st.sampled_from([None, 0.5, 4.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_clique_oracle(self, sizes, frac, c_log, bandwidth, seed):
        cfg, net, cliques = partitioned(sizes, bandwidth, c_log=c_log)
        parts, subset, group = subsets_of(cliques, np.random.default_rng(seed), frac)
        assert_matches_oracle(net, cliques, parts, subset, group, cfg, seed)

    def test_empty_and_singleton_sets(self):
        cfg, net, cliques = partitioned([30, 12, 25, 8])
        parts = [np.empty(0, dtype=np.int64), np.array([31]), cliques[2][::2], cliques[3]]
        subset = np.concatenate(parts)
        group = np.repeat(np.arange(4), [p.size for p in parts])
        res = assert_matches_oracle(net, cliques, parts, subset, group, cfg, 3)
        assert res.rounds[0] == 0 and res.buckets[0] == 0
        assert res.pi[0] == 0  # the singleton
        res = assert_matches_oracle(
            net, cliques, [np.empty(0, dtype=np.int64)] * 4,
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), cfg, 3,
        )
        assert res.rounds.tolist() == [0, 0, 0, 0]

    def test_bucket_count_clamped_to_one(self):
        """With C log n above Δ, every clique is one bucket and ρ alone
        orders it."""
        cfg, net, cliques = partitioned([20, 35], c_log=50.0)
        parts, subset, group = subsets_of(cliques, np.random.default_rng(4), 0.6)
        res = assert_matches_oracle(net, cliques, parts, subset, group, cfg, 4)
        assert res.buckets.tolist() == [1, 1]

    def test_relabel_fallback(self):
        """One candidate index (tiny C) and buckets of a few nodes: some
        bucket's only column collides, its labels fall back to ranks, and
        its ``label_bits`` come from the rank universe."""
        cfg, net, cliques = partitioned([12, 9, 14, 10, 11], c_log=0.4)
        failures = 0
        for seed in range(60):
            parts, subset, group = subsets_of(cliques, np.random.default_rng(seed), 1.0)
            res = assert_matches_oracle(net, cliques, parts, subset, group, cfg, seed)
            failures += int(res.relabel_failures.sum())
        assert failures > 0


class TestBatchedQuality:
    def test_bijection_in_every_clique(self):
        cfg, net, cliques = partitioned([40, 7, 33, 1, 19])
        for seed in range(20):
            parts, subset, group = subsets_of(cliques, np.random.default_rng(seed), 0.7)
            res = sample_permutation(net, cliques, subset, group, cfg, SeedSequencer(seed))
            for q, part in enumerate(parts):
                assert sorted(res.pi[group == q].tolist()) == list(range(part.size))

    def test_position_uniform_with_two_cliques(self):
        """Node 0's position, with a second clique sharing every call."""
        cfg, net, cliques = partitioned([40, 40])
        subset = np.concatenate([np.arange(8), np.arange(40, 52)])
        group = np.repeat([0, 1], [8, 12])
        counts = np.zeros(8, dtype=np.int64)
        for s in range(400):
            res = sample_permutation(net, cliques, subset, group, cfg, SeedSequencer(s))
            counts[res.pi[0]] += 1
        _, p_value = scipy_stats.chisquare(counts)
        assert p_value > 1e-4
