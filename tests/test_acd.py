"""Tests for the ε-almost-clique decomposition (Definition 2.2, Lemma 2.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.decomposition.acd as acd_mod
import repro.decomposition.minhash as minhash_mod
from repro.config import ColoringConfig
from repro.decomposition.acd import (
    SPARSE,
    AlmostCliqueDecomposition,
    decompose_distributed,
    decompose_exact,
)
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.decomposition.validation import validate_decomposition
from repro.graphs.generators import (
    complete_graph,
    geometric_graph,
    gnp_graph,
    planted_acd_graph,
    ring_graph,
    star_graph,
)
from repro.simulator.network import BroadcastNetwork
from tests.helpers import all_nodes_decomposition


@pytest.fixture
def cfg():
    return ColoringConfig.practical()


def planted(cfg, num=4, size=40, sparse=40, seed=7):
    g = planted_acd_graph(num, size, cfg.eps, sparse_nodes=sparse, seed=seed)
    return BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))


class TestExactDecomposition:
    def test_recovers_planted_cliques(self, cfg):
        net = planted(cfg)
        acd = decompose_exact(net, cfg)
        assert acd.num_cliques == 4
        # Ground truth: blocks of 40.
        for c in range(4):
            members = acd.members(c)
            assert np.unique(members // 40).size == 1

    def test_sparse_periphery_stays_sparse(self, cfg):
        net = planted(cfg)
        acd = decompose_exact(net, cfg)
        assert (acd.labels[160:] == SPARSE).all()

    def test_validates(self, cfg):
        net = planted(cfg)
        report = validate_decomposition(net, decompose_exact(net, cfg))
        assert report.ok, report.details

    def test_gnp_all_sparse(self, cfg):
        net = BroadcastNetwork(gnp_graph(200, 0.05, seed=1))
        acd = decompose_exact(net, cfg)
        assert acd.num_cliques == 0
        assert acd.sparse_nodes.size == 200

    def test_single_clique(self, cfg):
        net = BroadcastNetwork(complete_graph(30))
        acd = decompose_exact(net, cfg)
        assert acd.num_cliques == 1
        assert acd.members(0).size == 30

    def test_ring_all_sparse(self, cfg):
        net = BroadcastNetwork(ring_graph(30))
        acd = decompose_exact(net, cfg)
        assert acd.num_cliques == 0

    def test_empty_graph(self, cfg):
        net = BroadcastNetwork((10, []))
        acd = decompose_exact(net, cfg)
        assert acd.num_cliques == 0
        assert acd.sparse_nodes.size == 10


class TestDistributedDecomposition:
    def test_matches_exact_on_planted(self, cfg):
        net = planted(cfg)
        exact = decompose_exact(net, cfg)
        dist = decompose_distributed(net, cfg)
        # Same clustering up to clique relabeling.
        assert dist.num_cliques == exact.num_cliques
        for c in range(dist.num_cliques):
            members = dist.members(c)
            assert np.unique(exact.labels[members]).size == 1

    def test_validates(self, cfg):
        net = planted(cfg, seed=11)
        report = validate_decomposition(net, decompose_distributed(net, cfg))
        assert report.ok, report.details

    def test_rounds_accounted(self, cfg):
        net = planted(cfg)
        acd = decompose_distributed(net, cfg)
        assert acd.rounds_used > 0
        assert net.metrics.rounds_in("acd/sketch") > 0

    def test_bandwidth_respected(self, cfg):
        net = planted(cfg)
        decompose_distributed(net, cfg)
        assert net.metrics.max_message_bits <= net.bandwidth_bits

    def test_deterministic_given_seed(self, cfg):
        net1 = planted(cfg)
        net2 = planted(cfg)
        a = decompose_distributed(net1, cfg)
        b = decompose_distributed(net2, cfg)
        assert np.array_equal(a.labels, b.labels)


def ring_with_hub(ring: int) -> tuple[int, list[tuple[int, int]]]:
    """A ring of ``ring`` nodes plus hub ``ring`` adjacent to every other
    ring node: the hub sets Δ = ring/2, and at small ε it is the only node
    of degree ≥ (1−2ε)Δ."""
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    return ring + 1, edges + [(ring, i) for i in range(0, ring, 2)]


class TestCandidateSketch:
    """The decomposition reads only the similarities of edges that touch a
    candidate (a node of degree ≥ (1−2ε)Δ).  Sketching and estimating just
    those must give the labels, rounds and bits of the all-nodes oracle."""

    GRAPHS = {
        "planted": lambda seed: planted_acd_graph(3, 20, 0.1, sparse_nodes=20, seed=seed),
        "star": lambda seed: star_graph(25 + seed % 8),
        "edgeless": lambda seed: (12, []),
        "ring-hub": lambda seed: ring_with_hub(40 + 2 * (seed % 8)),
        "gnp": lambda seed: gnp_graph(60, 0.15, seed=seed),
        "geometric": lambda seed: geometric_graph(80, 0.2, seed=seed),
    }

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.45, 0.5, 0.7])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_matches_all_nodes_oracle(self, graph, eps, seed):
        g = self.GRAPHS[graph](seed)
        cfg = ColoringConfig.practical(eps=eps, seed=seed)

        got_net, want_net = (
            BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0])) for _ in "ab"
        )
        got = decompose_distributed(got_net, cfg)
        want = all_nodes_decomposition(want_net, cfg)
        assert np.array_equal(got.labels, want.labels)
        assert got.rounds_used == want.rounds_used
        assert got_net.metrics.total_bits == want_net.metrics.total_bits

    def test_sketches_only_around_the_hub(self, monkeypatch):
        """With the hub the only candidate, only N[hub] is fingerprinted
        and only the hub's edges are estimated."""
        n, edges = ring_with_hub(40)
        net = BroadcastNetwork((n, edges))
        seen = {}
        fingerprint, estimate = minhash_mod.minwise_fingerprints, acd_mod.estimate_edge_similarity

        def fingerprint_spy(*args, nodes=None, **kwargs):
            seen["nodes"] = nodes
            return fingerprint(*args, nodes=nodes, **kwargs)

        def estimate_spy(net, sketch, edges=None):
            seen["edges"] = edges
            return estimate(net, sketch, edges)

        monkeypatch.setattr(minhash_mod, "minwise_fingerprints", fingerprint_spy)
        monkeypatch.setattr(acd_mod, "estimate_edge_similarity", estimate_spy)
        decompose_distributed(net, ColoringConfig.practical(eps=0.1))
        hub = n - 1
        assert seen["nodes"].tolist() == list(range(0, 40, 2)) + [hub]
        assert (seen["edges"] == hub).any(axis=1).all()
        assert len(seen["edges"]) == 20


class TestSimilaritySketches:
    def test_estimates_close_to_truth_in_clique(self, cfg):
        net = BroadcastNetwork(
            complete_graph(20), bandwidth_bits=cfg.bandwidth_bits(20)
        )
        sk = compute_sketches(net, 256, 2, salt=1)
        est = estimate_edge_similarity(net, sk)
        # True closed-neighborhood Jaccard = 1 inside a clique.
        assert est.min() > 0.9

    def test_low_similarity_across_sparse_graph(self, cfg):
        net = BroadcastNetwork(ring_graph(40), bandwidth_bits=cfg.bandwidth_bits(40))
        sk = compute_sketches(net, 256, 2, salt=2)
        est = estimate_edge_similarity(net, sk)
        # Ring edges share 0 of 5 closed-union nodes → Jaccard 2/4 = 0.5.
        assert est.mean() < 0.75

    def test_round_count_scales_with_samples(self, cfg):
        net = BroadcastNetwork(ring_graph(16), bandwidth_bits=32)
        sk = compute_sketches(net, 64, 2, salt=0)
        # 32 bits/round at 2 bits/sample → 16 samples per round → 4 rounds.
        assert sk.rounds_used == 4


class TestDecompositionObject:
    def test_members_and_cache_invalidation(self):
        """Clique member lists are built once and cached; labels are never
        written after construction, so a new labelling is a new object."""
        labels = np.array([0, 0, SPARSE, 1])
        acd = AlmostCliqueDecomposition(labels=labels, eps=0.1)
        assert acd.num_cliques == 2
        assert acd.members(0).tolist() == [0, 1]
        assert acd.members(1) is acd.members(1)
        assert acd.sparse_nodes.tolist() == [2]
        relabeled = AlmostCliqueDecomposition(
            labels=np.array([0, 0, 1, 1]), eps=0.1
        )
        assert relabeled.members(1).tolist() == [2, 3]
        assert acd.members(1).tolist() == [3]

    def test_empty_labels(self):
        acd = AlmostCliqueDecomposition(labels=np.full(3, SPARSE), eps=0.1)
        assert acd.num_cliques == 0
        assert acd.cliques == []


class TestJoinAdmission:
    """The vectorized (2c) quota admission (`_admit_joins`)."""

    def _admit(self, cands, quota):
        from repro.decomposition.acd import _admit_joins

        v = np.array([c[0] for c in cands], dtype=np.int64)
        c = np.array([c[1] for c in cands], dtype=np.int64)
        cnt = np.array([c[2] for c in cands], dtype=np.int64)
        jv, jc = _admit_joins(v, c, cnt, np.asarray(quota, dtype=np.int64))
        return dict(zip(jv.tolist(), jc.tolist()))

    def test_best_count_wins_under_quota(self):
        joined = self._admit([(1, 0, 5), (2, 0, 7), (3, 0, 6)], [2])
        assert joined == {2: 0, 3: 0}

    def test_fallback_to_next_clique_when_best_is_full(self):
        # Node 1's best clique (0) has no headroom; the old sequential scan
        # joined it to clique 1 instead — so must the vectorized join.
        joined = self._admit([(1, 0, 6), (1, 1, 5)], [0, 2])
        assert joined == {1: 1}

    def test_fallback_after_losing_rank_race(self):
        # Clique 0 has one slot: node 2 (count 7) takes it; node 1 falls
        # back to clique 1.
        joined = self._admit([(1, 0, 6), (2, 0, 7), (1, 1, 4)], [1, 1])
        assert joined == {2: 0, 1: 1}

    def test_no_admission_when_all_full(self):
        assert self._admit([(1, 0, 6), (2, 1, 5)], [0, 0]) == {}

    def test_each_node_joins_at_most_once(self):
        joined = self._admit([(1, 0, 6), (1, 1, 6), (1, 2, 6)], [3, 3, 3])
        assert len(joined) == 1


class TestValidator:
    def test_flags_oversized_clique(self, cfg):
        # Claim a huge "clique" over a sparse gnp graph: must fail 2a/2b.
        net = BroadcastNetwork(gnp_graph(50, 0.1, seed=0))
        labels = np.zeros(50, dtype=np.int64)
        acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
        report = validate_decomposition(net, acd, check_sparsity=False)
        assert not report.ok
        assert report.violations_member_degree > 0

    def test_flags_nonsparse_eviction(self, cfg):
        # Mark clique members sparse: property (1) must flag them.
        net = BroadcastNetwork(complete_graph(20))
        acd = AlmostCliqueDecomposition(labels=np.full(20, SPARSE), eps=cfg.eps)
        report = validate_decomposition(net, acd)
        assert report.violations_sparsity == 20

    def test_ok_report_dict(self, cfg):
        net = planted(cfg)
        report = validate_decomposition(net, decompose_exact(net, cfg))
        d = report.as_dict()
        assert d["ok"] is True
        assert d["num_cliques"] == 4
