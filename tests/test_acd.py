"""Tests for the ε-almost-clique decomposition (Definition 2.2, Lemma 2.5)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.decomposition.acd as acd_mod
import repro.decomposition.minhash as minhash_mod
import repro.decomposition.validation as validation_mod
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
    clique_blob_graph,
    complete_graph,
    geometric_graph,
    gnp_graph,
    planted_acd_graph,
    ring_graph,
    star_graph,
)
from repro.simulator.metrics import PhaseStats
from repro.simulator.network import BroadcastNetwork
from repro.util.bitio import bits_for_id
from tests.helpers import (
    all_nodes_decomposition,
    outsider_counts_oracle,
    own_counts_oracle,
    repair_oracle,
)


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


def all_nodes_with_clusters(net, cfg):
    """`all_nodes_decomposition`, and the cluster labels its repair
    started from (all sparse when it never repairs)."""
    seen = [np.full(net.n, SPARSE, dtype=np.int64)]
    repair = acd_mod._repair

    def spy(net, labels, eps, iterations):
        seen.append(labels.copy())
        return repair(net, labels, eps, iterations)

    with mock.patch.object(acd_mod, "_repair", spy):
        want = all_nodes_decomposition(net, cfg)
    return want, seen[-1]


def acd_charge(net, cfg, clusters):
    """Each ``acd/*`` phase's account, recomputed from who speaks.  Every
    node sends a 1-bit candidate flag; the endpoints of the edges that
    touch a candidate (degree ≥ (1−2ε)Δ) send their T b-bit fingerprints,
    ⌊cap/b⌋ to a message; the dense nodes, which ``clusters`` labels,
    send two ids; and each repair pass's starting members send an id and
    the nodes it moved one bit (per pass, from `repair_oracle`).  An
    edgeless graph sends nothing."""
    if net.m == 0:
        return {}
    n, cap, id_bits = net.n, net.bandwidth_bits, bits_for_id(net.n)
    samples, b = cfg.acd_minhash_samples, acd_mod.MINHASH_BITS
    candidate = net.degrees >= (1.0 - 2.0 * cfg.eps) * max(net.delta, 1)
    edges = net.undirected_edges()
    senders = np.unique(edges[candidate[edges[:, 0]] | candidate[edges[:, 1]]]).size
    per_message = cap // b
    sketch_rounds = -(-samples // per_message)
    dense = int(np.count_nonzero(clusters >= 0))
    passes = repair_oracle(net, clusters, cfg.eps, acd_mod.REPAIR_PASSES)[1]
    members = sum(m for m, _ in passes)
    moved = sum(v for _, v in passes)
    return {
        "acd/sketch": PhaseStats(
            rounds=1 + sketch_rounds,
            messages=n + senders * sketch_rounds,
            total_bits=n + senders * samples * b,
            max_message_bits=min(samples, per_message) * b,
        ),
        "acd/cluster": PhaseStats(
            rounds=2,
            messages=2 * dense,
            total_bits=2 * dense * id_bits,
            max_message_bits=id_bits if dense else 0,
        ),
        "acd/repair": PhaseStats(
            rounds=2 * len(passes),
            messages=members + moved,
            total_bits=members * id_bits + moved,
            max_message_bits=max(id_bits if members else 0, 1 if moved else 0),
        ),
    }


class TestCandidateSketch:
    """The decomposition reads only the similarities of edges that touch a
    candidate (a node of degree ≥ (1−2ε)Δ).  Sketching and estimating just
    those must give the labels of the all-nodes oracle, in one more round
    (the candidate flag), billing only the nodes that speak."""

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
        want, clusters = all_nodes_with_clusters(want_net, cfg)
        assert np.array_equal(got.labels, want.labels)
        assert got.rounds_used == want.rounds_used + (got_net.m > 0)
        charge = acd_charge(got_net, cfg, clusters)
        assert got_net.metrics.total_bits == sum(s.total_bits for s in charge.values())

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.45, 0.5, 0.7])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @given(seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=settings.default.max_examples // 20, deadline=None)
    def test_charge_recomputed_from_senders(self, graph, eps, seed, data):
        """Every ``acd/*`` phase bills exactly its senders, under any cap
        from the config's down to one id (at ε ≥ 0.5 every node is a
        candidate)."""
        g = self.GRAPHS[graph](seed)
        cfg = ColoringConfig.practical(eps=eps, seed=seed)
        cap = data.draw(st.integers(bits_for_id(g[0]), cfg.bandwidth_bits(g[0])), label="cap")
        got_net, want_net = (BroadcastNetwork(g, bandwidth_bits=cap) for _ in "ab")
        got = decompose_distributed(got_net, cfg)
        want, clusters = all_nodes_with_clusters(want_net, cfg)
        assert np.array_equal(got.labels, want.labels)
        phases = {k: v for k, v in got_net.metrics.phases.items() if k.startswith("acd/")}
        assert phases == acd_charge(got_net, cfg, clusters)
        assert got.rounds_used == sum(s.rounds for s in phases.values())

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

    @given(labels=st.lists(st.integers(SPARSE, 12), max_size=60))
    @example(labels=[])
    @example(labels=[SPARSE] * 5)
    @example(labels=[5, SPARSE, 5, 9, 2, 9])
    @settings(max_examples=60, deadline=None)
    def test_clique_ids_match_the_per_id_loops(self, labels):
        """`_compact_labels` and `cliques` against the loops that scanned
        the labels once per clique id: gaps, k = 0, every node sparse."""
        labels = np.array(labels, dtype=np.int64)
        compact = np.full_like(labels, SPARSE)
        for new, old in enumerate(np.unique(labels[labels >= 0])):
            compact[labels == old] = new
        assert np.array_equal(acd_mod._compact_labels(labels), compact)
        acd = AlmostCliqueDecomposition(labels=labels, eps=0.1)
        loop = [np.flatnonzero(labels == i) for i in range(acd.num_cliques)]
        assert len(acd.cliques) == len(loop)
        for got, want in zip(acd.cliques, loop):
            assert got.dtype == np.int64 and np.array_equal(got, want)


def cluster_labels(net, cfg):
    """The labels `_build` hands the repair under exact similarities."""
    seen = [np.full(net.n, SPARSE, dtype=np.int64)]

    def spy(net, labels, eps, iterations):
        seen.append(labels.copy())
        return labels, []

    with mock.patch.object(acd_mod, "_repair", spy):
        decompose_exact(net, cfg)
    return seen[-1]


def validator_report(net, labels, eps):
    report = validate_decomposition(net, AlmostCliqueDecomposition(labels=labels, eps=eps))
    return report.as_dict(), report.details


class TestRepairMatchesOracle:
    """The repair reads each rule's counts from the CSR pairs; the oracle
    (`tests/helpers.py:repair_oracle`) recounts the (n × k) neighbor-label
    matrix before every rule.  Labels, per-pass senders and the
    validator's reports must be identical.  Perturbed labelings (merged
    cliques, evicted members, moved nodes, gaps) reach (2c) and (2a),
    which clean ones rarely do."""

    GRAPHS = {
        "planted": lambda seed: planted_acd_graph(3, 24, 0.1, sparse_nodes=24, seed=seed),
        "blob": lambda seed: clique_blob_graph(
            3, 24, anti_edges_per_clique=20, external_edges_per_clique=8, seed=seed
        ),
        "gnp": lambda seed: gnp_graph(60, 0.4, seed=seed),
    }

    @staticmethod
    def perturb(labels, data):
        labels = labels.copy()
        n, k = labels.size, int(labels.max(initial=SPARSE)) + 1
        if k:
            ids = st.integers(0, k - 1)
            for a, b in data.draw(st.lists(st.tuples(ids, ids), max_size=2)):
                labels[labels == b] = a
        labels[data.draw(st.lists(st.integers(0, n - 1), max_size=n // 4))] = SPARSE
        moves = st.tuples(st.integers(0, n - 1), st.integers(SPARSE, k + 2))
        for v, c in data.draw(st.lists(moves, max_size=8)):
            labels[v] = c
        return labels

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @given(
        seed=st.integers(0, 2**16),
        eps=st.sampled_from([0.05, 0.1, 0.2, 1 / 3]),
        iterations=st.integers(1, 5),
        perturbed=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=settings.default.max_examples // 4, deadline=None)
    def test_labels_passes_and_reports(self, graph, seed, eps, iterations, perturbed, data):
        net = BroadcastNetwork(self.GRAPHS[graph](seed))
        labels = cluster_labels(net, ColoringConfig.practical(eps=eps))
        if perturbed:
            labels = self.perturb(labels, data)
        got, got_senders = acd_mod._repair(net, labels, eps, iterations)
        want, want_senders = repair_oracle(net, labels, eps, iterations)
        assert np.array_equal(got, want)
        assert got_senders == want_senders
        for lab in (labels, got):
            report = validator_report(net, lab, eps)
            with mock.patch.multiple(
                validation_mod,
                _own_counts=own_counts_oracle,
                _outsider_counts=outsider_counts_oracle,
            ):
                assert report == validator_report(net, lab, eps)

    def test_oversized_clique_trimmed_in_one_pass(self):
        """(2a) sheds every member over ⌊(1+ε)Δ⌋ in one pass, the least
        connected first.  Two 20-cliques joined by a matching that misses
        nodes 0–3 and 20–23: labelled as one clique, those eight see 19 of
        it and the rest see Δ = 20."""
        edges = [
            (i, j) for b in (0, 20) for i in range(b, b + 20) for j in range(i + 1, b + 20)
        ] + [(i, i + 20) for i in range(4, 20)]
        net = BroadcastNetwork((40, edges))
        labels, senders = acd_mod._repair(net, np.zeros(40, dtype=np.int64), 0.2, 1)
        assert senders == [(40, 16)]  # one pass: 40 members send, 16 shed
        assert (labels >= 0).sum() == 24
        assert (labels[[0, 1, 2, 3, 20, 21, 22, 23]] == SPARSE).all()
        assert np.array_equal(labels, repair_oracle(net, np.zeros(40, dtype=np.int64), 0.2, 1)[0])


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
