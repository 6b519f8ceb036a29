"""Tests for the bit-packed SWAR sketch estimator (DESIGN.md §4).

Covers the three contracts the ACD sketch rests on:

1. the packed estimator agrees *exactly* with the (T × m) match-count
   oracle in ``tests/helpers.py`` (property test over graphs,
   fingerprint widths, and sample counts crossing word boundaries);
2. both converge to the brute-force Jaccard similarity of closed
   neighborhoods on small random graphs;
3. the packing layout, the round accounting, and the `acd/sketch` phase
   timing behave as documented.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.decomposition.minhash as minhash_mod
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.hashing.fingerprints import pack_fingerprints, packed_words_per_node
from repro.graphs.generators import (
    complete_graph,
    gnp_graph,
    planted_acd_graph,
    ring_graph,
)
from repro.simulator.network import BroadcastNetwork
from tests.helpers import unpacked_edge_similarity

ESTIMATORS = {"packed": estimate_edge_similarity, "unpacked": unpacked_edge_similarity}


def sketch_pair(net, samples, bits, salt=0):
    """(packed estimate, oracle estimate) for one workload."""
    sk = compute_sketches(net, samples, bits, salt=salt)
    return estimate_edge_similarity(net, sk), unpacked_edge_similarity(net, sk)


class TestEngineEquivalence:
    """The packed estimator must agree with the oracle bit for bit."""

    GRAPHS = {
        "gnp-dense": lambda: gnp_graph(80, 0.4, seed=3),
        "gnp-sparse": lambda: gnp_graph(120, 0.03, seed=4),
        "planted": lambda: planted_acd_graph(3, 24, 0.1, sparse_nodes=30, seed=5),
        "complete": lambda: complete_graph(25),
        "ring": lambda: ring_graph(40),
        "star": lambda: (60, [(0, i) for i in range(1, 60)]),
        "empty": lambda: (10, []),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("bits,samples", [(1, 64), (2, 256), (3, 40), (16, 7)])
    def test_bit_identical_estimates(self, name, bits, samples):
        net = BroadcastNetwork(self.GRAPHS[name]())
        packed, unpacked = sketch_pair(net, samples, bits, salt=2)
        assert np.array_equal(packed, unpacked)
        # A sketch of only every other edge's endpoints, estimated on
        # those edges, reads the oracle's estimates there.
        edges = net.undirected_edges()[::2]
        sk = compute_sketches(net, samples, bits, salt=2, nodes=np.unique(edges))
        assert np.array_equal(estimate_edge_similarity(net, sk, edges), unpacked[::2])

    @given(
        n=st.integers(min_value=2, max_value=24),
        edges=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=60
        ),
        bits=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 11, 16]),
        samples=st.integers(min_value=1, max_value=70),
        chunk_edges=st.one_of(st.none(), st.integers(1, 9)),
    )
    @settings(max_examples=settings.default.max_examples * 3 // 5, deadline=None)
    def test_bit_identical_property(self, n, edges, bits, samples, chunk_edges):
        """``chunk_edges`` edges per estimator chunk (None: the default
        budget, one chunk here), so the edges span several chunks and
        end in a partial one."""
        edges = [(u % n, v % n) for u, v in edges]
        net = BroadcastNetwork((n, edges))
        budget = minhash_mod._CHUNK_BYTES
        if chunk_edges is not None:
            # A chunk holds ⌈T / ⌊64/b⌋⌉ uint64 words per edge.
            budget = 8 * packed_words_per_node(samples, bits) * chunk_edges
        with mock.patch.object(minhash_mod, "_CHUNK_BYTES", budget):
            packed, unpacked = sketch_pair(net, samples, bits, salt=1)
        assert np.array_equal(packed, unpacked)


class TestJaccardConvergence:
    """Estimates from the packed estimator and the oracle converge to the
    brute-force Jaccard similarity of closed neighborhoods."""

    @staticmethod
    def brute_force(net):
        edges = net.undirected_edges()
        out = np.empty(edges.shape[0])
        closed = [
            set(net.neighbors(v).tolist()) | {v} for v in range(net.n)
        ]
        for i, (u, v) in enumerate(edges):
            a, b = closed[int(u)], closed[int(v)]
            out[i] = len(a & b) / len(a | b)
        return out

    @pytest.mark.parametrize("engine", sorted(ESTIMATORS))
    @pytest.mark.parametrize("seed,p", [(0, 0.15), (1, 0.35)])
    def test_converges_on_gnp(self, engine, seed, p):
        net = BroadcastNetwork(gnp_graph(60, p, seed=seed))
        sk = compute_sketches(net, 2048, 4, salt=seed)
        est = ESTIMATORS[engine](net, sk)
        true = self.brute_force(net)
        err = np.abs(est - true)
        assert err.max() < 0.12
        assert err.mean() < 0.03

    @pytest.mark.parametrize("engine", sorted(ESTIMATORS))
    def test_clique_estimates_one(self, engine):
        net = BroadcastNetwork(complete_graph(16))
        sk = compute_sketches(net, 512, 2, salt=3)
        est = ESTIMATORS[engine](net, sk)
        assert est.min() > 0.95


class TestPacking:
    def test_layout_field_positions(self):
        # 3 samples, b=4 → 16 fields/word: sample j at bit offset 4j.
        fps = np.array([[5], [9], [3]], dtype=np.uint16)
        packed = pack_fingerprints(fps, 4)
        assert packed.shape == (1, 1)
        assert int(packed[0, 0]) == 5 | (9 << 4) | (3 << 8)

    def test_word_boundary(self):
        # b=2 → 32 fields/word; 33 samples need 2 words, tail zero-padded.
        fps = np.full((33, 2), 3, dtype=np.uint16)
        packed = pack_fingerprints(fps, 2)
        assert packed.shape == (2, 2)
        assert int(packed[0, 0]) == (1 << 64) - 1
        assert int(packed[0, 1]) == 3  # single sample in field 0
        assert packed_words_per_node(33, 2) == 2

    def test_node_major_rows(self):
        fps = np.array([[1, 2], [3, 0]], dtype=np.uint16)
        packed = pack_fingerprints(fps, 2)
        assert packed.shape == (2, 1)
        assert int(packed[0, 0]) == 1 | (3 << 2)
        assert int(packed[1, 0]) == 2

    def test_rejects_overwide_values(self):
        fps = np.array([[4]], dtype=np.uint16)
        with pytest.raises(ValueError, match="exceeds"):
            pack_fingerprints(fps, 2)

    @given(
        n=st.integers(1, 6),
        samples=st.integers(1, 40),
        bits=st.sampled_from([1, 2, 3, 5, 8, 13, 16]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_roundtrip(self, n, samples, bits, seed):
        rng = np.random.default_rng(seed)
        fps = rng.integers(0, 1 << bits, size=(samples, n), dtype=np.uint16)
        packed = pack_fingerprints(fps, bits)
        fields = 64 // bits
        words = packed_words_per_node(samples, bits)
        assert packed.shape == (n, words) and packed.dtype == np.uint64
        assert packed.flags.c_contiguous
        mask = np.uint64((1 << bits) - 1)
        for j in range(samples):
            w, f = divmod(j, fields)
            got = (packed[:, w] >> np.uint64(f * bits)) & mask
            assert np.array_equal(got.astype(np.uint16), fps[j])
        # Whole words: every bit outside a sample field (the unused tail
        # fields and the 64 mod b leftover bits) is zero, which the SWAR
        # estimator's exact match count relies on.
        for v in range(n):
            for w in range(words):
                word = range(w * fields, min((w + 1) * fields, samples))
                expect = sum(int(fps[j, v]) << ((j % fields) * bits) for j in word)
                assert int(packed[v, w]) == expect


class TestAccountingAndTiming:
    def test_closed_form_matches_per_round_loop(self):
        # 100 samples, 48-bit budget, b=2 → 24/round → 4 full + 1 partial.
        # Only the listed nodes send (None: all 12), one message a round.
        for nodes, senders in ((None, 12), ([0, 1], 2)):
            net = BroadcastNetwork(ring_graph(12), bandwidth_bits=48)
            compute_sketches(net, 100, 2, salt=0, nodes=nodes)
            stats = net.metrics.phases["acd/sketch"]
            assert stats.rounds == 5
            assert stats.messages == 5 * senders
            assert stats.total_bits == senders * 100 * 2  # every sample shipped once
            assert stats.max_message_bits == 48

    def test_exact_multiple_no_partial_round(self):
        net = BroadcastNetwork(ring_graph(8), bandwidth_bits=32)
        sk = compute_sketches(net, 64, 2, salt=0)
        assert sk.rounds_used == 4
        assert net.metrics.phases["acd/sketch"].rounds == 4

    def test_edge_without_a_row_refused(self):
        net = BroadcastNetwork(ring_graph(12))
        sk = compute_sketches(net, 64, 2, salt=0, nodes=[0, 1, 2])
        assert estimate_edge_similarity(net, sk, np.array([[0, 1], [1, 2]])).shape == (2,)
        with pytest.raises(ValueError, match="no row"):
            estimate_edge_similarity(net, sk)

    def test_sketch_phase_seconds_recorded(self):
        net = BroadcastNetwork(gnp_graph(80, 0.2, seed=0))
        net.metrics.begin_phase("setup")
        sk = compute_sketches(net, 64, 2, salt=0)
        estimate_edge_similarity(net, sk)
        net.metrics.stop_timer()
        assert net.metrics.phase_seconds["acd/sketch"] > 0
        # the nested timing was carved out of "setup", not double-counted
        assert "setup" in net.metrics.phase_seconds
