"""Tests for the pseudorandomness substrate (repro.hashing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.fingerprints as fingerprints_mod
from repro.hashing.fingerprints import (
    hash_array_u64,
    hash_u64,
    minwise_fingerprints,
    refresh_minwise_fingerprints,
)
from repro.hashing.prg import RepresentativeSampler, expand_colors, expand_indices
from repro.simulator.network import BroadcastNetwork
from repro.graphs.generators import complete_graph


class TestSplitmix:
    def test_scalar_deterministic(self):
        assert hash_u64(42, salt=1) == hash_u64(42, salt=1)

    def test_salt_matters(self):
        assert hash_u64(42, salt=1) != hash_u64(42, salt=2)

    def test_vector_matches_scalar(self):
        vals = np.array([0, 1, 7, 123456], dtype=np.int64)
        out = hash_array_u64(vals, salt=3)
        for v, h in zip(vals, out):
            assert int(h) == hash_u64(int(v), salt=3)

    def test_range_is_64bit(self):
        h = hash_array_u64(np.arange(100), salt=0)
        assert h.dtype == np.uint64

    def test_avalanche_rough(self):
        # Adjacent inputs should differ in ~half the bits on average.
        h = hash_array_u64(np.arange(1000), salt=0)
        diffs = np.bitwise_xor(h[:-1], h[1:])
        popcounts = np.array([bin(int(d)).count("1") for d in diffs])
        assert 24 < popcounts.mean() < 40


class TestExpand:
    def test_deterministic(self):
        assert np.array_equal(expand_indices(9, 10, 100), expand_indices(9, 10, 100))

    def test_seed_matters(self):
        assert not np.array_equal(expand_indices(9, 20, 100), expand_indices(10, 20, 100))

    def test_within_universe(self):
        out = expand_indices(5, 50, 7)
        assert out.min() >= 0 and out.max() < 7

    def test_empty_cases(self):
        assert expand_indices(1, 0, 10).size == 0
        assert expand_indices(1, 5, 0).size == 0
        assert expand_colors(1, 5, []).size == 0

    def test_expand_colors_maps_through_list(self):
        colors = np.array([10, 20, 30])
        out = expand_colors(3, 8, colors)
        assert set(out.tolist()) <= {10, 20, 30}

    @given(st.integers(0, 2**62), st.integers(1, 64), st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_length_property(self, seed, k, universe):
        assert expand_indices(seed, k, universe).size == k

    def test_sampler_roundtrip(self):
        rng = np.random.default_rng(0)
        s = RepresentativeSampler(rng)
        seed = s.draw_seed()
        a = s.expand(seed, 5, [1, 2, 3])
        b = RepresentativeSampler.expand(seed, 5, [1, 2, 3])
        assert np.array_equal(a, b)


class TestMinwise:
    def test_identical_neighborhoods_identical_fingerprints(self):
        # In a clique all closed neighborhoods coincide.
        net = BroadcastNetwork(complete_graph(8))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 16, bits=4, salt=0)
        assert (fps == fps[:, :1]).all()

    def test_disjoint_neighborhoods_mostly_differ(self):
        # Two disjoint cliques: collision rate ≈ 2^-b.
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        net = BroadcastNetwork((12, edges))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 256, bits=4, salt=1)
        rate = (fps[:, 0] == fps[:, 6]).mean()
        assert rate < 0.25  # 2^-4 = 0.0625 plus noise

    def test_shape_and_dtype(self):
        net = BroadcastNetwork((4, [(0, 1)]))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 10, bits=2)
        assert fps.shape == (10, 4)
        assert fps.dtype == np.uint16

    def test_bits_bound_respected(self):
        net = BroadcastNetwork((4, [(0, 1), (2, 3)]))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 30, bits=3)
        assert fps.max() < 8

    def test_invalid_bits_raises(self):
        import pytest

        net = BroadcastNetwork((2, [(0, 1)]))
        with pytest.raises(ValueError):
            minwise_fingerprints(net.indptr, net.indices, net.n, 4, bits=0)

    GRAPHS = {
        # a 6-node path, a lone edge, and isolated node 6
        "mixed": (9, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5), (7, 8)]),
        "star": (12, [(0, i) for i in range(1, 12)]),  # Δ = n − 1
        "edgeless": (5, []),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("per_chunk", [None, 1, 4])
    def test_batched_matches_naive_per_sample(self, name, per_chunk, monkeypatch):
        """The chunk-batched kernel must equal the definition: per sample,
        fingerprint[v] = (min over N[v] of the 32-bit hash) & mask — also
        across chunk boundaries (``per_chunk`` samples per chunk; None
        keeps the default budget, one chunk here) and for the in-place
        refresh, which runs the same kernel."""
        net = BroadcastNetwork(self.GRAPHS[name])
        if per_chunk is not None:
            row_bytes = 4 * (net.n + net.indices.size)
            monkeypatch.setattr(fingerprints_mod, "_CHUNK_BYTES", row_bytes * per_chunk)
        T, bits, salt = 37, 3, 5
        got = minwise_fingerprints(net.indptr, net.indices, net.n, T, bits, salt=salt)
        ids = np.arange(net.n, dtype=np.int64)
        for j in range(T):
            h = (hash_array_u64(ids, salt=salt * T + j) >> np.uint64(32)).astype(
                np.uint32
            )
            for v in range(net.n):
                closed = np.append(net.neighbors(v), v)
                expect = int(h[closed].min()) & ((1 << bits) - 1)
                assert int(got[j, v]) == expect
        stale = got ^ np.uint16(1)
        refresh_minwise_fingerprints(
            net.indptr, net.indices, net.n, T, bits, salt, stale, ids
        )
        assert np.array_equal(stale, got)

    def test_isolated_node_fingerprint_is_own_hash(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 8, bits=4, salt=2)
        ids = np.arange(3, dtype=np.int64)
        for j in range(8):
            h = (hash_array_u64(ids, salt=2 * 8 + j) >> np.uint64(32)).astype(np.uint32)
            assert int(fps[j, 2]) == int(h[2]) & 0xF


class TestRefresh:
    """refresh_minwise_fingerprints: the delta-aware sketch maintenance
    kernel must be byte-identical to a full recompute on the refreshed
    columns and must not touch any other column."""

    @given(st.integers(0, 2**31), st.integers(2, 40), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_refresh_matches_full_recompute(self, seed, n, samples):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 3 * n))
        edges = rng.integers(0, n, size=(m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        net = BroadcastNetwork((n, edges))
        bits = int(rng.integers(1, 17))
        salt = int(rng.integers(0, 2**30))
        fresh = minwise_fingerprints(
            net.indptr, net.indices, net.n, samples, bits, salt=salt
        )
        # Corrupt a random subset of columns, refresh exactly those, and
        # demand the corruption is fully healed while the rest is intact.
        k = int(rng.integers(0, n + 1))
        nodes = rng.choice(n, size=k, replace=False)
        stale = fresh.copy()
        stale[:, nodes] ^= 1
        out = refresh_minwise_fingerprints(
            net.indptr, net.indices, net.n, samples, bits, salt, stale, nodes
        )
        assert out is stale  # in-place, returned for chaining
        assert np.array_equal(stale, fresh)

    def test_refresh_validates(self):
        import pytest

        net = BroadcastNetwork((4, [(0, 1)]))
        fps = minwise_fingerprints(net.indptr, net.indices, 4, 5, 3, salt=0)
        with pytest.raises(ValueError):
            refresh_minwise_fingerprints(
                net.indptr, net.indices, 4, 5, 3, 0, fps, np.array([4])
            )
        with pytest.raises(ValueError):
            refresh_minwise_fingerprints(
                net.indptr, net.indices, 4, 6, 3, 0, fps, np.array([0])
            )
