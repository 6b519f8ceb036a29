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
)
from repro.simulator.network import BroadcastNetwork
from repro.graphs.generators import complete_graph, star_graph


def record_slot_plans(monkeypatch):
    """Patch the fingerprint kernel's planner to record every
    ``(samples per chunk, plan)`` it builds."""
    seen = []
    slot_plan = fingerprints_mod._slot_plan

    def spy(indptr, indices, chunk):
        seen.append((chunk, slot_plan(indptr, indices, chunk)))
        return seen[-1][1]

    monkeypatch.setattr(fingerprints_mod, "_slot_plan", spy)
    return seen


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
        # degrees 11, 4, 3, 2, 1 and 0: hub 9, isolated node 0
        "classes": (
            13,
            [(9, i) for i in (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12)]
            + [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (6, 7), (10, 11),
               (11, 12), (12, 10)],
        ),
    }
    # (samples per chunk, slot cut-off in rows per pass): None keeps the
    # default constant.  A cut-off of 0 runs slot passes only, 10**9 the
    # hub fold only, and 5 both on every graph with edges.
    CHUNKINGS = [
        pytest.param(p, c, id=f"{p}{tag}")
        for c, tag in ((None, ""), (0, "-slots"), (5, "-both"), (10**9, "-fold"))
        for p in (None, 1, 4)
    ]

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("per_chunk,cut_rows", CHUNKINGS)
    def test_batched_matches_naive_per_sample(
        self, name, per_chunk, cut_rows, monkeypatch
    ):
        """The kernel must equal the definition: per sample,
        fingerprint[v] = (min over N[v] of the 32-bit hash) & mask — across
        chunk boundaries (``per_chunk`` samples per chunk; None keeps the
        default budget, one chunk here), through the slot passes and the
        hub fold (``cut_rows``), and for the subset entry, which runs the
        same kernel."""
        net = BroadcastNetwork(self.GRAPHS[name])
        T, bits, salt = 37, 3, 5
        chunk = per_chunk or T
        if per_chunk is not None:
            # A chunk's hash grid holds 4 bytes per node per sample.
            monkeypatch.setattr(fingerprints_mod, "_CHUNK_BYTES", 4 * net.n * per_chunk)
        if cut_rows is not None:
            monkeypatch.setattr(fingerprints_mod, "_SLOT_MIN_LANES", cut_rows * chunk)
        seen = record_slot_plans(monkeypatch)
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
        assert [c for c, _ in seen] == [chunk]
        if cut_rows is not None and net.m:
            for _, plan in seen:
                assert bool(plan.slots) == (cut_rows < 10**9)
                assert bool(plan.tail_starts.size) == (cut_rows > 0)
        # The subset entry on no node, an isolated node (if any), a hub
        # alone, nodes whose closed neighborhoods span a strict subset of V
        # (renumbered into it) and every node in reverse (the universe is
        # V: no renumbering).
        deg = net.degrees
        subsets = [
            [],
            np.flatnonzero(deg == 0)[:1],
            [int(deg.argmax())],
            [net.n - 2, net.n - 1],
            ids[::-1],
        ]
        spanned = [
            np.union1d(s, net.indices[np.isin(net.edge_src, s)]).size for s in subsets
        ]
        assert spanned[3] < net.n and spanned[4] == net.n
        for s in subsets:
            s = np.asarray(s, dtype=np.int64)
            sub = minwise_fingerprints(
                net.indptr, net.indices, net.n, T, bits, salt=salt, nodes=s
            )
            assert sub.shape == (T, s.size)
            assert np.array_equal(sub, got[:, s])

    def test_hub_folds_through_the_tail(self, monkeypatch):
        """On a star with n = 10⁵ the kernel makes one slot pass per chunk
        (every leaf's only neighbor) and folds the hub's other 99 998
        neighbors through the tail, instead of one pass per slot up to Δ."""
        n, T, bits = 10**5, 20, 2
        net = BroadcastNetwork(star_graph(n))
        seen = record_slot_plans(monkeypatch)
        got = minwise_fingerprints(net.indptr, net.indices, n, T, bits, salt=1)
        ((_, plan),) = seen
        assert [nbr.size for nbr in plan.slots] == [n]
        assert plan.order[0] == 0 and plan.tail_starts.tolist() == [0]
        assert np.array_equal(np.sort(plan.tail), np.arange(2, n))
        # Spot-check against the definition: the hub sees every node,
        # a leaf itself and the hub.
        ids = np.arange(n, dtype=np.int64)
        for j in (0, T - 1):
            h = hash_array_u64(ids, salt=T + j) >> np.uint64(32)
            assert int(got[j, 0]) == int(h.min()) & 3
            leaves = np.minimum(h[1:], h[0]) & np.uint64(3)
            assert np.array_equal(got[j, 1:], leaves.astype(np.uint16))

    def test_isolated_node_fingerprint_is_own_hash(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 8, bits=4, salt=2)
        ids = np.arange(3, dtype=np.int64)
        for j in range(8):
            h = (hash_array_u64(ids, salt=2 * 8 + j) >> np.uint64(32)).astype(np.uint32)
            assert int(fps[j, 2]) == int(h[2]) & 0xF


class TestRefresh:
    """The subset entry ``minwise_fingerprints(..., nodes=)``, which
    recomputes the columns of the nodes whose neighborhoods changed, must
    equal the matching columns of the full grid for any node set."""

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
        k = int(rng.integers(0, n + 1))
        nodes = rng.choice(n, size=k, replace=False)
        sub = minwise_fingerprints(
            net.indptr, net.indices, net.n, samples, bits, salt=salt, nodes=nodes
        )
        assert np.array_equal(sub, fresh[:, nodes])
        with pytest.raises(ValueError, match="out of range"):
            minwise_fingerprints(
                net.indptr, net.indices, net.n, samples, bits, salt=salt,
                nodes=np.append(nodes, n),
            )
