"""Tests for the broadcast network substrate (repro.simulator.network)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.families import make_graph
from repro.simulator.messages import Broadcast, color_message
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import BandwidthExceeded, BroadcastNetwork


def edges_strategy(max_n=12):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=30,
            ),
        )
    )


class TestConstruction:
    def test_from_pair(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        assert net.n == 3
        assert net.m == 2
        assert net.delta == 2

    def test_from_networkx(self):
        import networkx as nx

        g = nx.path_graph(5)
        net = BroadcastNetwork(g)
        assert net.n == 5
        assert net.m == 4

    def test_self_loops_dropped(self):
        net = BroadcastNetwork((3, [(0, 0), (0, 1)]))
        assert net.m == 1

    def test_parallel_edges_collapse(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 0), (0, 1)]))
        assert net.m == 1

    def test_out_of_range_edge_raises(self):
        with pytest.raises(ValueError):
            BroadcastNetwork((2, [(0, 5)]))

    def test_empty_graph(self):
        net = BroadcastNetwork((4, []))
        assert net.m == 0
        assert net.delta == 0
        assert net.neighbors(0).size == 0

    def test_degrees_and_neighbors_consistent(self):
        net = BroadcastNetwork((4, [(0, 1), (0, 2), (0, 3)]))
        assert net.degree(0) == 3
        assert sorted(net.neighbors(0).tolist()) == [1, 2, 3]
        assert net.degree(1) == 1

    def test_adjacency_set_and_has_edge(self):
        net = BroadcastNetwork((4, [(0, 1), (2, 3)]))
        assert net.has_edge(0, 1) and net.has_edge(1, 0)
        assert not net.has_edge(0, 2)
        assert net.adjacency_set(2) == {3}

    @given(edges_strategy())
    @settings(max_examples=30, deadline=None)
    def test_csr_symmetry(self, graph):
        net = BroadcastNetwork(graph)
        for v in range(net.n):
            for u in net.neighbors(v):
                assert v in net.neighbors(int(u))

    @given(edges_strategy())
    @settings(max_examples=40, deadline=None)
    def test_single_sort_construction_matches_reference(self, graph):
        """The one-lexsort CSR build (edges deduped in sorted order,
        ``_und_edges`` = the src < dst half) must reproduce the reference
        construction: np.unique over canonicalized pairs + a second
        lexsort of both directions."""
        net = BroadcastNetwork(graph)
        n, edge_list = graph
        edges = np.array(
            [(u, v) for u, v in edge_list if u != v], dtype=np.int64
        ).reshape(-1, 2)
        if edges.size:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            und = np.unique(np.stack([lo, hi], axis=1), axis=0)
            src = np.concatenate([und[:, 0], und[:, 1]])
            dst = np.concatenate([und[:, 1], und[:, 0]])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
        else:
            und = edges
            src = dst = np.empty(0, dtype=np.int64)
        assert np.array_equal(net.undirected_edges(), und)
        assert np.array_equal(net.edge_src, src)
        assert np.array_equal(net.indices, dst)
        assert net.m == und.shape[0]

    def test_und_edges_sorted_and_neighbors_sorted(self):
        net = BroadcastNetwork((6, [(4, 1), (2, 0), (1, 0), (5, 2), (2, 1)]))
        und = net.undirected_edges()
        assert (und[:, 0] < und[:, 1]).all()
        key = und[:, 0] * 6 + und[:, 1]
        assert (np.diff(key) > 0).all()
        for v in range(net.n):
            nbrs = net.neighbors(v)
            assert (np.diff(nbrs) > 0).all() if nbrs.size > 1 else True


class TestRowEdges:
    """``row_edges(nodes)`` is the edge view every node-set kernel scans:
    a membership filter over it keeps the same pairs, in the same order,
    as the same filter over ``(edge_src, indices)``."""

    @staticmethod
    def assert_filter_matches(net, nodes):
        member = np.zeros(net.n, dtype=bool)
        member[nodes] = True
        src, dst = net.row_edges(nodes)
        keep = member[src]
        ref = member[net.edge_src]
        np.testing.assert_array_equal(src[keep], net.edge_src[ref])
        np.testing.assert_array_equal(dst[keep], net.indices[ref])
        volume = int(net.degrees[nodes].sum())
        if 2 * volume <= net.indices.size:
            # At most half the pairs: exactly the set's rows.
            assert src.size == volume and keep.all()
        else:
            # Past the half-volume switch: the arrays themselves.
            assert src is net.edge_src and dst is net.indices

    @staticmethod
    def node_sets(net, rng):
        """Empty, single, isolated, all, random, and the two sets on
        either side of the half-volume switch (a random order's prefixes
        whose volume is the last at most m and the first above it)."""
        n = net.n
        sets = [
            np.empty(0, dtype=np.int64),
            np.array([int(rng.integers(n))]),
            np.flatnonzero(net.degrees == 0),
            np.arange(n),
            np.flatnonzero(rng.random(n) < 0.3),
        ]
        order = rng.permutation(n)
        cum = np.cumsum(net.degrees[order])
        cut = int(np.searchsorted(cum, net.m, side="right"))
        sets.append(np.sort(order[:cut]))
        if cut < n:
            sets.append(np.sort(order[: cut + 1]))
        return sets

    @given(
        family=st.sampled_from(["gnp", "geometric", "planted"]),
        n=st.integers(min_value=8, max_value=120),
        seed=st.integers(min_value=0, max_value=10_000),
        deltas=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_filter_matches_full_arrays(self, family, n, seed, deltas):
        n0, edges = make_graph(family, n, 6.0, seed)
        # Three isolated nodes past the generator's range.
        net = BroadcastNetwork((n0 + 3, edges))
        rng = np.random.default_rng(seed)
        for _ in range(deltas + 1):
            for nodes in self.node_sets(net, rng):
                self.assert_filter_matches(net, nodes)
            und = net.undirected_edges()
            net.apply_delta(
                rng.integers(0, n0, size=(int(rng.integers(0, 12)), 2)),
                und[rng.random(und.shape[0]) < 0.2],
            )

    def test_switch_is_at_half_the_pairs(self):
        # A path 0-1-2-3-4: 8 directed pairs; degrees 1, 2, 2, 2, 1.
        net = BroadcastNetwork((5, [(i, i + 1) for i in range(4)]))
        src, dst = net.row_edges(np.array([0, 1, 4]))  # 4 of 8 pairs
        assert src.tolist() == [0, 1, 1, 4]
        assert dst.tolist() == [1, 0, 2, 3]
        src, dst = net.row_edges(np.array([0, 1, 2]))  # 5 of 8 pairs
        assert src is net.edge_src and dst is net.indices

    def test_undirected_edges_cached_until_the_topology_changes(self):
        net = BroadcastNetwork((4, [(0, 1), (1, 2)]))
        first = net.undirected_edges()
        assert net.undirected_edges() is first
        net.apply_delta(insert_edges=np.array([[2, 3]]))
        assert net.undirected_edges().tolist() == [[0, 1], [1, 2], [2, 3]]
        assert net.m == 3


class TestSubgraphDegrees:
    def test_all_members(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        mask = np.ones(3, dtype=bool)
        assert net.subgraph_degrees(mask).tolist() == [2, 2, 2]

    def test_partial_members(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        mask = np.array([True, False, True])
        assert net.subgraph_degrees(mask).tolist() == [1, 2, 1]

    def test_no_members(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        assert net.subgraph_degrees(np.zeros(3, dtype=bool)).sum() == 0


class TestBroadcastRound:
    def test_delivery_to_neighbors_only(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        inboxes = net.broadcast_round({0: color_message(1, 4)})
        assert len(inboxes[1]) == 1
        assert inboxes[1][0][0] == 0
        assert inboxes[2] == []

    def test_silent_nodes_receive(self):
        net = BroadcastNetwork((2, [(0, 1)]))
        inboxes = net.broadcast_round({0: color_message(0, 4)})
        assert inboxes[0] == []  # sender hears nothing (no broadcasting nbr)
        assert len(inboxes[1]) == 1

    def test_restrict_to(self):
        net = BroadcastNetwork((3, [(0, 1), (0, 2)]))
        inboxes = net.broadcast_round({0: color_message(0, 4)}, restrict_to=[1])
        assert set(inboxes.keys()) == {1}

    def test_rounds_counted(self):
        net = BroadcastNetwork((2, [(0, 1)]))
        net.broadcast_round({0: color_message(0, 4)})
        net.broadcast_round({1: color_message(1, 4)})
        assert net.metrics.total_rounds == 2

    def test_bandwidth_enforced(self):
        net = BroadcastNetwork((2, [(0, 1)]), bandwidth_bits=8)
        with pytest.raises(BandwidthExceeded):
            net.broadcast_round({0: Broadcast(payload=0, bits=9)})

    def test_bandwidth_ok_at_cap(self):
        net = BroadcastNetwork((2, [(0, 1)]), bandwidth_bits=8)
        net.broadcast_round({0: Broadcast(payload=0, bits=8)})
        assert net.metrics.max_message_bits == 8

    def test_unknown_sender_raises(self):
        net = BroadcastNetwork((2, [(0, 1)]))
        with pytest.raises(ValueError):
            net.broadcast_round({5: color_message(0, 4)})

    def test_vector_round_bandwidth_enforced(self):
        net = BroadcastNetwork((2, [(0, 1)]), bandwidth_bits=8)
        with pytest.raises(BandwidthExceeded):
            net.account_vector_round(1, 9)


class TestVectorCollectives:
    def test_neighbor_min(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        vals = np.array([5, 3, 9])
        out = net.neighbor_min(vals, default=99)
        assert out.tolist() == [3, 5, 3]

    def test_neighbor_min_isolated_default(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        out = net.neighbor_min(np.array([1, 2, 3]), default=-7)
        assert out[2] == -7

    def test_neighbor_sum(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        out = net.neighbor_sum(np.array([1, 2, 4]))
        assert out.tolist() == [6, 5, 3]

    def test_neighbor_any(self):
        net = BroadcastNetwork((4, [(0, 1), (2, 3)]))
        flags = np.array([True, False, False, False])
        out = net.neighbor_any(flags)
        assert out.tolist() == [False, True, False, False]

    @given(edges_strategy())
    @settings(max_examples=25, deadline=None)
    def test_neighbor_sum_matches_bruteforce(self, graph):
        net = BroadcastNetwork(graph)
        vals = np.arange(net.n, dtype=np.int64)
        out = net.neighbor_sum(vals)
        for v in range(net.n):
            assert out[v] == sum(vals[u] for u in net.neighbors(v))


class TestSharedMetrics:
    def test_external_metrics_object(self):
        metrics = RoundMetrics()
        net = BroadcastNetwork((2, [(0, 1)]), metrics=metrics)
        net.account_vector_round(2, 4, phase="p")
        assert metrics.rounds_in("p") == 1
        assert metrics.total_bits == 8
