"""Tests for exact sparsity / triangle counting (Definition 2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import sparsity
from repro.decomposition.sparsity import (
    edge_common_neighbors,
    local_sparsity,
    triangle_counts,
)
from repro.graphs.generators import complete_graph, gnp_graph, ring_graph, star_graph
from repro.simulator.network import BroadcastNetwork


def brute_triangles(net):
    t = np.zeros(net.n, dtype=np.int64)
    for v in range(net.n):
        nbrs = [int(u) for u in net.neighbors(v)]
        count = 0
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if net.has_edge(nbrs[i], nbrs[j]):
                    count += 1
        t[v] = count
    return t


class TestTriangleCounts:
    def test_triangle(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        assert triangle_counts(net).tolist() == [1, 1, 1]

    def test_path_no_triangles(self):
        net = BroadcastNetwork((4, [(0, 1), (1, 2), (2, 3)]))
        assert triangle_counts(net).sum() == 0

    def test_clique(self):
        net = BroadcastNetwork(complete_graph(6))
        # Each node: C(5,2) = 10 triangles through it.
        assert (triangle_counts(net) == 10).all()

    def test_star_no_triangles(self):
        net = BroadcastNetwork(star_graph(8))
        assert triangle_counts(net).sum() == 0

    def test_empty(self):
        net = BroadcastNetwork((5, []))
        assert triangle_counts(net).sum() == 0

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce(self, edges):
        net = BroadcastNetwork((10, edges))
        assert np.array_equal(triangle_counts(net), brute_triangles(net))

    def test_small_block_size_consistent(self, monkeypatch):
        """A chunk bound below one row puts every edge in a chunk of its
        own; the counts still match brute force."""
        monkeypatch.setattr(sparsity, "_CHUNK_ENTRIES", 1)
        for net in (
            BroadcastNetwork(complete_graph(9)),
            BroadcastNetwork(gnp_graph(40, 0.3, seed=1)),
        ):
            assert np.array_equal(triangle_counts(net), brute_triangles(net))


class TestEdgeCommonNeighbors:
    def test_open_triangle(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        # Every edge of a triangle has exactly 1 common neighbor.
        assert edge_common_neighbors(net).tolist() == [1, 1, 1]

    def test_closed_includes_endpoints(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        # N[u] ∩ N[v] over an edge of a triangle = all 3 nodes.
        assert edge_common_neighbors(net, closed=True).tolist() == [3, 3, 3]

    def test_path_edge_no_common(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        assert edge_common_neighbors(net).tolist() == [0, 0]

    def test_closed_path_edge(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        # For edge (0,1): N[0]={0,1}, N[1]={0,1,2} → 2 common.
        assert edge_common_neighbors(net, closed=True).tolist() == [2, 2]

    def test_empty_edges(self):
        net = BroadcastNetwork((3, []))
        assert edge_common_neighbors(net).size == 0


class TestLocalSparsity:
    def test_clique_is_zero_sparse(self):
        net = BroadcastNetwork(complete_graph(8))
        zeta = local_sparsity(net)
        assert np.allclose(zeta, 0.0)

    def test_ring_sparsity(self):
        net = BroadcastNetwork(ring_graph(10))
        # Δ=2, triangles 0 → ζ = (1 - 0)/2 = 0.5 for every node.
        assert np.allclose(local_sparsity(net), 0.5)

    def test_low_degree_penalized(self):
        # Star center vs leaves: leaves have tiny degree → huge deficit.
        net = BroadcastNetwork(star_graph(10))
        zeta = local_sparsity(net)
        assert zeta[1] > zeta[0] * 0.99  # leaves at least as sparse as hub

    def test_matches_definition(self):
        net = BroadcastNetwork((4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
        delta = net.delta  # 3
        t = triangle_counts(net)
        zeta = local_sparsity(net)
        expected = (delta * (delta - 1) / 2 - t) / delta
        assert np.allclose(zeta, expected)

    def test_nonnegative(self):
        net = BroadcastNetwork(complete_graph(5))
        assert (local_sparsity(net) >= -1e-9).all()
