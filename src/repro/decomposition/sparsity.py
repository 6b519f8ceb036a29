"""Exact local sparsity (Definition 2.1) via per-edge triangle counting.

``ζ_v = (1/Δ)·(C(Δ,2) − m(N(v)))`` where ``m(N(v))`` is the number of
edges induced by v's neighborhood — equivalently the number of triangles
through v.  The "missing neighbor counts as Δ missing edges" subtlety of
Definition 2.1 is automatic: a node of degree ``d < Δ`` can have at most
``C(d,2)`` induced edges, so the formula already charges it the deficit.

This is an analysis-side computation (used to characterize workloads, to
validate decompositions, and in the slack experiment E4); the distributed
algorithm never calls it.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.network import BroadcastNetwork, gather_csr_rows

__all__ = ["triangle_counts", "local_sparsity", "edge_common_neighbors"]

_CHUNK_ENTRIES = 1 << 20
"""Upper bound on the neighbor entries one chunk of edges gathers (an
edge whose row alone is longer gets a chunk to itself): a chunk's probe
arrays stay at a few MB each whatever m is."""


def edge_common_neighbors(net: BroadcastNetwork, closed: bool = False) -> np.ndarray:
    """For every undirected edge (u, v), in ``net.undirected_edges()``
    order, the size of ``N(u) ∩ N(v)``, or of ``N[u] ∩ N[v]`` when
    ``closed`` — the open count plus u and v.

    Each edge gathers the shorter of its two CSR rows (a hub's row is
    never gathered once per incident edge) and looks every entry w up
    as the directed key ``other·n + w``; a hit is a common neighbor.
    Rows are sorted, so the keys of the whole CSR are too."""
    edges = net.undirected_edges()
    out = np.zeros(edges.shape[0], dtype=np.int64)
    if not out.size:
        return out
    n, deg = net.n, net.degrees
    keys = net.edge_src * n + net.indices
    u, v = edges[:, 0], edges[:, 1]
    swap = deg[u] > deg[v]
    row, other = np.where(swap, v, u), np.where(swap, u, v)
    ends = np.cumsum(deg[row])
    lo = 0
    while lo < out.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, base + _CHUNK_ENTRIES, side="right"))
        hi = max(hi, lo + 1)
        w = gather_csr_rows(net.indptr, net.indices, row[lo:hi])
        owner = np.repeat(np.arange(hi - lo), deg[row[lo:hi]])
        probe = other[lo:hi][owner] * n + w
        pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
        out[lo:hi] = np.bincount(owner[keys[pos] == probe], minlength=hi - lo)
        lo = hi
    return out + 2 if closed else out


def triangle_counts(net: BroadcastNetwork) -> np.ndarray:
    """Number of triangles through each node — i.e. ``m(N(v))``."""
    n = net.n
    t = np.zeros(n, dtype=np.int64)
    edges = net.undirected_edges()
    if edges.size == 0:
        return t
    tri_per_edge = edge_common_neighbors(net, closed=False)
    # Each triangle (v,u,w) contributes to edges (v,u) and (v,w) at v;
    # summing per-edge triangle counts over incident edges double counts.
    np.add.at(t, edges[:, 0], tri_per_edge)
    np.add.at(t, edges[:, 1], tri_per_edge)
    assert np.all(t % 2 == 0)
    return t // 2


def local_sparsity(net: BroadcastNetwork) -> np.ndarray:
    """ζ_v for every node (Definition 2.1), as float64."""
    delta = max(net.delta, 1)
    max_edges = delta * (delta - 1) / 2.0
    t = triangle_counts(net)
    return (max_edges - t.astype(np.float64)) / delta
