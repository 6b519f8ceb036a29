"""Seeded input generation for the benchmark workloads.

Everything here is numpy only and depends on nothing under ``src/``: a
change to the program's own graph generators never changes what the
benchmark feeds it.  The program receives only the arrays built here.

* :func:`geometric_graph` — random geometric graph on the unit square
  (grid-bucketed, fully vectorized).
* :func:`planted_graph` — planted almost-cliques plus a sparse periphery.
* :class:`ChurnMirror` — a mirror of the evolving topology that emits valid
  update batches (sliding-window edge resampling plus hand-offs) and is the
  reference topology the benchmark checks the program's colorings against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ChurnMirror", "geometric_graph", "planted_graph", "edge_keys"]

# Half of the 3x3 cell neighbourhood: every unordered pair of cells once.
_HALF_STENCIL = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """(m, 2) pairs → sorted unique keys ``lo·n + hi`` (self-loops dropped)."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    return np.unique(lo[keep] * n + hi[keep])


def _pairs(keys: np.ndarray, n: int) -> np.ndarray:
    return np.stack([keys // n, keys % n], axis=1)


def geometric_graph(
    n: int, avg_degree: float, rng: np.random.Generator
) -> np.ndarray:
    """Edges (lo < hi, sorted by key) of a random geometric graph with
    radius chosen for the given expected average degree."""
    radius = float(np.sqrt(avg_degree / (np.pi * n)))
    pts = rng.random((n, 2))
    side = max(1, int(1.0 / radius))  # cell width 1/side >= radius
    cx = np.minimum((pts[:, 0] * side).astype(np.int64), side - 1)
    cy = np.minimum((pts[:, 1] * side).astype(np.int64), side - 1)
    order = np.argsort(cx * side + cy, kind="stable")
    cx, cy, pts = cx[order], cy[order], pts[order]
    cell = cx * side + cy
    starts = np.searchsorted(cell, np.arange(side * side))
    ends = np.searchsorted(cell, np.arange(side * side), side="right")
    pos = np.arange(n, dtype=np.int64)
    us, vs = [], []
    for dx, dy in _HALF_STENCIL:
        ox, oy = cx + dx, cy + dy
        ok = (ox >= 0) & (ox < side) & (oy >= 0) & (oy < side)
        other = np.where(ok, ox * side + oy, 0)
        lo = np.where(ok, starts[other], 0)
        cnt = np.where(ok, ends[other] - lo, 0)
        i = np.repeat(pos, cnt)
        base = np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
        j = base + np.arange(i.size, dtype=np.int64)
        keep = np.sum((pts[i] - pts[j]) ** 2, axis=1) <= radius * radius
        if (dx, dy) == (0, 0):
            keep &= j > i
        us.append(i[keep])
        vs.append(j[keep])
    u, v = order[np.concatenate(us)], order[np.concatenate(vs)]
    return _pairs(edge_keys(np.stack([u, v], axis=1), n), n)


def planted_graph(
    num_cliques: int,
    clique_size: int,
    sparse_nodes: int,
    rng: np.random.Generator,
    eps: float = 0.1,
    sparse_degree: int = 8,
) -> tuple[int, np.ndarray]:
    """Planted ε-almost-cliques: each clique keeps every inside pair with
    probability ``1 − ε/8``; the sparse periphery wires only among itself
    (each sparse node draws ``sparse_degree`` random sparse partners), so
    the dense nodes set Δ."""
    n_dense = num_cliques * clique_size
    n = n_dense + sparse_nodes
    iu, jv = np.triu_indices(clique_size, k=1)
    keep = rng.random((num_cliques, iu.size)) >= eps / 8.0
    bases = (np.arange(num_cliques, dtype=np.int64) * clique_size)[:, None]
    inside = np.stack(
        [
            np.broadcast_to(bases + iu, keep.shape)[keep],
            np.broadcast_to(bases + jv, keep.shape)[keep],
        ],
        axis=1,
    )
    v = np.repeat(np.arange(n_dense, n, dtype=np.int64), sparse_degree)
    u = n_dense + rng.integers(0, sparse_nodes, size=v.size, dtype=np.int64)
    edges = np.concatenate([inside, np.stack([v, u], axis=1)])
    return n, _pairs(edge_keys(edges, n), n)


class ChurnMirror:
    """The benchmark's own copy of a churning topology.

    Each :meth:`next_batch` resamples ``churn_fraction`` of the live edges
    (uniform deletions, the same number of fresh uniform non-edges between
    live nodes — the sliding-window model) and hands off
    ``handoff_fraction`` of the nodes: they depart, and re-arrive
    ``return_after`` batches later attached to as many random live nodes as
    they had neighbours when they left.  Departures' incident edges are left to the
    engine's departure expansion, exactly as the event model specifies.

    After each call, :attr:`keys` holds the post-batch topology, which the
    benchmark uses to check the program's coloring independently.
    """

    def __init__(
        self,
        n: int,
        edges: np.ndarray,
        churn_fraction: float,
        handoff_fraction: float,
        return_after: int,
        rng: np.random.Generator,
    ) -> None:
        self.n = int(n)
        self.keys = edge_keys(np.asarray(edges, dtype=np.int64), self.n)
        self.alive = np.ones(self.n, dtype=bool)
        self.churn_fraction = float(churn_fraction)
        self.handoffs = int(round(handoff_fraction * self.n))
        self.return_after = int(return_after)
        self.rng = rng
        self._away: dict[int, np.ndarray] = {}
        self._left_degree = np.zeros(self.n, dtype=np.int64)
        self._t = 0

    def _fresh_keys(self, src: np.ndarray, pool: np.ndarray, taken: np.ndarray) -> np.ndarray:
        """One new edge per entry of ``src`` to a random ``pool`` node,
        never a self-loop, a live edge or a key in ``taken`` (sorted);
        redraws until every entry has an edge."""
        n, rng = self.n, self.rng
        out = np.empty(0, dtype=np.int64)
        pending = src
        while pending.size:
            dst = pool[rng.integers(0, pool.size, size=pending.size)]
            key = np.minimum(pending, dst) * n + np.maximum(pending, dst)
            ok = pending != dst
            for sorted_keys in (self.keys, taken, np.sort(out)):
                if sorted_keys.size:
                    at = np.minimum(np.searchsorted(sorted_keys, key), sorted_keys.size - 1)
                    ok &= sorted_keys[at] != key
            # First occurrence wins among duplicates drawn in this round.
            _, first = np.unique(np.where(ok, key, -1), return_index=True)
            won = np.zeros(key.size, dtype=bool)
            won[first] = True
            won &= ok
            out = np.concatenate([out, key[won]])
            pending = pending[~won]
        return out

    def next_batch(self) -> dict[str, np.ndarray]:
        """The next update batch as arrays (insert_edges, delete_edges,
        arrivals, departures); advances the mirror to the post-batch
        topology."""
        n, rng, keys = self.n, self.rng, self.keys
        t = self._t
        self._t += 1
        arrivals = self._away.pop(t - self.return_after, np.empty(0, dtype=np.int64))
        live = np.flatnonzero(self.alive)
        departures = np.sort(rng.choice(live, size=min(self.handoffs, live.size), replace=False))
        gone = np.zeros(n, dtype=bool)
        gone[departures] = True
        lo, hi = keys // n, keys % n
        incident = gone[lo] | gone[hi]

        # Sliding window: delete k live edges not already leaving with a
        # departure, insert k fresh pairs between staying live nodes.
        k = int(round(self.churn_fraction * keys.size))
        candidates = np.flatnonzero(~incident)
        drop = np.sort(candidates[rng.choice(candidates.size, size=k, replace=False)])
        staying = live[~gone[live]]
        fresh = self._fresh_keys(
            staying[rng.integers(0, staying.size, size=k)], staying, np.empty(0, np.int64)
        )
        # Returning nodes attach to as many staying nodes as they left with.
        attach = self._fresh_keys(
            np.repeat(arrivals, np.maximum(self._left_degree[arrivals], 1)),
            staying,
            np.sort(fresh),
        )
        inserted = np.sort(np.concatenate([fresh, attach]))

        self._left_degree[departures] = np.bincount(
            np.concatenate([lo[incident], hi[incident]]), minlength=n
        )[departures]
        keep = ~incident
        keep[drop] = False
        survivors = keys[keep]
        self.keys = np.insert(survivors, np.searchsorted(survivors, inserted), inserted)
        self.alive[departures] = False
        self.alive[arrivals] = True
        self._away[t] = departures
        return {
            "insert_edges": _pairs(inserted, n),
            "delete_edges": _pairs(keys[drop], n),
            "arrivals": arrivals,
            "departures": departures,
        }
