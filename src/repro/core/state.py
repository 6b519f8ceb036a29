"""Partial colorings, palettes, uncolored degrees and slack (§2, §2.2).

:class:`ColoringState` is the mutable heart of the pipeline.  It maintains
the paper's invariants as hard assertions:

* **monotonicity** — once ``C(v)`` is fixed it never changes (§2,
  "monotone sequence of colorings");
* **propriety** — :meth:`adopt` refuses any batch that would put the same
  color on two adjacent nodes (either against already-colored neighbors or
  within the adopting batch itself).

Everything is vectorized over the network's CSR arrays; the node-set
kernels (:meth:`ColoringState.adopt`, :meth:`ColoringState.grouped_palettes`)
read only their nodes' rows (:meth:`BroadcastNetwork.row_edges`), and the
whole-graph checks (:meth:`ColoringState.is_proper`, and ``adopt`` for a
batch whose rows hold most pairs) read each undirected edge once.
Palettes are materialized per node on demand (the palette of
Definition 2.10 is the complement of the colored neighborhood).
"""

from __future__ import annotations

import numpy as np

from repro.simulator.network import BroadcastNetwork, sorted_unique

__all__ = [
    "ColoringState",
    "GroupedPalettes",
    "ImproperColoring",
    "count_distinct_colors",
]

UNCOLORED = -1


def count_distinct_colors(colors: np.ndarray) -> int:
    """Number of distinct colors (non-negative entries) in ``colors``: the
    nonzero bins of one ``np.bincount``, O(len + max color).  A color range
    far wider than the array (only an adopted coloring can have one) is
    counted by a sort instead, so the bins never outgrow the input."""
    used = colors[colors >= 0]
    if not used.size:
        return 0
    if int(used.max()) > 4 * used.size:
        return int(np.unique(used).size)
    return int(np.count_nonzero(np.bincount(used)))


class ImproperColoring(AssertionError):
    """Raised when an adoption batch would violate propriety."""


class GroupedPalettes:
    """Batch view of the palettes Ψ(v) ∩ [lo(v), hi(v)) for a set of nodes,
    without materializing any per-node color list.

    The forbidden colors (distinct colored-neighbor colors inside each
    node's interval) are held as one flat *sorted* key array
    ``row·span + color`` with per-row segment ``offsets`` — the grouped
    form every consumer queries with ``searchsorted``.  ``sizes[i]`` is
    |Ψ(nodes[i]) ∩ [lo, hi)|; :meth:`kth_color` maps a per-node palette
    rank to the actual color by binary search on the complement rank, so
    uniform palette sampling is ``rank = floor(u·size)`` plus one call —
    no per-node Python (the vectorized TryColor samplers are built on
    this; see :func:`repro.core.trycolor.palette_sampler`).
    """

    def __init__(
        self,
        keys: np.ndarray,
        offsets: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        sizes: np.ndarray,
        span: int,
    ):
        self.keys = keys
        self.offsets = offsets
        self.lo = lo
        self.hi = hi
        self.sizes = sizes
        self.span = span

    def kth_color(self, ranks: np.ndarray) -> np.ndarray:
        """The rank-th smallest palette color per node (−1 where the rank
        falls outside ``[0, sizes[i])``, e.g. for empty palettes).

        Vectorized binary search: ``free(c) = (c − lo + 1) − #forbidden ≤ c``
        counts the free colors in ``[lo, c]`` and increases exactly at free
        colors, so the smallest ``c`` with ``free(c) = rank+1`` is the
        answer; ``#forbidden ≤ c`` is one ``searchsorted`` against the
        grouped keys per bisection step.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        b = ranks.size
        out = np.full(b, -1, dtype=np.int64)
        ok = (ranks >= 0) & (ranks < self.sizes)
        if not ok.any():
            return out
        rows = np.arange(b, dtype=np.int64)
        target = ranks + 1
        lo_b = self.lo.astype(np.int64).copy()
        hi_b = self.hi.astype(np.int64) - 1
        base = rows * self.span
        seg_start = self.offsets[:-1]
        while True:
            open_ = ok & (lo_b < hi_b)
            if not open_.any():
                break
            mid = (lo_b + hi_b) >> 1
            forb_le = (
                np.searchsorted(self.keys, base + mid, side="right") - seg_start
            )
            ge = (mid - self.lo + 1) - forb_le >= target
            hi_b = np.where(open_ & ge, mid, hi_b)
            lo_b = np.where(open_ & ~ge, mid + 1, lo_b)
        out[ok] = lo_b[ok]
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform color from each node's palette (−1 where empty)."""
        u = rng.random(self.sizes.size)
        ranks = np.minimum(
            (u * self.sizes).astype(np.int64), np.maximum(self.sizes - 1, 0)
        )
        return self.kth_color(ranks)


class ColoringState:
    """A partial (Δ+1)-coloring of the network's graph.

    Parameters
    ----------
    net:
        The communication graph.
    num_colors:
        Palette size; defaults to Δ+1 (the problem's palette ``[Δ+1]``).
    """

    def __init__(self, net: BroadcastNetwork, num_colors: int | None = None):
        self.net = net
        self.n = net.n
        self.delta = net.delta
        self.num_colors = int(num_colors) if num_colors is not None else self.delta + 1
        if self.num_colors < 1:
            self.num_colors = 1
        self.colors = np.full(self.n, UNCOLORED, dtype=np.int64)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def uncolored_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.colors < 0)

    def num_uncolored(self) -> int:
        return int((self.colors < 0).sum())

    def uncolored_degrees(self) -> np.ndarray:
        """d̂(v): number of uncolored neighbors, for every node."""
        return self.net.subgraph_degrees(self.colors < 0)

    def neighbor_color_set(self, v: int) -> set[int]:
        """Colors currently used in N(v)."""
        cols = self.colors[self.net.neighbors(v)]
        return set(int(c) for c in cols[cols >= 0])

    def palette(self, v: int) -> np.ndarray:
        """Ψ(v) (Definition 2.10): colors of [num_colors] unused in N(v)."""
        used = np.zeros(self.num_colors, dtype=bool)
        cols = self.colors[self.net.neighbors(v)]
        cols = cols[(cols >= 0) & (cols < self.num_colors)]
        used[cols] = True
        return np.flatnonzero(~used).astype(np.int64)

    def palette_sizes(self) -> np.ndarray:
        """|Ψ(v)| for every node, vectorized: num_colors − #distinct colors
        in the neighborhood."""
        src = self.net.edge_src
        dst_colors = self.colors[self.net.indices]
        ok = dst_colors >= 0
        if not ok.any():
            return np.full(self.n, self.num_colors, dtype=np.int64)
        # Count distinct (src, color) pairs via sorting.
        pairs = src[ok].astype(np.int64) * (self.num_colors + 1) + dst_colors[ok]
        uniq = sorted_unique(pairs)
        distinct = np.bincount(uniq // (self.num_colors + 1), minlength=self.n)
        return self.num_colors - distinct.astype(np.int64)

    def grouped_palettes(
        self,
        nodes: np.ndarray,
        lo: np.ndarray | int = 0,
        hi: np.ndarray | int | None = None,
    ) -> GroupedPalettes:
        """Grouped palettes Ψ(v) ∩ [lo(v), hi(v)) for a batch of (distinct)
        nodes — the shared helper behind the vectorized TryColor samplers.

        ``lo``/``hi`` are scalars or per-node arrays indexed by *node id*
        (the convention of the interval samplers); intervals are clipped to
        ``[0, num_colors)``, matching :meth:`palette`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        b = nodes.size
        lo_v = (lo[nodes] if isinstance(lo, np.ndarray) else np.full(b, lo)).astype(
            np.int64
        )
        if hi is None:
            hi_v = np.full(b, self.num_colors, dtype=np.int64)
        else:
            hi_v = (hi[nodes] if isinstance(hi, np.ndarray) else np.full(b, hi)).astype(
                np.int64
            )
        lo_v = np.clip(lo_v, 0, self.num_colors)
        hi_v = np.clip(hi_v, 0, self.num_colors)
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[nodes] = np.arange(b)
        src, dst = self.net.row_edges(nodes)
        rows = pos[src]
        cols = self.colors[dst]
        keep = (rows >= 0) & (cols >= 0)
        rows, cols = rows[keep], cols[keep]
        in_interval = (cols >= lo_v[rows]) & (cols < hi_v[rows])
        rows, cols = rows[in_interval], cols[in_interval]
        span = self.num_colors + 1
        keys = sorted_unique(rows * span + cols)
        counts = np.bincount(keys // span, minlength=b)
        offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
        sizes = np.maximum(hi_v - lo_v, 0) - counts
        return GroupedPalettes(keys, offsets, lo_v, hi_v, sizes, span)

    def slack(self) -> np.ndarray:
        """s(v) = |Ψ(v)| − d̂(v) (Definition 2.11), for every node."""
        return self.palette_sizes() - self.uncolored_degrees()

    def count_colors_used(self) -> int:
        return count_distinct_colors(self.colors)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def adopt(self, nodes: np.ndarray, new_colors: np.ndarray) -> None:
        """Color ``nodes[i]`` with ``new_colors[i]``; all-or-nothing with
        full validation (monotonicity, range, propriety)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        new_colors = np.asarray(new_colors, dtype=np.int64)
        if nodes.size == 0:
            return
        if nodes.size != new_colors.size:
            raise ValueError("nodes/new_colors length mismatch")
        ordered = np.sort(nodes)
        if (ordered[1:] == ordered[:-1]).any():
            raise ImproperColoring("duplicate nodes in adoption batch")
        if (self.colors[nodes] >= 0).any():
            raise ImproperColoring("monotonicity violation: recoloring a node")
        if ((new_colors < 0) | (new_colors >= self.num_colors)).any():
            raise ImproperColoring("color out of palette range")
        proposal = self.colors.copy()
        proposal[nodes] = new_colors
        touched = np.zeros(self.n, dtype=bool)
        touched[nodes] = True
        net = self.net
        if 2 * int(net.degrees[nodes].sum()) > net.indices.size:
            # A batch whose rows hold most pairs reads each undirected edge
            # once; only a monochromatic edge that touches the batch sends
            # it on to the row scan below, which names the first such edge.
            mono = net.undirected_edges()[self._monochromatic(proposal)]
            if not touched[mono].any():
                self.colors = proposal
                return
        # Edge-wise propriety check on the would-be coloring, restricted to
        # edges touching the batch: the batch's own CSR rows, in CSR order,
        # so the first offending edge is the one a full scan would name.
        src, dst = net.row_edges(ordered)
        rel = touched[src]
        bad = (
            rel
            & (proposal[src] >= 0)
            & (proposal[src] == proposal[dst])
        )
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ImproperColoring(
                f"edge ({src[k]}, {dst[k]}) would be monochromatic "
                f"(color {proposal[src[k]]})"
            )
        self.colors = proposal

    # ------------------------------------------------------------------
    # Global checks
    # ------------------------------------------------------------------
    def is_proper(self) -> bool:
        """No monochromatic edge among colored endpoints."""
        return not bool(self._monochromatic(self.colors).any())

    def _monochromatic(self, colors: np.ndarray) -> np.ndarray:
        """Mask over ``net.undirected_edges()``: both endpoints hold one
        color.  Two m-length gathers over the cached list, which every
        pipeline coloring has built for the ACD."""
        und = self.net.undirected_edges()
        lo = colors[und[:, 0]]
        mono = lo == colors[und[:, 1]]
        mono &= lo >= 0
        return mono

    def is_complete(self) -> bool:
        return bool((self.colors >= 0).all())

    def verify(self) -> None:
        """Assert the full (Δ+1)-coloring contract."""
        if not self.is_proper():
            raise ImproperColoring("coloring is not proper")
        if (self.colors >= self.num_colors).any():
            raise ImproperColoring("color out of range")
