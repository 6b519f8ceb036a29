"""The communication graph and the one way to charge a broadcast round.

``BroadcastNetwork`` wraps the input graph in CSR form (``indptr`` /
``indices``).  Every protocol runs as vectorized whole-graph steps over
these arrays (the node-set edge view :meth:`row_edges`,
:meth:`subgraph_degrees`, ...) and charges its rounds in closed form
through :meth:`account_vector_round`; topology changes charge their
announcements in :meth:`apply_delta`, where each node packs its
fixed-width change entries ⌊cap/(⌈log₂ n⌉+1)⌋ to a broadcast and the
charge bills the payload those broadcasts carry.  Both go through one
check of the BCONGEST bandwidth cap: a widest message above
``bandwidth_bits`` raises :class:`BandwidthExceeded` and records
nothing.

The build and each side of a topology change share one normalisation
(:func:`_sorted_pairs`): a sort of the int64 keys ``u·n + v``, which
bounds n by :data:`MAX_NODES`.  A change then splices the one compact
CSR by position (:meth:`apply_delta`), so all its work but one copy of
``indices`` follows the delta, not m.  ``edge_src`` and
:meth:`undirected_edges` are built on their first read after a change.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from repro.simulator.metrics import RoundMetrics

__all__ = [
    "BroadcastNetwork",
    "BandwidthExceeded",
    "DeltaReport",
    "MAX_NODES",
    "ShardView",
    "gather_csr_rows",
    "shard_view_from_csr",
    "sorted_unique",
]


def gather_csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, skip: int = 0
) -> np.ndarray:
    """Concatenated CSR adjacency of ``rows``, each row without its first
    ``skip`` entries (one fancy-index gather, no per-row python loop).
    Works on any CSR buffer pair — including read-only shared-memory
    attachments.  The one ragged range take in the package."""
    starts = indptr[rows] + skip
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=indices.dtype)
    # Position j of the output reads indices[starts[r] + (j - row_base[r])]
    # for the row r that owns j.
    row_base = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - row_base, counts)
    return indices[idx]


class BandwidthExceeded(RuntimeError):
    """A broadcast exceeded the model's per-round bit budget."""


@dataclass
class DeltaReport:
    """What one :meth:`BroadcastNetwork.apply_delta` call changed, and
    what announcing it cost.

    ``edges_added``/``edges_removed`` count *undirected* edges that
    actually changed (no-op insertions of existing edges and deletions of
    absent edges are dropped, and reported separately as ``ignored``).
    Each live endpoint of a changed edge announces it as one fixed-width
    (neighbor id, add/remove flag) entry of ``entry_bits`` = ⌈log₂ n⌉+1
    bits, and packs up to k = ⌊cap/entry_bits⌋ entries into one broadcast
    (all of them with no cap).  ``messages`` counts those broadcasts,
    ``payload_bits`` the entries' bits in all, ``max_message_bits`` the
    widest broadcast, and ``rounds`` the charge: a node with c entries
    sends ⌈c/k⌉ broadcasts, one a round, so the batch lands in
    max ⌈c/k⌉ rounds.
    """

    edges_added: int = 0
    edges_removed: int = 0
    ignored: int = 0
    rounds: int = 0
    messages: int = 0
    payload_bits: int = 0
    max_message_bits: int = 0
    entry_bits: int = 0
    delta_before: int = 0
    delta_after: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ShardView:
    """One shard's worker-visible slice of a partitioned graph — everything
    a :mod:`repro.shard` worker is allowed to see (DESIGN.md §7): its
    interior (``nodes`` + ``interior_edges``), the worker's to color.
    The cut is the driver's business
    (:meth:`repro.shard.partition.Partition.cut_edges`).
    """

    shard: int
    n_global: int
    nodes: np.ndarray
    """Global ids of the interior nodes, sorted ascending; local id i is
    ``nodes[i]`` (the relabeling every other array uses)."""
    interior_edges: np.ndarray
    """(m_i, 2) interior-interior undirected edges in *local* ids."""

    @property
    def n_interior(self) -> int:
        return int(self.nodes.size)

    def interior_graph(self) -> tuple[int, np.ndarray]:
        """The ``(n, edges)`` pair of the interior-induced subgraph, the
        worker's coloring instance."""
        return self.n_interior, self.interior_edges


def shard_view_from_csr(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    members: np.ndarray,
    assignment: np.ndarray,
    local: np.ndarray,
    shard: int,
) -> ShardView:
    """Build one shard's :class:`ShardView` straight from CSR buffers —
    the shard subsystem's one way to build a view (DESIGN.md §7).

    Interior-interior edges are relabeled into local ids
    ``0..|members|-1`` (the worker's coloring instance); edges leaving
    the shard are dropped.

    Only the *members'* CSR rows are gathered — O(vol(shard)) — so it
    works equally on in-process arrays (the views
    :class:`~repro.shard.engine.ShardedColoring` builds for inline and
    pickled-view tasks) and on read-only
    ``multiprocessing.shared_memory`` attachments, which is how pool
    workers reconstruct their view from the arena without ever
    receiving O(n + m) pickled bytes.  Members ascend and CSR rows are
    sorted, so interior edges fall out already in undirected
    (u, v)-lexicographic order.

    ``members`` must be the shard's sorted global ids, ``assignment`` the
    full shard-id-per-node array, and ``local`` the per-node local rank
    (:meth:`repro.shard.partition.Partition.local_ids`).
    """
    members = np.asarray(members, dtype=np.int64)
    nb = gather_csr_rows(indptr, indices, members)
    src = np.repeat(members, indptr[members + 1] - indptr[members])
    keep = (assignment[nb] == shard) & (src < nb)
    return ShardView(
        shard=int(shard),
        n_global=int(n),
        nodes=members,
        interior_edges=np.stack([local[src[keep]], local[nb[keep]]], axis=1),
    )


MAX_NODES = math.isqrt(1 << 63)
"""The largest n a :class:`BroadcastNetwork` accepts (3,037,000,499): the
CSR build and :meth:`~BroadcastNetwork.apply_delta` encode the directed
pair (u, v) as the int64 key ``u·n + v``, which is below n² ≤ 2⁶³."""


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-d integer array, which it sorts in
    place: a sort and an adjacent-difference mask.  numpy 2.x runs
    ``np.unique`` through a hash table, an order of magnitude slower on
    int64 keys; this is the one dedup of packed integer keys."""
    keys.sort()
    if keys.size:
        fresh = np.empty(keys.size, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if not fresh.all():
            keys = keys[fresh]
    return keys


def _sorted_pairs(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Undirected pairs (an (m, 2) array or a sequence of pairs) → the
    sorted unique *directed* pairs ``(src, dst)`` (both orientations,
    self-loops dropped; endpoints must lie in ``[0, n)``) — the one
    routine behind the CSR build and each side of a delta.
    :func:`sorted_unique` over the 2m keys ``src·n + dst``, then one
    ``divmod`` back into ids: the (src, dst)-lexicographic order without
    a two-key sort."""
    if n > MAX_NODES:
        raise ValueError(
            f"n = {n} exceeds {MAX_NODES}, the largest n whose pair keys "
            f"u·n + v fit a signed 64-bit integer"
        )
    arr = np.asarray(edges if edges is not None else (), dtype=np.int64)
    arr = arr.reshape(-1, 2)
    # Copies are made only when there is something to drop: a row mask
    # over the (m, 2) array costs more than the key sort.
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        arr = arr[~loops]
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("edge endpoint out of range")
    keys = sorted_unique(
        np.concatenate([arr[:, 0] * n + arr[:, 1], arr[:, 1] * n + arr[:, 0]])
    )
    return np.divmod(keys, n)


def _edges_from_input(graph) -> tuple[int, np.ndarray | list]:
    """Normalize the input into (n, undirected pairs) for
    :func:`_sorted_pairs`.  Accepts a networkx graph or an (n, pairs)
    pair, where pairs is an (m, 2) array or a sequence of pairs."""
    if hasattr(graph, "number_of_nodes") and hasattr(graph, "edges"):
        relabel = {v: i for i, v in enumerate(graph.nodes())}
        return len(relabel), [(relabel[u], relabel[v]) for u, v in graph.edges()]
    n, edges = graph
    return int(n), edges


class BroadcastNetwork:
    """The n-node communication graph G = (V, E) plus its round charging.

    Parameters
    ----------
    graph:
        A ``networkx.Graph`` or an ``(n, edges)`` pair.  Self-loops are
        dropped; parallel edges collapse.
    bandwidth_bits:
        The per-message bit budget (BCONGEST's O(log n)).  ``None`` disables
        enforcement (useful for baselines run in LOCAL for comparison).
    metrics:
        Optional shared :class:`RoundMetrics`; a fresh one by default.
    """

    def __init__(
        self,
        graph,
        bandwidth_bits: int | None = None,
        metrics: RoundMetrics | None = None,
    ) -> None:
        n, edges = _edges_from_input(graph)
        self.n = n
        self.bandwidth_bits = bandwidth_bits
        self.metrics = metrics if metrics is not None else RoundMetrics()
        self._set_csr(*_sorted_pairs(n, edges))

    def _set_csr(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Build every derived array from sorted unique directed pairs.

        ``src``/``dst`` must already be sorted by (src, dst) and free of
        duplicates and self-loops, as :func:`_sorted_pairs` returns them;
        ``src`` is kept as ``edge_src`` and the src < dst half is the
        (lo, hi)-sorted undirected edge list, so nothing is sorted twice."""
        n = self.n
        self.indices = dst
        self.degrees = np.bincount(src, minlength=n).astype(np.int64, copy=False)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])
        self.delta = int(self.degrees.max()) if n else 0
        self.m = src.size // 2
        self._edge_src: np.ndarray | None = src
        self._und_edges: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of v as an array view (sorted)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge: a binary search in u's sorted CSR
        row, so nothing is cached and no delta has to invalidate it."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    @property
    def edge_src(self) -> np.ndarray:
        """Source of every directed pair, aligned with ``indices``:
        ``indices[k]`` is a neighbor of ``edge_src[k]``.  Every edge is
        stored in both orientations.  Built from ``degrees`` on the first
        read after each topology change and cached; the per-batch churn
        path never reads it."""
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.n, dtype=np.int64), self.degrees
            )
        return self._edge_src

    def undirected_edges(self) -> np.ndarray:
        """(m, 2) array of unique undirected edges (u < v), in CSR order:
        the ``src < dst`` half of the directed pairs, built on the first
        call after each topology change and cached."""
        if self._und_edges is None:
            src, dst = self.edge_src, self.indices
            # One index list and two gathers: cheaper than compressing
            # both arrays under the half-dense boolean mask.
            half = np.flatnonzero(src < dst)
            self._und_edges = np.stack([src.take(half), dst.take(half)], axis=1)
        return self._und_edges

    def row_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Directed ``(src, dst)`` pairs covering the CSR rows of
        ``nodes`` (distinct ids) — the edge view of a node-set kernel.

        When the rows hold at most half of the 2m pairs they are gathered,
        so every ``src`` is in ``nodes``; otherwise ``edge_src`` and
        ``indices`` come back themselves, as views with no copy.  Either
        way a membership filter on ``src`` keeps the same pairs a filter
        over the full arrays keeps, and for ascending ``nodes`` in the
        same (CSR) order.  A round among S thus costs Σ_{v∈S} deg(v),
        and never more than one pass over the 2m pairs (DESIGN.md §4)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        deg = self.degrees[nodes]
        if 2 * int(deg.sum()) > self.indices.size:
            return self.edge_src, self.indices
        return (
            np.repeat(nodes, deg),
            gather_csr_rows(self.indptr, self.indices, nodes),
        )

    def subgraph_degrees(self, members: np.ndarray) -> np.ndarray:
        """For each node, its number of neighbors inside ``members`` (bool
        mask over V).  Vectorized over the CSR arrays (segment-wise
        ``reduceat`` — the ``.at`` ufunc form is ~10× slower)."""
        mask = np.asarray(members, dtype=bool)
        out = np.zeros(self.n, dtype=np.int64)
        if self.indices.size:
            inside = mask[self.indices].astype(np.int64)
            has = self.degrees > 0
            out[has] = np.add.reduceat(inside, self.indptr[:-1][has])
        return out

    # ------------------------------------------------------------------
    # Dynamic topology (the repro.dynamic substrate)
    # ------------------------------------------------------------------
    def _row_positions(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Where each directed pair (src, dst) sits in the CSR: the first
        position of row ``src`` holding a neighbor ≥ ``dst``, and whether
        that neighbor is ``dst``.  A vectorized branchless bisection over
        each pair's own row, ``indptr[src]..indptr[src+1]``: it advances
        by halving powers of two while the probed neighbor is below
        ``dst``, so it is O(k log Δ) and reads only the delta's rows."""
        indices = self.indices
        pos = self.indptr[src]
        end = self.indptr[src + 1]
        step = 1 << int((end - pos).max(initial=0)).bit_length()
        while step > 1:
            step >>= 1
            probe = pos + (step - 1)
            advance = probe < end
            # A probe past the last slot is clipped; ``advance`` drops it.
            advance &= indices.take(probe, mode="clip") < dst
            pos += advance * step
        found = pos < end
        found[found] = indices[pos[found]] == dst[found]
        return pos, found

    def apply_delta(
        self,
        insert_edges: np.ndarray | None = None,
        delete_edges: np.ndarray | None = None,
        phase: str = "dynamic/delta",
        silent_nodes: np.ndarray | None = None,
    ) -> DeltaReport:
        """Mutate the topology by a batch of edge deletions + insertions.

        The update is a *positional splice* of the CSR: each directed
        delta pair of both sides is located in its own sorted row by one
        bisection (:meth:`_row_positions`), deletions drop out of
        ``indices`` under a keep-mask, and insertions go in with one
        ``np.insert`` at their positions shifted by the deletions before
        them.  ``degrees`` follow from the delta's endpoints, ``indptr``
        from one cumsum and Δ from ``degrees.max()``; ``edge_src`` and the
        undirected edge list are rebuilt only when next read.  The arrays
        equal a fresh build of the edited edge set, and nothing of size m
        is built but the new ``indices``, its kept part and the keep-mask
        (DESIGN.md §6).  Deletions are applied before insertions, so a
        same-batch delete+insert of one edge is a net no-op.

        Announcement traffic is charged through the shared metrics: each
        endpoint of a changed edge announces it as one fixed-width
        ⌈log₂ n⌉+1-bit (neighbor id, add/remove flag) entry, and a node
        with c entries packs them k = ⌊cap/(⌈log₂ n⌉+1)⌋ to a broadcast
        (all c in one with no cap), one broadcast a round.  The batch
        costs max ⌈c/k⌉ rounds and Σ ⌈c/k⌉ messages carrying
        (⌈log₂ n⌉+1)·Σ c bits; the widest message, min(max c, k) entries,
        is checked against the cap, so a cap below one entry raises
        :class:`BandwidthExceeded`.  No-op changes (inserting an existing
        edge, deleting an absent one) are dropped before accounting.
        ``silent_nodes`` (e.g. nodes powering down in a departure) cannot
        broadcast: their announcements are not charged — their neighbors
        still announce the shared edge's other orientation.
        """
        del_src, del_dst = _sorted_pairs(self.n, delete_edges)
        ins_src, ins_dst = _sorted_pairs(self.n, insert_edges)

        # Both sides are located against the pre-batch CSR in one call.
        pos, found = self._row_positions(
            np.concatenate([del_src, ins_src]), np.concatenate([del_dst, ins_dst])
        )
        d = del_src.size
        del_pos, ins_pos = pos[:d], pos[d:]
        found, present = found[:d], found[d:]
        ignored = int((~found).sum()) // 2
        del_pos, del_src = del_pos[found], del_src[found]
        keep = np.ones(self.indices.size, dtype=bool)
        keep[del_pos] = False

        # Found at a position this batch deletes: re-inserted, not present.
        present[present] = keep[ins_pos[present]]
        ignored += int(present.sum()) // 2
        new = ~present
        ins_pos, ins_src, ins_dst = ins_pos[new], ins_src[new], ins_dst[new]

        removed = del_src.size // 2
        added = ins_src.size // 2
        delta_before = self.delta

        # Announcement accounting: every applied directed change is one
        # entry from its source endpoint.  The charge runs *before* the
        # topology mutates, so a rejected delta leaves the network
        # untouched.
        changed_src = np.concatenate([del_src, ins_src])
        if silent_nodes is not None and changed_src.size:
            silent = np.zeros(self.n, dtype=bool)
            silent[np.asarray(silent_nodes, dtype=np.int64)] = True
            changed_src = changed_src[~silent[changed_src]]
        entry_bits = int(math.ceil(math.log2(max(self.n, 2)))) + 1
        rounds = messages = payload = widest = 0
        if changed_src.size:
            counts = np.bincount(changed_src)
            most = int(counts.max())
            cap = self.bandwidth_bits
            # Below one entry a message still holds one: the cap check
            # in _charge refuses it.
            k = most if cap is None else max(cap // entry_bits, 1)
            rounds = -(-most // k)
            # ⌈c/k⌉ = 1 + (c−1)//k for each sender: only counts above k
            # need the division, which costs ≈0.25 ms over all n bins.
            over = counts[counts > k]
            messages = int(np.count_nonzero(counts)) + int(((over - 1) // k).sum())
            payload = int(changed_src.size) * entry_bits
            widest = min(most, k) * entry_bits
            self._charge(rounds, messages, widest, phase, payload_bits=payload)

        if del_src.size or ins_src.size:
            # Deleted positions ascend with the sorted pairs, so one search
            # counts the deletions before each insert position.
            shift = np.searchsorted(del_pos, ins_pos)
            indices = np.insert(self.indices[keep], ins_pos - shift, ins_dst)
            degrees = self.degrees.copy()
            np.subtract.at(degrees, del_src, 1)
            np.add.at(degrees, ins_src, 1)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            self.indices, self.indptr, self.degrees = indices, indptr, degrees
            self.delta = int(degrees.max())
            self.m = indices.size // 2
            self._edge_src = None
            self._und_edges = None
        return DeltaReport(
            edges_added=added,
            edges_removed=removed,
            ignored=ignored,
            rounds=rounds,
            messages=messages,
            payload_bits=payload,
            max_message_bits=widest,
            entry_bits=entry_bits,
            delta_before=delta_before,
            delta_after=self.delta,
        )

    # ------------------------------------------------------------------
    # Vectorized collectives (whole-graph single-word rounds)
    # ------------------------------------------------------------------
    def _charge(
        self,
        rounds: int,
        messages: int,
        bits: int,
        phase: str | None,
        payload_bits: int | None = None,
    ) -> None:
        """The one place a broadcast is charged: refuse a message over the
        bandwidth cap, then record ``rounds`` rounds carrying ``messages``
        messages, the widest of ``bits`` bits, and ``payload_bits`` in all
        when they differ in size (:meth:`RoundMetrics.add_rounds`).  A
        refused charge records nothing."""
        if self.bandwidth_bits is not None and bits > self.bandwidth_bits:
            raise BandwidthExceeded(
                f"{bits}-bit message exceeds the bandwidth cap of "
                f"{self.bandwidth_bits} bits"
            )
        self.metrics.add_rounds(
            rounds, messages, bits, phase=phase, payload_bits=payload_bits
        )

    def account_vector_round(
        self,
        num_broadcasters: int,
        bits_per_message: int,
        phase: str | None = None,
        rounds: int = 1,
    ) -> None:
        """Account ``rounds`` identical vectorized rounds, in each of which
        ``num_broadcasters`` nodes broadcast a ``bits_per_message``-bit
        message: one cap check and closed-form accounting."""
        self._charge(
            rounds, int(rounds) * int(num_broadcasters), bits_per_message, phase
        )

    def neighbor_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-node sum over neighbor values (segment-wise ``reduceat`` on
        the CSR arrays, like :meth:`subgraph_degrees`)."""
        vals = np.asarray(values)
        out = np.zeros(self.n, dtype=vals.dtype if vals.dtype.kind == "f" else np.int64)
        if self.indices.size:
            gathered = vals[self.indices].astype(out.dtype, copy=False)
            has = self.degrees > 0
            out[has] = np.add.reduceat(gathered, self.indptr[:-1][has])
        return out
