"""The dynamic-graph event model (DESIGN.md §6).

A churn workload is an initial graph plus a stream of
:class:`UpdateBatch` objects — numpy arrays of edge insertions/deletions
and node arrivals/departures, one batch per timestep.  Batches are the
unit the incremental engine consumes: within a batch every change lands
"simultaneously" (one :meth:`~repro.simulator.network.BroadcastNetwork.apply_delta`
merge), between batches the maintained coloring must be proper.

Node semantics: the node universe [n] is fixed; *departure* deactivates
a node (all incident edges drop, its color clears), *arrival*
re-activates it (its attachment edges ride the same batch's
``insert_edges``).  This is the wireless hand-off model (OSERENA-style):
a transmitter powering down and re-appearing elsewhere is a departure
followed, batches later, by an arrival with fresh interference edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["UpdateBatch", "ChurnSchedule"]


def _edge_array(edges) -> np.ndarray:
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return arr


def _node_array(nodes) -> np.ndarray:
    if nodes is None:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.asarray(nodes, dtype=np.int64))


@dataclass(frozen=True)
class UpdateBatch:
    """One timestep of topology churn, fully vectorized.

    ``insert_edges``/``delete_edges`` are (k, 2) int64 arrays of
    undirected pairs; ``arrivals``/``departures`` are sorted unique node
    id arrays.  A departing node's incident edges need not be listed in
    ``delete_edges`` — the engine expands departures against the current
    adjacency before applying the delta.

    Self-loop pairs (``u == v``) are rejected at construction: the model
    has no self-loops, and a loop that reached
    :meth:`~repro.simulator.network.BroadcastNetwork.apply_delta` would
    make its node permanently uncolorable.  The wire layer maps the
    ``ValueError`` onto a ``bad-payload`` error frame.
    """

    insert_edges: np.ndarray = field(default_factory=lambda: _edge_array(None))
    delete_edges: np.ndarray = field(default_factory=lambda: _edge_array(None))
    arrivals: np.ndarray = field(default_factory=lambda: _node_array(None))
    departures: np.ndarray = field(default_factory=lambda: _node_array(None))

    def __post_init__(self) -> None:
        object.__setattr__(self, "insert_edges", _edge_array(self.insert_edges))
        object.__setattr__(self, "delete_edges", _edge_array(self.delete_edges))
        object.__setattr__(self, "arrivals", _node_array(self.arrivals))
        object.__setattr__(self, "departures", _node_array(self.departures))
        for name in ("insert_edges", "delete_edges"):
            arr = getattr(self, name)
            if arr.size:
                loops = arr[arr[:, 0] == arr[:, 1]]
                if loops.size:
                    raise ValueError(
                        f"{name}: self-loop edge "
                        f"({int(loops[0, 0])}, {int(loops[0, 1])}) — the "
                        f"model has no self-loops"
                    )
        both = np.intersect1d(self.arrivals, self.departures)
        if both.size:
            raise ValueError(
                f"nodes {both[:5].tolist()} both arrive and depart in one batch"
            )

    def validate(self, n: int) -> None:
        """Range-check every id against the node universe [n)."""
        for name in ("insert_edges", "delete_edges", "arrivals", "departures"):
            arr = getattr(self, name)
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"{name}: node id out of range [0, {n})")

    @property
    def is_empty(self) -> bool:
        """True when the batch carries no events at all (the engine
        still advances its timestep on an empty batch)."""
        return not (
            self.insert_edges.size
            or self.delete_edges.size
            or self.arrivals.size
            or self.departures.size
        )


@dataclass(frozen=True)
class ChurnSchedule:
    """An initial graph plus its update stream.

    ``initial`` is the ``(n, edges)`` pair every generator in
    :mod:`repro.graphs` produces; ``batches`` is the timestep sequence.
    ``family`` records which churn recipe built it (for reports).
    """

    initial: tuple[int, np.ndarray]
    batches: tuple[UpdateBatch, ...]
    family: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "batches", tuple(self.batches))
        n = int(self.initial[0])
        edges = np.asarray(self.initial[1])
        if edges.size:
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError(
                    f"initial edges must be a (m, 2) array, got shape "
                    f"{edges.shape}"
                )
            bad = np.flatnonzero((edges < 0).any(axis=1) | (edges >= n).any(axis=1))
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"initial edge {i} = ({int(edges[i, 0])}, "
                    f"{int(edges[i, 1])}): node id out of range [0, {n})"
                )
            loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
            if loops.size:
                i = int(loops[0])
                raise ValueError(
                    f"initial edge {i} = ({int(edges[i, 0])}, "
                    f"{int(edges[i, 1])}): self-loop — the model has no "
                    f"self-loops"
                )
        for batch in self.batches:
            batch.validate(n)

    @property
    def n(self) -> int:
        """Size of the fixed node universe (ids are always in [0, n))."""
        return int(self.initial[0])

    @property
    def num_batches(self) -> int:
        """Number of timesteps in the stream."""
        return len(self.batches)

    def __iter__(self) -> Iterator[UpdateBatch]:
        return iter(self.batches)
