"""Batch coalescing: merge queued :class:`UpdateBatch` objects into one.

Under load the serve worker drains up to ``coalesce_max`` queued
batches and applies them as a single engine batch, paying one
detect/repair cycle instead of k.  The merge must be *topology-exact*:
after applying the coalesced batch, the CSR and the active-node set are
byte-identical to applying the constituents one by one (the property
test in tests/test_serve.py).  Colors may differ — coalescing legally
changes the repair sequence — but the proper/complete/≤ Δ_t+1 invariant
holds either way, because the engine re-establishes it per applied
batch.

The merge is a sequential *replay* with last-op-wins semantics:

* every edge operation lands in a per-edge-key op map (insert / delete;
  a later op on the same key overwrites an earlier one);
* a departure is expanded against the node's adjacency *at that point of
  the replay* — the engine's CSR overlaid with the op map so far — so
  "x departs, then y attaches to x" and "x departs, then x returns with
  new edges" both merge exactly;
* node arrivals/departures keep only each node's final state (a node
  that departs and later re-arrives inside the window merges to a plain
  arrival whose old edges became explicit deletes; sequential
  application would also have cleared its color mid-window, which the
  merged form skips — the documented colors-may-differ case).

The replayed departure expansion also means the merged batch never
relies on the engine's own departure expansion for edges that only exist
inside the merge window (inserted by an earlier constituent batch) —
those are turned into explicit deletes here.

The merge is also *traffic-exact*: op-map keys are cancelled against the
pre-window CSR, so the merged batch carries no operation apply_delta
would ignore (its ``DeltaReport.ignored`` is 0) and announcement
accounting never exceeds the true topology diff.
"""

from __future__ import annotations

from typing import Sequence

from repro.dynamic.events import UpdateBatch
from repro.simulator.network import BroadcastNetwork

__all__ = ["coalesce_batches"]

_INS, _DEL = True, False


def coalesce_batches(
    net: BroadcastNetwork, batches: Sequence[UpdateBatch]
) -> UpdateBatch:
    """Merge ``batches`` (in arrival order) into one equivalent batch.

    ``net`` must be the engine's network *before* any of the batches is
    applied — departure expansion consults its CSR.  With a single batch
    this is the identity.
    """
    if not batches:
        return UpdateBatch()
    if len(batches) == 1:
        return batches[0]

    ops: dict[tuple[int, int], bool] = {}
    state: dict[int, str] = {}

    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def incident_keys(x: int) -> set[tuple[int, int]]:
        """x's undirected edge keys at this point of the replay: CSR
        adjacency corrected by the op overlay."""
        keys = {key(x, int(nb)) for nb in net.neighbors(x)}
        for k, op in ops.items():
            if x in k:
                if op is _INS:
                    keys.add(k)
                else:
                    keys.discard(k)
        return keys

    for batch in batches:
        # Engine order within a batch: departure expansion + explicit
        # deletes land before inserts; replaying in that order keeps the
        # per-key last-op-wins map faithful to sequential application.
        for x in batch.departures.tolist():
            for k in incident_keys(x):
                ops[k] = _DEL
            state[x] = "dep"
        for u, v in batch.delete_edges.tolist():
            if u != v:
                ops[key(u, v)] = _DEL
        for u, v in batch.insert_edges.tolist():
            if u != v:
                ops[key(u, v)] = _INS
        for x in batch.arrivals.tolist():
            state[x] = "arr"

    # Cancel no-ops against the pre-window CSR before building the merged
    # batch: an insert of an edge the engine already holds (delete→
    # reinsert inside the window) and a delete of an edge it never held
    # (insert→delete inside the window) would be ignored by apply_delta —
    # but only *after* being charged as announcement traffic, inflating
    # the announcement rounds relative to sequential replay.
    return UpdateBatch(
        insert_edges=sorted(
            k for k, op in ops.items() if op is _INS and not net.has_edge(*k)
        ),
        delete_edges=sorted(
            k for k, op in ops.items() if op is _DEL and net.has_edge(*k)
        ),
        arrivals=sorted(x for x, s in state.items() if s == "arr"),
        departures=sorted(x for x, s in state.items() if s == "dep"),
    )
