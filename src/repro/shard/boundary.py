"""Shard-local cut reconciliation: the boundary-exchange protocol
(DESIGN.md §7).

The former reconcile loop ran centrally: every sweep the *driver*
scanned all m edges for monochromatic pairs and repaired the victims on
the full global network — an O(m)-per-sweep touch-point that made the
driver a k-th machine holding the whole graph.  This module repairs
shard by shard instead, keeping the driver's role to *merging deltas and
detecting convergence*, exactly the cut-centric split of Halldórsson &
Nolin: reconciliation work and traffic scale with the cut, never with n
or m.  The driver runs every shard's sweep itself; the locality lives in
what the kernel reads, not in which process runs it.

Protocol, per sweep:

1. **exchange** — every boundary node's color is (conceptually) one
   broadcast; the driver accounts one vector round of ``color_bits``
   per boundary node, and each shard reads the exchanged colors from
   the driver's colors array.
2. **detect, locally** — each shard scans only *its own incident cut
   edges* (:meth:`CutPlan.edges_of`) for monochromatic pairs.  Both
   owners of a cut edge see the same two colors, so they agree on the
   conflict set without any extra message.
3. **yield, symmetrically** — one endpoint of each conflicting edge
   surrenders, chosen by the churn engine's rule
   (:func:`repro.dynamic.engine.conflict_victims`, ``conflict_victim``
   knob), which both sides evaluate identically from exchanged data
   only: the larger global id (``"id"``), or the endpoint with more
   palette slack, ties to the larger id (``"slack"``).  A shard uncolors
   *only its own* victims.
4. **repair, locally** — the shard re-colors its victims (plus any of
   its interior nodes the interior phase left uncolored) against the
   *fixed* halo — victims' neighbors keep their colors, other shards'
   included — with the shared
   :func:`repro.dynamic.engine.conflict_repair` kernel on a halo-sized
   scratch network.
5. **merge** — the shard emits a compact ``(node, color)`` delta for
   exactly the nodes it repaired.  Deltas are disjoint by ownership, so
   the driver's merge is order-independent; it then re-checks only the
   cut for convergence.

Two victims adjacent *across* shards can still collide (each repaired
against the other's pre-sweep color); the sweep loop catches that on the
next pass, and ``engine._RECONCILE_MAX_ITERS`` bounds the tail.  Every
function here reads its array arguments and never writes them, so a
shard's delta depends only on the colors exchanged at the sweep's start,
never on the order in which the driver runs the shards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.config import ColoringConfig
from repro.dynamic.engine import conflict_repair, conflict_victims
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import BroadcastNetwork, gather_csr_rows
from repro.simulator.rng import SeedSequencer

__all__ = ["CutPlan", "repair_boundary"]


@dataclass(frozen=True)
class CutPlan:
    """The static geometry of the cut, computed once per run: the cut
    edge array plus a grouped index so each shard can slice *its* edges
    in O(1)."""

    cut: np.ndarray
    """(c, 2) cut edges, global ids, ``u < v``."""
    idx: np.ndarray
    """Cut-edge indices grouped by incident shard (each edge appears
    twice: once under each owner)."""
    indptr: np.ndarray
    """(k+1,) group offsets into ``idx``: shard s's incident cut edges
    are ``cut[idx[indptr[s]:indptr[s+1]]]``."""
    boundary: np.ndarray
    """Sorted global ids incident to at least one cut edge."""

    @classmethod
    def build(cls, und: np.ndarray, assignment: np.ndarray, k: int) -> "CutPlan":
        """From the undirected edge array and the shard assignment."""
        if und.size:
            ou, ov = assignment[und[:, 0]], assignment[und[:, 1]]
            mask = ou != ov
            cut = und[mask]
            owners = np.stack([ou[mask], ov[mask]], axis=1)
        else:
            cut = np.empty((0, 2), dtype=np.int64)
            owners = np.empty((0, 2), dtype=np.int64)
        c = cut.shape[0]
        eid = np.arange(c, dtype=np.int64)
        shard_key = np.concatenate([owners[:, 0], owners[:, 1]])
        eids = np.concatenate([eid, eid])
        order = np.argsort(shard_key, kind="stable")
        idx = eids[order]
        indptr = np.searchsorted(
            shard_key[order], np.arange(k + 1, dtype=np.int64)
        )
        boundary = (
            np.unique(cut.reshape(-1)) if c else np.empty(0, dtype=np.int64)
        )
        return cls(cut=cut, idx=idx, indptr=indptr, boundary=boundary)

    def edges_of(self, shard: int) -> np.ndarray:
        """(c_s, 2) cut edges incident to ``shard`` (global ids)."""
        return self.cut[self.idx[self.indptr[shard] : self.indptr[shard + 1]]]


def repair_boundary(
    net: BroadcastNetwork,
    assignment: np.ndarray,
    colors: np.ndarray,
    cut_pairs: np.ndarray,
    shard: int,
    extra: np.ndarray,
    num_colors: int,
    cfg: ColoringConfig,
    seed: int,
    sweep: int,
) -> dict:
    """One shard's reconciliation sweep (steps 2–4 of the protocol).

    Reads its array arguments and never writes them.  Of the driver's
    network ``net`` it reads only CSR rows: the conflict endpoints'
    under the ``"slack"`` rule, and the repair set's for the halo.
    ``cut_pairs`` is the shard's incident cut slice
    (:meth:`CutPlan.edges_of`); ``extra`` lists the shard's own
    still-uncolored nodes (interior stragglers).  Returns the delta
    dict: ``nodes`` / ``colors`` (the shard's repaired nodes, global
    ids, disjoint across shards by ownership), plus the halo metrics and
    sweep stats — including the sweep's own wall-clock ``seconds``,
    which the driver folds into the owning shard's
    :attr:`~repro.shard.engine.ShardReport.reconcile_sweeps`.
    """
    with obs.span("shard.reconcile", shard=int(shard), sweep=int(sweep)):
        return _repair_boundary_inner(
            net, assignment, colors, cut_pairs, shard, extra, num_colors,
            cfg, seed, sweep,
        )


def _repair_boundary_inner(
    net: BroadcastNetwork,
    assignment: np.ndarray,
    colors: np.ndarray,
    cut_pairs: np.ndarray,
    shard: int,
    extra: np.ndarray,
    num_colors: int,
    cfg: ColoringConfig,
    seed: int,
    sweep: int,
) -> dict:
    """Body of :func:`repair_boundary`, separated so the whole sweep
    sits inside one ``shard.reconcile`` span."""
    t0 = time.perf_counter()
    u, v = cut_pairs[:, 0], cut_pairs[:, 1]
    cu, cv = colors[u], colors[v]
    mono = (cu >= 0) & (cu == cv)
    # Cut pairs hold u < v, so (v, u) is the (hi, lo) pair the rule takes.
    victim = conflict_victims(
        net, colors, cfg.conflict_victim, num_colors, edges=(v[mono], u[mono])
    )
    ends = cut_pairs[mono].reshape(-1)
    own_vic = np.unique(ends[victim[ends] & (assignment[ends] == shard)])
    repair = (
        np.unique(np.concatenate([own_vic, extra])) if extra.size else own_vic
    )
    metrics = RoundMetrics()
    if repair.size == 0:
        return {
            "shard": int(shard),
            "nodes": repair,
            "colors": repair,
            "metrics": metrics,
            "victims": 0,
            "halo_nodes": 0,
            "repair_rounds": 0,
            "seconds": time.perf_counter() - t0,
        }
    # The halo: the repair set plus every neighbor (fixed fringe, other
    # shards' nodes included).  Edges are the repair nodes' CSR rows,
    # relabeled; the scratch network is halo-sized — never the shard,
    # never the graph.
    nb = gather_csr_rows(net.indptr, net.indices, repair)
    src = np.repeat(repair, net.degrees[repair])
    halo = np.unique(np.concatenate([repair, nb]))
    pairs = np.stack(
        [
            np.searchsorted(halo, np.concatenate([src, nb])),
            np.searchsorted(halo, np.concatenate([nb, src])),
        ],
        axis=1,
    )
    hnet = BroadcastNetwork(
        (int(halo.size), pairs),
        bandwidth_bits=cfg.bandwidth_bits(net.n),
        metrics=metrics,
    )
    hcolors = colors[halo]
    rloc = np.searchsorted(halo, repair)
    hcolors[rloc] = -1
    hcolors, _, rounds = conflict_repair(
        hnet,
        hcolors,
        rloc,
        num_colors,
        cfg,
        SeedSequencer(seed),
        tag=sweep,
        phase="shard/reconcile",
        mt_label="shard-mt",
    )
    return {
        "shard": int(shard),
        "nodes": repair,
        "colors": hcolors[rloc],
        "metrics": metrics,
        "victims": int(own_vic.size),
        "halo_nodes": int(halo.size),
        "repair_rounds": int(rounds),
        "seconds": time.perf_counter() - t0,
    }
