"""Sharded dynamic engine: delta-routed shard repair under churn.

This composes the two maintenance planes (DESIGN.md §6 × §7): the
dynamic engine's per-batch invariant restoration with the shard
subsystem's partition/boundary-exchange geometry.  The driver,
:class:`ShardedDynamicColoring`, subclasses
:class:`~repro.dynamic.engine.DynamicColoring` so the delta phase, the
delta-routed conflict detector, the accounting, the report contract,
and the ``run`` loop are *inherited* — at ``k == 1`` no sharded code
path executes at all and the engine is byte-identical to the unsharded
one (colors, rounds, bits, seeds; the benchmark gates this).  At
``k > 1`` two seams are overridden:

1. **shard-local repair** — victims are routed to their owning shards
   by one partition-index lookup; each touched shard repairs its own
   nodes on a halo-sized scratch network via the *same*
   :func:`~repro.shard.boundary.repair_boundary` kernel the static
   reconciler runs (empty cut slice, victims as ``extra``).  Deltas are
   disjoint by ownership, so the driver merges them exactly as the
   static path does, and the shard metrics fold in under the
   parallel-composition rule.
2. **cut reconciliation, delta-scaled** — only edges incident to nodes
   recolored *this batch* can have become monochromatic across the cut,
   so each sweep gathers the cross-shard pairs from the recolored
   nodes' CSR rows (cost ∝ Σ deg(recolored), never the full cut) and
   runs the boundary exchange on exactly those, shard by shard.

Fallbacks at ``k > 1`` always pair with **delta-aware ACD maintenance**:
the engine caches the minhash fingerprint grid under a fixed salt and,
on fallback, re-hashes only nodes whose closed neighborhood changed
since the last sketch
(:func:`~repro.hashing.fingerprints.refresh_minwise_fingerprints` — a
node's fingerprint is a pure function of ``(salt, sample, N[v])``, so
the refreshed grid is byte-identical to a from-scratch sketch), then
feeds the sketch to
:func:`~repro.decomposition.acd.decompose_from_sketch` and injects the
decomposition into the pipeline.  Only the changed fingerprints are
re-broadcast, which is the broadcast-economy half of the claim.
"""

from __future__ import annotations

import numpy as np

from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.decomposition.acd import decompose_from_sketch
from repro.decomposition.minhash import SimilaritySketch, account_sketch_rounds
from repro.dynamic.engine import BatchReport, DynamicColoring
from repro.dynamic.events import ChurnSchedule, UpdateBatch
from repro.hashing.fingerprints import (
    minwise_fingerprints,
    pack_fingerprints,
    refresh_minwise_fingerprints,
)
from repro.shard.boundary import repair_boundary
from repro.shard.engine import ShardedColoring
from repro.shard.partition import partition_nodes
from repro.simulator.network import gather_csr_rows
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

__all__ = ["ShardedDynamicColoring"]


class ShardedDynamicColoring(DynamicColoring):
    """Maintains a proper (Δ_t+1)-coloring under churn across k shards.

    Drop-in for :class:`~repro.dynamic.engine.DynamicColoring` — same
    ``apply_batch``/``run`` surface, same :class:`BatchReport` contract,
    same invariants after every batch.  ``k == 1`` *is* the unsharded
    engine (every override delegates, nothing sharded runs); ``k > 1``
    routes repair to the shards the delta touches and reconciles only
    delta-incident cut edges (module docstring).

    >>> from repro.graphs.families import make_churn
    >>> sched = make_churn("gnp-churn", 500, 12.0, seed=3, batches=4)
    >>> result = ShardedDynamicColoring(sched, k=4).run(sched)
    >>> assert result.summary()["proper_all"]

    Parameters
    ----------
    graph:
        The initial ``(n, edges)`` pair or a :class:`ChurnSchedule`.
    config:
        :class:`ColoringConfig`; ``dynamic_*`` knobs drive repair-vs-
        fallback and ``shard_*`` knobs the partition geometry.
    k, strategy:
        Shard count and partition strategy (default: the ``shard_k`` /
        ``shard_strategy`` config knobs).  The partition is computed
        once over the fixed node universe [n] and never migrates.
    initial_colors, active, batch_index:
        The warm-start path, exactly as in the parent.  Without
        ``initial_colors`` the initial coloring runs through
        :class:`~repro.shard.engine.ShardedColoring` when ``k > 1``
        (same partition), through the pipeline when ``k == 1``.
    """

    def __init__(
        self,
        graph,
        config: ColoringConfig | None = None,
        *,
        k: int | None = None,
        strategy: str | None = None,
        initial_colors: np.ndarray | None = None,
        active: np.ndarray | None = None,
        batch_index: int = 0,
    ):
        if isinstance(graph, ChurnSchedule):
            graph = graph.initial
        cfg = config or ColoringConfig.practical()
        self.k = int(k) if k is not None else cfg.shard_k
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        self.strategy = strategy if strategy is not None else cfg.shard_strategy
        self.routes: list[dict] = []
        if self.k > 1 and initial_colors is None:
            sharded = ShardedColoring(graph, cfg, k=self.k, strategy=self.strategy)
            res = sharded.run()
            super().__init__(
                sharded.net, cfg,
                initial_colors=res.colors,
                batch_index=batch_index,
            )
            self.initial_rounds = int(res.rounds_total)
            self.initial_seconds = float(res.seconds)
            self._part = sharded._part
        else:
            super().__init__(
                graph, cfg,
                initial_colors=initial_colors,
                active=active,
                batch_index=batch_index,
            )
            self._part = None
        if self._part is None:
            self._part = partition_nodes(
                self.net, self.k, self.strategy, seed=self.cfg.seed
            )
        # k>1-only machinery; at k == 1 none of this is ever consulted,
        # which is what keeps the identity gate trivially true.
        self._dseq = SeedSequencer(self.cfg.seed).spawn("dshard")
        self._acd_salt = self._dseq.derive_seed("acd-hash") % (1 << 31)
        self._acd_fps: np.ndarray | None = None
        self._acd_packed: np.ndarray | None = None
        self._acd_dirty = np.zeros(self.net.n, dtype=bool)

    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch) -> BatchReport:
        """Apply one update batch and restore the coloring invariant —
        the parent's control loop verbatim, with sharded seams (repair /
        fallback) substituted when ``k > 1``.  Also accumulates
        the delta's endpoints into the ACD dirty set for the delta-aware
        re-sketch."""
        if self.k > 1:
            self._mark_dirty(batch)
        return super().apply_batch(batch)

    def _mark_dirty(self, batch: UpdateBatch) -> None:
        """Record every node whose closed neighborhood this batch will
        change: endpoints of inserted/deleted edges, departure-expanded
        incident edges (pre-batch CSR), and the churned nodes themselves."""
        dirty = self._acd_dirty
        for arr in (batch.insert_edges, batch.delete_edges):
            if arr.size:
                dirty[arr.reshape(-1)] = True
        dirty[batch.arrivals] = True
        dirty[batch.departures] = True
        dirty[self._departure_edges(batch).reshape(-1)] = True

    # ------------------------------------------------------------------
    def _repair(self, repair_set: np.ndarray, num_colors: int, t: int) -> bool:
        """Shard-routed repair (k > 1): split the repair set by owning
        shard (one partition-index lookup), run each touched shard's
        halo repair via the shared :func:`repair_boundary` kernel, merge
        the disjoint deltas, then reconcile delta-incident cut edges.
        ``k == 1`` delegates to the parent's global repair."""
        if self.k == 1:
            return super()._repair(repair_set, num_colors, t)
        net, cfg = self.net, self.cfg
        metrics = net.metrics
        route = {
            "index": t,
            "repair_set": int(repair_set.size),
            "shards_touched": 0,
            "sweeps": 0,
            "cut_touched": 0,
        }
        if repair_set.size == 0:
            self.routes.append(route)
            return True
        assignment = self._part.assignment
        empty = np.empty(0, dtype=np.int64)
        empty_cut = np.empty((0, 2), dtype=np.int64)
        own = assignment[repair_set]
        shards = np.unique(own)
        route["shards_touched"] = int(shards.size)
        with metrics.time_phase("dshard/repair"):
            outs = [
                repair_boundary(
                    net.n, net.indptr, net.indices, assignment, self.colors,
                    empty_cut, int(s), repair_set[own == s], num_colors, cfg,
                    self._dseq.derive_seed("repair", int(s), t), t,
                )
                for s in shards
            ]
            # Merge: deltas are disjoint by ownership, so order is
            # irrelevant — exactly the static driver's merge rule.
            for out in outs:
                nodes = out["nodes"]
                if nodes.size:
                    self.colors[nodes] = out["colors"]
            metrics.absorb_parallel(
                [out["metrics"] for out in outs], phase="dshard/repair"
            )
        sweeps, cut_touched, clean = self._reconcile_cut(
            repair_set, num_colors, t
        )
        route["sweeps"] = sweeps
        route["cut_touched"] = cut_touched
        self.routes.append(route)
        colored = bool((self.colors[self.active] >= 0).all())
        return clean and colored

    def _cut_candidates(self, nodes: np.ndarray) -> np.ndarray:
        """Cross-shard undirected pairs incident to ``nodes`` (``u < v``,
        unique) — the only cut edges a batch that recolored ``nodes``
        can have turned monochromatic.  Cost ∝ Σ deg(nodes)."""
        net = self.net
        assignment = self._part.assignment
        if not nodes.size:
            return np.empty((0, 2), dtype=np.int64)
        nb = gather_csr_rows(net.indptr, net.indices, nodes)
        if not nb.size:
            return np.empty((0, 2), dtype=np.int64)
        deg = net.indptr[nodes + 1] - net.indptr[nodes]
        src = np.repeat(nodes, deg)
        cross = assignment[src] != assignment[nb]
        if not cross.any():
            return np.empty((0, 2), dtype=np.int64)
        u = np.minimum(src[cross], nb[cross])
        v = np.maximum(src[cross], nb[cross])
        keys = np.unique(u * net.n + v)
        return np.stack([keys // net.n, keys % net.n], axis=1)

    def _reconcile_cut(
        self, touched: np.ndarray, num_colors: int, t: int
    ) -> tuple[int, int, bool]:
        """The boundary-exchange sweep loop, delta-scaled: candidates
        are the cross-shard edges incident to everything recolored this
        batch; each sweep exchanges only those endpoints' colors, the
        conflicting shards repair locally, the driver merges.  Returns
        ``(sweeps, nodes_touched, converged)``."""
        net, cfg = self.net, self.cfg
        metrics = net.metrics
        assignment = self._part.assignment
        color_bits = bits_for_color(max(net.delta, 1))
        recolored = np.zeros(net.n, dtype=bool)
        recolored[touched] = True
        empty = np.empty(0, dtype=np.int64)
        sweeps = 0
        cut_touched = 0
        clean = False
        with metrics.time_phase("dshard/reconcile"):
            for sweep in range(max(1, cfg.shard_reconcile_max_iters)):
                cand = self._cut_candidates(np.flatnonzero(recolored))
                if not cand.size:
                    clean = True
                    break
                # The exchange: each candidate endpoint re-broadcasts
                # its color — one vector round sized by the delta's cut
                # frontier, never by the full boundary.
                endpoints = np.unique(cand.reshape(-1))
                net.account_vector_round(
                    int(endpoints.size), color_bits, phase="dshard/reconcile"
                )
                cu, cv = self.colors[cand[:, 0]], self.colors[cand[:, 1]]
                mono = (cu >= 0) & (cu == cv)
                if not mono.any():
                    clean = True
                    break
                active_shards = np.unique(assignment[cand[mono].reshape(-1)])
                outs = [
                    repair_boundary(
                        net.n, net.indptr, net.indices, assignment,
                        self.colors,
                        cand[
                            (assignment[cand[:, 0]] == s)
                            | (assignment[cand[:, 1]] == s)
                        ],
                        int(s), empty, num_colors, cfg,
                        self._dseq.derive_seed("reconcile", int(s), t, sweep),
                        sweep,
                    )
                    for s in active_shards
                ]
                for out in outs:
                    nodes = out["nodes"]
                    if nodes.size:
                        self.colors[nodes] = out["colors"]
                        recolored[nodes] = True
                        cut_touched += int(nodes.size)
                metrics.absorb_parallel(
                    [out["metrics"] for out in outs], phase="dshard/reconcile"
                )
                sweeps += 1
        return sweeps, cut_touched, clean

    # ------------------------------------------------------------------
    def _full_recolor(self, t: int) -> None:
        """Fallback (k > 1): rebuild the coloring through the pipeline,
        but hand it the ACD built from the incrementally maintained
        sketch — only nodes whose closed neighborhood changed since the
        last sketch are re-hashed and re-broadcast.  ``k == 1`` delegates
        to the parent's from-scratch fallback."""
        if self.k == 1:
            super()._full_recolor(t)
            return
        net = self.net
        with net.metrics.time_phase("dynamic/fallback"):
            cfg = self.cfg.with_seed(self.seq.derive_seed("fallback", t))
            acd = self._maintained_decomposition(cfg)
            result = BroadcastColoring(net, cfg, decomposition=acd).run()
            colors = result.colors.copy()
            colors[~self.active] = -1
            self.colors = colors

    def _maintained_decomposition(self, cfg: ColoringConfig):
        """The delta-aware ACD: refresh only dirty fingerprint columns
        (byte-identical to a fresh sketch of the current topology under
        the cached salt), charge the re-broadcast for the changed nodes
        only, and decompose from the maintained sketch."""
        net = self.net
        samples, bits = cfg.acd_minhash_samples, cfg.acd_minhash_bits
        with net.metrics.time_phase("acd/sketch"):
            if self._acd_fps is None or self._acd_fps.shape != (samples, net.n):
                self._acd_fps = minwise_fingerprints(
                    net.indptr, net.indices, net.n, samples, bits,
                    self._acd_salt,
                )
                self._acd_packed = pack_fingerprints(self._acd_fps, bits)
                changed = net.n
            else:
                dirty = np.flatnonzero(self._acd_dirty)
                if dirty.size:
                    refresh_minwise_fingerprints(
                        net.indptr, net.indices, net.n, samples, bits,
                        self._acd_salt, self._acd_fps, dirty,
                    )
                    self._acd_packed[dirty] = pack_fingerprints(
                        self._acd_fps[:, dirty], bits
                    )
                changed = int(dirty.size)
            self._acd_dirty[:] = False
        # Only the changed nodes re-broadcast — the saved announcement
        # traffic is the point of maintaining the sketch.
        rounds = account_sketch_rounds(net, samples, bits, changed) if changed else 0
        sketch = SimilaritySketch(
            fingerprints=self._acd_fps,
            packed=self._acd_packed,
            bits_per_sample=bits,
            samples=samples,
            rounds_used=rounds,
        )
        return decompose_from_sketch(net, sketch, cfg)

    # ------------------------------------------------------------------
    def route_summary(self) -> dict:
        """Aggregate delta-routing stats over the applied batches:
        how many shards each batch touched, how many reconcile sweeps
        ran, and what fraction of the node universe cross-cut
        reconciliation recolored (the <5 % locality gate in
        ``benchmarks/bench_dynamic_shard.py``)."""
        shards = [r["shards_touched"] for r in self.routes] or [0]
        sweeps = [r["sweeps"] for r in self.routes] or [0]
        touched = [r["cut_touched"] for r in self.routes] or [0]
        return {
            "k": self.k,
            "strategy": self.strategy,
            "batches_routed": len(self.routes),
            "mean_shards_touched": float(np.mean(shards)),
            "max_shards_touched": int(np.max(shards)),
            "mean_sweeps": float(np.mean(sweeps)),
            "reconcile_touched": int(np.sum(touched)),
            "max_reconcile_touched_fraction": float(
                np.max(touched) / max(self.n, 1)
            ),
        }
