"""Multi-shard partitioned coloring: color shard interiors in parallel,
reconcile the cut (DESIGN.md §7).

The control flow of :class:`ShardedColoring.run`:

1. **partition** — split [n] into k shards
   (:func:`repro.shard.partition.partition_nodes`).  A pooled run then
   packs the global CSR, the partition index and the colors array into
   one shared-memory arena
   (:class:`repro.shard.shm.ShmArena`); workers attach zero-copy and
   rebuild their own :class:`~repro.simulator.network.ShardView` from
   the shared buffers (:func:`~repro.simulator.network.shard_view_from_csr`)
   — the pool pipe carries a descriptor of a few hundred bytes, never
   O(n + m) arrays.  When the arena cannot be created (``OSError``: a
   ``/dev/shm`` too small or absent) each view is built with the same
   function in this process and pickled to its worker, and an inline
   run (one worker or one shard) builds them for itself;
   :attr:`ShardedResult.transport` names which happened.
2. **interior** — each shard's interior subgraph is colored by the full
   existing pipeline (:class:`BroadcastColoring`), one worker per shard on
   a ``ProcessPoolExecutor`` (``workers=1`` runs inline — same results,
   the determinism reference).  No worker ever sees edges beyond its view.
   An interior coloring uses ≤ Δ_i+1 ≤ Δ+1 colors, so the merged global
   coloring is within budget and proper on every *interior* edge by
   construction — only cut edges can be monochromatic.
3. **merge** — interior colors land in the global array (shm workers
   write their disjoint interior slots directly; pickled workers return
   them over the pipe); the per-shard :class:`RoundMetrics` fold into
   the driver's account by parallel composition (max rounds, summed
   traffic — :meth:`RoundMetrics.absorb_parallel`).
4. **reconcile** — in the driver, shard by shard, via the
   boundary-exchange protocol (:mod:`repro.shard.boundary`): each
   sweep, every shard with work detects monochromatic edges among *its
   own incident cut edges*, yields victims by the churn engine's
   symmetric rule, and repairs them against the fixed fringe on a
   halo-sized scratch network; the driver merges the returned
   ``(node, color)`` deltas and re-checks the cut for convergence.
   k=1 runs the same loop: with no cut and a complete interior coloring
   it stops at its first check, so a one-shard run is bit for bit the
   unsharded engine.

The proper-coloring invariant is thus re-established *by protocol*: no
worker ever holds the whole graph, and each shard's repair reads only
its cut slice and the CSR rows of its conflict endpoints and repair
set.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.config import ColoringConfig, check_setting
from repro.core.algorithm import BroadcastColoring
from repro.faults import plan as faults
from repro.shard.boundary import CutPlan, repair_boundary
from repro.shard.partition import Partition, partition_nodes
from repro.shard.shm import ArenaDescriptor, ShmArena
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import (
    BroadcastNetwork,
    ShardView,
    shard_view_from_csr,
)
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-unix
    _resource = None


def _peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MiB (0.0 where unavailable).
    In a pool worker this bounds the transport claim: under shm it scales
    with the pages of the shard's CSR rows actually touched, not with n."""
    if _resource is None:  # pragma: no cover
        return 0.0
    kb = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return round(kb / 1024.0, 3)


_RECONCILE_MAX_ITERS = 10
"""Upper bound on detect→repair sweeps of the cross-shard reconciliation
loop.  One sweep suffices when the repair kernel fully re-colors its
victims (adoption is proper by construction); extra sweeps only fire
when a repair stalls at the round cap."""

_PARENT_POLL_S = 0.5
"""How often a pool worker checks that the process that started it is
still alive (:func:`_exit_with_parent`)."""

START_METHODS = ("default", "fork", "forkserver", "spawn")
"""The worker-pool start methods ``ShardedColoring`` accepts."""

__all__ = [
    "START_METHODS",
    "ShardedColoring",
    "ShardReport",
    "ShardedResult",
    "ShardWorkerError",
]


class ShardWorkerError(RuntimeError):
    """A shard's interior coloring failed on every allowed attempt and
    graceful degradation is disabled (``inline_fallback=False``):
    the supervisor re-raises instead of silently absorbing the loss.
    Carries the failing shard id and the last underlying failure."""

    def __init__(self, shard: int, attempts: int, cause: str) -> None:
        super().__init__(
            f"shard {shard} failed after {attempts} attempt(s): {cause}"
        )
        self.shard = shard
        self.attempts = attempts
        self.cause = cause


@dataclass
class ShardReport:
    """What one shard worker produced (cost + quality, per shard)."""

    shard: int
    n_interior: int
    m_interior: int
    delta_interior: int
    colors_used: int
    rounds: int
    total_bits: int
    proper: bool
    complete: bool
    seconds: float
    cut_edges: int = 0
    """Cut edges incident to this shard, filled in by the driver from
    its :class:`CutPlan` (the worker sees its interior only)."""
    cpu_seconds: float = 0.0
    """CPU time this shard's interior coloring consumed in its process
    (``time.process_time``).  On a host with fewer cores than workers the
    wall ``seconds`` mostly measures time-sharing waits; ``cpu_seconds``
    is what one dedicated machine would pay, and is what the benchmark's
    critical-path speedup is computed from."""
    peak_rss_mb: float = 0.0
    """Worker-process lifetime peak RSS (MiB) at the time the shard
    finished — the footprint evidence for the shm transport.  Like
    ``seconds`` it is an environment measurement, not part of the
    deterministic result."""
    reconcile_sweeps: list = field(default_factory=list)
    """Per-sweep reconciliation rows for this shard, one per sweep in
    which it had work (none when the merge is already proper and
    complete — always so at k=1, which has no cut).  Each row is
    ``{"sweep", "victims", "halo_nodes", "repair_rounds", "seconds"}``,
    so a slow sweep is visible, not only the totals.  Surfaced by
    ``repro shard --verbose``."""

    def as_dict(self) -> dict:
        """JSON-safe flat dict of this shard's interior account (one row
        of the CLI's per-shard table and of benchmark stores)."""
        return {
            "shard": self.shard,
            "n_interior": self.n_interior,
            "m_interior": self.m_interior,
            "cut_edges": self.cut_edges,
            "delta_interior": self.delta_interior,
            "colors_used": self.colors_used,
            "rounds": self.rounds,
            "total_bits": self.total_bits,
            "proper": self.proper,
            "complete": self.complete,
            "seconds": round(self.seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "peak_rss_mb": self.peak_rss_mb,
            "reconcile_sweeps": [dict(row) for row in self.reconcile_sweeps],
        }


@dataclass
class ShardedResult:
    """A full sharded run: merged coloring + per-shard and cut accounts."""

    colors: np.ndarray
    n: int
    k: int
    strategy: str
    delta: int
    proper: bool
    complete: bool
    num_colors_used: int
    shard_sizes: list[int]
    cut_edges: int
    cut_fraction: float
    boundary_nodes: int
    initial_conflicts: int
    """Monochromatic cut edges right after the merge (before any repair)."""
    reconcile_touched: int
    """Nodes whose color changed during cut reconciliation."""
    reconcile_rounds: int
    reconcile_iterations: int
    unresolved_conflicts: int
    rounds_interior: int
    """Parallel-composed interior rounds (max over shards)."""
    rounds_total: int
    total_bits: int
    seconds: float
    transport: str = "inline"
    """What carried the shard views: ``"shm"`` (a pooled run's arena),
    ``"pickle"`` (a pooled run whose arena could not be created) or
    ``"inline"`` (one worker or one shard: no pool).  Results are
    byte-identical across all three; only the plumbing differs."""
    shard_reports: list[ShardReport] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    """Supervision account (DESIGN.md §9): retries, worker_crashes,
    worker_timeouts, inline_fallbacks and time_lost_s, each event
    counted once by the supervisor as it happens; all zero on a
    fault-free run."""

    @property
    def touched_fraction(self) -> float:
        """Share of all nodes recolored during reconciliation — the
        cheapness-of-the-cut claim: stays near the boundary fraction."""
        return self.reconcile_touched / max(self.n, 1)

    def as_dict(self) -> dict:
        """JSON-safe report: run-level fields plus ``shards`` (one
        :meth:`ShardReport.as_dict` row per shard)."""
        return {
            "n": self.n,
            "k": self.k,
            "strategy": self.strategy,
            "delta": self.delta,
            "proper": self.proper,
            "complete": self.complete,
            "num_colors_used": self.num_colors_used,
            "shard_sizes": list(self.shard_sizes),
            "cut_edges": self.cut_edges,
            "cut_fraction": round(self.cut_fraction, 6),
            "boundary_nodes": self.boundary_nodes,
            "initial_conflicts": self.initial_conflicts,
            "reconcile_touched": self.reconcile_touched,
            "touched_fraction": round(self.touched_fraction, 6),
            "reconcile_rounds": self.reconcile_rounds,
            "reconcile_iterations": self.reconcile_iterations,
            "unresolved_conflicts": self.unresolved_conflicts,
            "rounds_interior": self.rounds_interior,
            "rounds_total": self.rounds_total,
            "total_bits": self.total_bits,
            "seconds": round(self.seconds, 6),
            "transport": self.transport,
            "faults": dict(self.faults),
            "shards": [r.as_dict() for r in self.shard_reports],
        }


def _color_shard(view: ShardView, cfg: ColoringConfig, attempt: int = 1) -> dict:
    """Worker-side pure function: color one shard's interior subgraph.

    Module-level (picklable) so ``ProcessPoolExecutor`` workers can run it;
    the result is a pure function of ``(view, cfg)`` — ``attempt`` only
    feeds the fault-injection context, never the coloring — which is what
    makes pool, inline and *retried* execution byte-identical.  The view
    holds the interior-induced CSR only, so the coloring cannot read the
    cut.
    """
    faults.inject("shard.worker", shard=int(view.shard), attempt=int(attempt))
    with obs.span("shard.color", shard=int(view.shard), attempt=int(attempt)):
        return _color_shard_inner(view, cfg, attempt)


def _color_shard_inner(view: ShardView, cfg: ColoringConfig, attempt: int) -> dict:
    """Body of :func:`_color_shard`, separated so the whole interior
    coloring sits inside one ``shard.color`` span."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    if view.n_interior == 0:
        return {
            "shard": view.shard,
            "colors": np.empty(0, dtype=np.int64),
            "metrics": RoundMetrics(),
            "report": ShardReport(
                shard=view.shard, n_interior=0, m_interior=0, delta_interior=0,
                colors_used=0, rounds=0, total_bits=0, proper=True,
                complete=True, seconds=time.perf_counter() - t0,
                cpu_seconds=time.process_time() - c0,
                peak_rss_mb=_peak_rss_mb(),
            ),
        }
    sub = BroadcastNetwork(view.interior_graph())
    # The bandwidth cap is a property of the *global* model: messages must
    # fit O(log n_global) bits no matter which shard sends them.
    sub.bandwidth_bits = cfg.bandwidth_bits(view.n_global)
    result = BroadcastColoring(sub, cfg).run()
    used = result.colors[result.colors >= 0]
    report = ShardReport(
        shard=view.shard,
        n_interior=view.n_interior,
        m_interior=int(sub.m),
        delta_interior=int(sub.delta),
        colors_used=int(np.unique(used).size) if used.size else 0,
        rounds=int(result.rounds_total),
        total_bits=int(result.total_bits),
        proper=bool(result.proper),
        complete=bool(result.complete),
        seconds=time.perf_counter() - t0,
        cpu_seconds=time.process_time() - c0,
        peak_rss_mb=_peak_rss_mb(),
    )
    return {
        "shard": view.shard,
        "colors": result.colors,
        "metrics": sub.metrics,
        "report": report,
    }


def _view_from_arena(arena: ShmArena, shard: int) -> ShardView:
    """Rebuild one shard's :class:`ShardView` from the attached arena —
    the worker-side half of the zero-copy transport.  Touches only the
    shard's member slice plus its CSR rows (O(vol(shard))); the
    full-n arrays are shared pages that fault in per-slice."""
    a = arena.arrays()
    starts = a["starts"]
    members = a["order"][int(starts[shard]) : int(starts[shard + 1])]
    return shard_view_from_csr(
        int(a["indptr"].size - 1),
        a["indptr"],
        a["indices"],
        members,
        a["assignment"],
        a["local"],
        shard,
    )


def _exit_with_parent() -> None:
    """Pool-worker initializer: give SIGTERM back its default action (a
    forked worker inherits the driver's handler), and exit as soon as
    the process that started this worker is gone, so a driver killed
    outright (SIGKILL, the OOM killer) orphans no worker."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Terminate ``pool``'s workers now.  ``shutdown`` would let a running
    task finish first, and the interpreter waits for it at exit: a run
    interrupted by a signal must stop its workers, not wait for them."""
    # No public way to reach the workers before Python 3.14's
    # ProcessPoolExecutor.terminate_workers().
    for proc in list((pool._processes or {}).values()):
        proc.terminate()


def _armed_state() -> tuple:
    """What every pool task carries beside its work: this process's armed
    fault plan as its dict form (or None) and its ``(tracing, metrics)``
    telemetry flags, for :func:`_arm_worker`."""
    plan = faults.armed_plan()
    return (
        plan.as_dict() if plan is not None else None,
        (obs.tracing_enabled(), obs.metrics_enabled()),
    )


def _arm_worker(armed: tuple) -> None:
    """Arm, inside a pool worker, what :func:`_armed_state` read in
    the process that submitted the task.  Riding every task, the plan
    and the flags arm the worker under any multiprocessing start method
    — not just fork inheritance — and after a pool is re-created.  Then
    drop the spans and registry counts inherited via fork or left by an
    earlier task, and this arming's own count: the submitting process
    keeps its own copy, and this worker ships back only what *it*
    produced for this task (:func:`_with_telemetry`)."""
    plan_payload, (tracing, metrics) = armed
    if plan_payload is not None:
        faults.arm(faults.FaultPlan.from_dict(plan_payload))
    if tracing or metrics:
        obs.enable(tracing=tracing, metrics=metrics)
    obs.drain_spans()
    obs.drain_metrics()


def _with_telemetry(out: dict) -> dict:
    """``out`` with this task's spans and counter and histogram
    increments attached, which the driver adopts (``obs.adopt_spans``,
    ``obs.adopt_metrics``)."""
    out["spans"] = obs.drain_spans()
    out["obs_metrics"] = obs.drain_metrics()
    return out


class _TaskFailed(Exception):
    """A pool task's soft failure as it crosses the pipe: the failure's
    repr plus the task's :func:`_with_telemetry` payload (the fault
    that fired, for one), which the driver adopts as it would a
    result's.  Left in the worker, the next task's :func:`_arm_worker`
    would drop it."""

    def __init__(self, cause: str, telemetry: dict) -> None:
        super().__init__(cause)
        self.telemetry = telemetry

    def __reduce__(self):
        return (type(self), (self.args[0], self.telemetry))


def _pool_color_shard(args: tuple) -> dict:
    """``ProcessPoolExecutor`` entry point (single-argument).

    ``args`` is ``(spec, cfg, attempt, armed)``; ``spec`` is a pickled
    :class:`ShardView` when the run fell back to pickled views, or an
    ``(ArenaDescriptor, shard)`` pair — the worker then attaches the
    arena, rebuilds its view zero-copy, and writes its interior colors
    straight into the shared colors array (its slots are disjoint from
    every other shard's), returning ``colors=None`` over the pipe.
    ``armed`` is :func:`_armed_state`'s fault plan and telemetry
    flags.  A coloring or an attach that raises comes back as
    :class:`_TaskFailed`.
    """
    spec, cfg, attempt, armed = args
    _arm_worker(armed)
    try:
        if isinstance(spec, ShardView):
            return _with_telemetry(_color_shard(spec, cfg, attempt=attempt))
        descriptor, shard = spec
        with ShmArena.attach(descriptor, writeable=("colors",)) as arena:
            view = _view_from_arena(arena, int(shard))
            out = _color_shard(view, cfg, attempt=attempt)
            arena.array("colors")[view.nodes] = out["colors"]
            out["colors"] = None  # already in shared memory
            return _with_telemetry(out)
    except Exception as exc:
        raise _TaskFailed(repr(exc), _with_telemetry({})) from exc


class ShardedColoring:
    """Partitioned (Δ+1)-coloring: k shard interiors in parallel, then
    cut reconciliation.

    >>> from repro.graphs.generators import gnp_graph
    >>> result = ShardedColoring(gnp_graph(300, 0.05, seed=1)).run()
    >>> assert result.proper and result.complete

    Parameters
    ----------
    graph:
        ``networkx.Graph``, ``(n, edges)`` pair or a ready
        :class:`BroadcastNetwork` (the driver's coordinator copy; workers
        only ever see their :class:`ShardView`).
    config:
        :class:`ColoringConfig`; ``shard_k``, ``shard_strategy`` and
        ``conflict_victim`` drive partitioning and reconciliation.
    workers:
        Process-pool size for the interior phase; ``1`` (default) colors
        shards inline in spec order — identical results, no pool.

    The supervisor's settings (DESIGN.md §9) change how a run survives
    its workers, never its colors:

    start_method:
        The pool's multiprocessing start method, one of
        :data:`START_METHODS`.  ``"default"`` is the platform's (fork on
        linux, fast).  ``"spawn"`` matters for *measurement*: forked
        workers inherit the driver's address space copy-on-write, so
        their RSS reflects the driver, while spawned workers start from
        a bare interpreter and fault in only the shared-memory pages
        they touch.
    worker_timeout_s:
        Per-shard wall-clock deadline for pool workers; a shard past it
        counts as a ``worker_timeout`` and is retried or degraded.  0
        disables it.  Inline execution cannot be deadlined: the driver
        would be interrupting itself.
    max_retries:
        How many times a failed shard (crash, ``BrokenProcessPool``,
        deadline overrun) is re-submitted before degrading.  Retries
        replay the same derived per-shard seed, so a recovered run is
        bit-identical to a fault-free one.
    retry_backoff_s:
        Base of the capped exponential backoff between retries of one
        shard (:meth:`_backoff`).
    inline_fallback:
        When a shard exhausts its retries, color it inline in the driver
        with any armed fault plan suppressed; ``False`` raises
        :class:`ShardWorkerError` instead.
    """

    def __init__(
        self,
        graph,
        config: ColoringConfig | None = None,
        *,
        workers: int = 1,
        start_method: str = "default",
        worker_timeout_s: float = 0.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        inline_fallback: bool = True,
    ):
        check_setting("workers", workers, "int", least=1)
        check_setting("start_method", start_method, "str", choices=START_METHODS)
        check_setting("worker_timeout_s", worker_timeout_s, "float", least=0)
        check_setting("max_retries", max_retries, "int", least=0)
        check_setting("retry_backoff_s", retry_backoff_s, "float", least=0)
        check_setting("inline_fallback", inline_fallback, "bool")
        self.cfg = config or ColoringConfig.practical()
        self.k = self.cfg.shard_k
        self.strategy = self.cfg.shard_strategy
        self.workers = workers
        self.start_method = start_method
        self.worker_timeout_s = worker_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.inline_fallback = inline_fallback
        if isinstance(graph, BroadcastNetwork):
            self.net = graph
        else:
            self.net = BroadcastNetwork(graph)
        if self.net.bandwidth_bits is None:
            self.net.bandwidth_bits = self.cfg.bandwidth_bits(self.net.n)
        self.seq = SeedSequencer(self.cfg.seed).spawn("shard")
        self._part: Partition | None = None
        self._local: np.ndarray | None = None
        self._views: dict[int, ShardView] = {}

    def _pool(self, max_workers: int) -> ProcessPoolExecutor:
        """A worker pool under ``start_method`` (``"default"`` inherits
        the platform's context)."""
        method = self.start_method
        if method == "default":
            return ProcessPoolExecutor(
                max_workers=max_workers, initializer=_exit_with_parent
            )
        import multiprocessing as mp

        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=mp.get_context(method),
            initializer=_exit_with_parent,
        )

    def _view(self, shard: int) -> ShardView:
        """One shard's view, built on demand in this process (inline and
        pickled-view tasks, pool-failure fallbacks) and cached."""
        view = self._views.get(shard)
        if view is None:
            if self._local is None:
                self._local = self._part.local_ids()
            view = shard_view_from_csr(
                self.net.n,
                self.net.indptr,
                self.net.indices,
                self._part.members(shard),
                self._part.assignment,
                self._local,
                shard,
            )
            self._views[shard] = view
        return view

    # ------------------------------------------------------------------
    def _shard_config(self, shard: int) -> ColoringConfig:
        """Per-shard coloring config.  k=1 keeps the root config untouched
        so a single-shard run is *bit-identical* to the single-process
        pipeline; k>1 derives independent per-shard seeds (local node ids
        overlap across shards, so sharing the root seed would correlate
        their coin flips)."""
        if self.k == 1:
            return self.cfg
        return self.cfg.with_seed(self.seq.derive_seed("color", shard))

    def run(self) -> ShardedResult:
        """Execute the full partitioned run: partition → pack (arena or
        views) → k interior colorings (pool or inline) → merge → cut
        reconciliation, shard by shard in the driver.  Deterministic in
        ``(graph, config)`` regardless of ``workers`` and transport."""
        cfg, net = self.cfg, self.net
        obs.count("repro_shard_runs_total")
        metrics = net.metrics
        t0 = time.perf_counter()
        rounds_before = metrics.total_rounds
        bits_before = metrics.total_bits
        self._faults = {
            "retries": 0,
            "worker_crashes": 0,
            "worker_timeouts": 0,
            "inline_fallbacks": 0,
            "time_lost_s": 0.0,
        }

        # ---- 1. partition --------------------------------------------
        with metrics.time_phase("shard/partition"):
            part = partition_nodes(net, self.k, self.strategy, seed=cfg.seed)
            plan = CutPlan.build(net.undirected_edges(), part.assignment, self.k)
        self._part = part
        self._local = None
        self._views = {}
        cut_edge_count = int(plan.cut.shape[0])
        boundary = plan.boundary
        obs.gauge_set("repro_shard_cut_edges", cut_edge_count, k=self.k)

        # ---- 1b. pack: a pooled run's arena, else extracted views ---
        pooled = self.workers > 1 and self.k > 1
        arena: ShmArena | None = None
        try:
            with metrics.time_phase("shard/pack"):
                if pooled:
                    arena = self._pack_arena(part)
                if arena is not None:
                    colors = arena.array("colors")
                    tasks: list = [(arena.descriptor(), i) for i in range(self.k)]
                else:
                    tasks = [self._view(i) for i in range(self.k)]
                    colors = np.full(net.n, -1, dtype=np.int64)
            transport = "shm" if arena is not None else "pickle" if pooled else "inline"

            # ---- 2. interior (parallel over shards, supervised) ------
            with metrics.time_phase("shard/interior"):
                outs = self._run_interiors(tasks)

                # ---- 3. merge ----------------------------------------
                # shm workers already wrote their disjoint interior slots;
                # pickled/inline/fallback outputs scatter here.
                for i, out in enumerate(outs):
                    obs.adopt_spans(out.get("spans"))
                    obs.adopt_metrics(out.get("obs_metrics"))
                    if out["colors"] is not None:
                        colors[part.members(i)] = out["colors"]
                metrics.absorb_parallel(
                    [out["metrics"] for out in outs], phase="shard/interior"
                )
            if arena is not None:
                colors = colors.copy()  # the arena is unlinked below
        finally:
            if arena is not None:
                arena.unlink()
        shard_reports = [out["report"] for out in outs]
        for report in shard_reports:
            s = report.shard
            report.cut_edges = int(plan.indptr[s + 1] - plan.indptr[s])
        rounds_interior = max((r.rounds for r in shard_reports), default=0)

        # ---- 4. cut reconciliation (in the driver, DESIGN.md §7) -----
        num_colors = net.delta + 1
        color_bits = bits_for_color(max(net.delta, 1))
        touched = np.zeros(net.n, dtype=bool)
        reconcile_rounds_before = metrics.rounds_in("shard/reconcile")
        with metrics.time_phase("shard/reconcile"):
            initial_conflicts, iterations, unresolved = self._reconcile_boundary(
                plan, colors, touched, num_colors, color_bits, shard_reports
            )
        reconcile_rounds = (
            metrics.rounds_in("shard/reconcile") - reconcile_rounds_before
        )

        self._faults["time_lost_s"] = round(self._faults["time_lost_s"], 6)
        src, dst = net.edge_src, net.indices
        proper = not bool(((colors[src] >= 0) & (colors[src] == colors[dst])).any())
        complete = bool((colors >= 0).all())
        used = colors[colors >= 0]
        return ShardedResult(
            colors=colors,
            n=net.n,
            k=self.k,
            strategy=self.strategy,
            delta=net.delta,
            proper=proper,
            complete=complete,
            num_colors_used=int(np.unique(used).size) if used.size else 0,
            shard_sizes=[int(s) for s in part.sizes()],
            cut_edges=cut_edge_count,
            cut_fraction=cut_edge_count / max(net.m, 1),
            boundary_nodes=int(boundary.size),
            initial_conflicts=initial_conflicts,
            reconcile_touched=int(touched.sum()),
            reconcile_rounds=reconcile_rounds,
            reconcile_iterations=iterations,
            unresolved_conflicts=unresolved,
            rounds_interior=rounds_interior,
            rounds_total=metrics.total_rounds - rounds_before,
            total_bits=metrics.total_bits - bits_before,
            seconds=time.perf_counter() - t0,
            transport=transport,
            shard_reports=shard_reports,
            phase_seconds={
                name: float(secs)
                for name, secs in metrics.phase_seconds.items()
                if name.startswith("shard/")
            },
            faults=self._faults,
        )

    def _pack_arena(self, part: Partition) -> ShmArena | None:
        """Pack what :func:`_view_from_arena` reads — the global CSR and
        the partition index — and the colors array the workers write
        into one shared-memory arena, or return None when the arena
        cannot be created (``OSError``: a ``/dev/shm`` too small or
        absent) — the run then pickles each worker its view."""
        net = self.net
        order, starts = part.index_arrays()
        self._local = part.local_ids()
        arrays = {
            "indptr": net.indptr,
            "indices": net.indices,
            "assignment": part.assignment,
            "order": order,
            "starts": starts,
            "local": self._local,
            "colors": np.full(net.n, -1, dtype=np.int64),
        }
        try:
            return ShmArena.create(arrays, label=f"k{self.k}")
        except OSError:
            return None

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def _reconcile_boundary(
        self,
        plan: CutPlan,
        colors: np.ndarray,
        touched: np.ndarray,
        num_colors: int,
        color_bits: int,
        shard_reports: list[ShardReport],
    ) -> tuple[int, int, int]:
        """The boundary-exchange sweep loop, for every k, run in the
        driver: each shard with work repairs its own boundary with
        :func:`repair_boundary` against the colors of the sweep's start,
        then the driver merges the disjoint deltas and re-checks only
        the cut.  At k=1 there is no cut, so the loop can only pick up
        uncolored stragglers.  Each merged sweep appends a timing row to
        the owning shard's :attr:`ShardReport.reconcile_sweeps`."""
        cfg, net = self.cfg, self.net
        metrics = net.metrics
        cu_idx, cv_idx = plan.cut[:, 0], plan.cut[:, 1]
        assignment = self._part.assignment
        empty = np.empty(0, dtype=np.int64)
        initial_conflicts = 0
        iterations = 0
        unresolved = 0
        while iterations < _RECONCILE_MAX_ITERS:
            # The exchange: every boundary node's color, one vector
            # round per sweep.
            net.account_vector_round(
                int(plan.boundary.size), color_bits, phase="shard/reconcile"
            )
            cu, cv = colors[cu_idx], colors[cv_idx]
            mono = (cu >= 0) & (cu == cv)
            unresolved = int(mono.sum())
            obs.gauge_set("repro_shard_unresolved_cut_conflicts", unresolved)
            if iterations == 0:
                initial_conflicts = unresolved
            uncolored = np.flatnonzero(colors < 0)
            if unresolved == 0 and uncolored.size == 0:
                break
            active = np.zeros(self.k, dtype=bool)
            if unresolved:
                active[np.unique(assignment[plan.cut[mono].reshape(-1)])] = True
            extras: dict[int, np.ndarray] = {}
            if uncolored.size:
                own = assignment[uncolored]
                for s in np.unique(own):
                    extras[int(s)] = uncolored[own == s]
                    active[s] = True
            # Every shard repairs against the same colors: the merge
            # waits until all of them are done.
            outs = [
                repair_boundary(
                    net, assignment, colors, plan.edges_of(s), s,
                    extras.get(s, empty), num_colors, cfg,
                    self.seq.derive_seed("reconcile", s), iterations,
                )
                for s in map(int, np.flatnonzero(active))
            ]
            # Merge: deltas are disjoint by ownership, so the order
            # of application cannot matter.
            for out in outs:
                nodes = out["nodes"]
                if nodes.size:
                    colors[nodes] = out["colors"]
                    touched[nodes] = True
                shard_reports[out["shard"]].reconcile_sweeps.append(
                    {
                        "sweep": iterations,
                        "victims": out["victims"],
                        "halo_nodes": out["halo_nodes"],
                        "repair_rounds": out["repair_rounds"],
                        "seconds": round(out["seconds"], 6),
                    }
                )
            metrics.absorb_parallel(
                [out["metrics"] for out in outs], phase="shard/reconcile"
            )
            obs.count("repro_shard_reconcile_sweeps_total")
            iterations += 1
        if iterations == _RECONCILE_MAX_ITERS:
            cu, cv = colors[cu_idx], colors[cv_idx]
            unresolved = int(((cu >= 0) & (cu == cv)).sum())
        return initial_conflicts, iterations, unresolved

    # ------------------------------------------------------------------
    # Interior supervision (DESIGN.md §9)
    # ------------------------------------------------------------------
    def _fault(self, key: str, kind: str, seconds: float = 0.0) -> None:
        """Count one supervision event, once: under ``key`` in this
        run's :attr:`ShardedResult.faults`, and as
        ``repro_fault_events_total{kind}``.  ``seconds`` is the
        wall-clock lost to it (waiting on a doomed worker).  Faults
        never touch rounds or bits: recovery replays the same protocol,
        so only real time is lost."""
        self._faults[key] += 1
        self._faults["time_lost_s"] += seconds
        obs.count("repro_fault_events_total", kind=kind)

    def _backoff(self, shard: int, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter: attempt
        ``a`` of one shard waits ``base · 2^(a-1) · u`` seconds with
        ``u ∈ [0.5, 1.0)`` derived from the run's seed sequencer — two
        crashed shards never retry in lock-step, yet the schedule is a
        pure function of ``(seed, shard, attempt)``."""
        base = self.retry_backoff_s
        if base == 0:
            return 0.0
        jitter = 0.5 + (self.seq.derive_seed("backoff", shard, attempt) % 1000) / 2000.0
        return min(base * (2 ** (attempt - 1)), 30.0) * jitter

    def _fail_or_fallback(
        self, shard: int, cfg_i, attempts: int, cause: str
    ) -> dict:
        """Retries exhausted: degrade to inline execution in the driver
        (fault plan suppressed — the work must *succeed*, not re-die),
        or raise :class:`ShardWorkerError` when degradation is off.  The
        driver builds the shard's view on demand — under shm it never
        extracted one up front."""
        if not self.inline_fallback:
            raise ShardWorkerError(shard, attempts, cause)
        self._fault("inline_fallbacks", "inline_fallback")
        with faults.suppressed():
            return _color_shard(self._view(shard), cfg_i, attempt=attempts + 1)

    def _run_interiors(self, tasks: list) -> list:
        """The supervisor loop around the interior phase: submit every
        shard, detect crashes (``BrokenProcessPool``, injected faults),
        enforce the per-shard wall-clock deadline, retry with backoff
        (same derived seed → bit-identical recovery), and degrade to
        inline execution for shards that keep failing; every event goes
        to :meth:`_fault`.  Returns the per-shard outputs in shard
        order.  ``tasks`` holds one picklable spec per shard: a
        :class:`ShardView` (pickled or inline) or an
        ``(ArenaDescriptor, shard)`` pair (arena)."""
        shard_cfgs = [self._shard_config(i) for i in range(self.k)]
        outs: list = [None] * self.k
        max_attempts = 1 + self.max_retries

        if not (self.workers > 1 and self.k > 1):
            # Inline path: same supervision semantics, no pool, no
            # deadline (the driver cannot interrupt itself).
            for i in range(self.k):
                attempt = 1
                while outs[i] is None:
                    t0 = time.perf_counter()
                    try:
                        outs[i] = _color_shard(tasks[i], shard_cfgs[i], attempt=attempt)
                    except Exception as exc:
                        self._fault(
                            "worker_crashes", "worker_crash", time.perf_counter() - t0
                        )
                        if attempt >= max_attempts:
                            outs[i] = self._fail_or_fallback(
                                i, shard_cfgs[i], attempt, repr(exc)
                            )
                            break
                        self._fault("retries", "retry")
                        time.sleep(self._backoff(i, attempt))
                        attempt += 1
            return outs

        armed = _armed_state()
        timeout = self.worker_timeout_s or None
        pending = list(range(self.k))
        attempt = {i: 1 for i in pending}
        pool = self._pool(min(self.workers, self.k))
        try:
            while pending:
                futs = {
                    i: pool.submit(
                        _pool_color_shard,
                        (tasks[i], shard_cfgs[i], attempt[i], armed),
                    )
                    for i in pending
                }
                failed: list[tuple[int, str]] = []
                pool_broken = False
                for i, fut in futs.items():
                    t0 = time.perf_counter()
                    try:
                        outs[i] = fut.result(timeout=timeout)
                        continue
                    except FuturesTimeout:
                        fut.cancel()
                        key, kind = "worker_timeouts", "worker_timeout"
                        cause = f"no result within {timeout}s"
                        pool_broken = True  # a hung worker poisons its slot
                    except BrokenProcessPool as exc:
                        key, kind, cause = "worker_crashes", "worker_crash", repr(exc)
                        pool_broken = True
                    except Exception as exc:  # soft crash inside the worker
                        if isinstance(exc, _TaskFailed):
                            obs.adopt_spans(exc.telemetry["spans"])
                            obs.adopt_metrics(exc.telemetry["obs_metrics"])
                        key, kind, cause = "worker_crashes", "worker_crash", repr(exc)
                    self._fault(key, kind, time.perf_counter() - t0)
                    failed.append((i, cause))
                pending = []
                if not failed:
                    continue
                if pool_broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._pool(min(self.workers, self.k))
                for i, cause in failed:
                    if attempt[i] >= max_attempts:
                        outs[i] = self._fail_or_fallback(
                            i, shard_cfgs[i], attempt[i], cause
                        )
                        continue
                    self._fault("retries", "retry")
                    time.sleep(self._backoff(i, attempt[i]))
                    attempt[i] += 1
                    pending.append(i)
        except BaseException:
            _stop_workers(pool)
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return outs
