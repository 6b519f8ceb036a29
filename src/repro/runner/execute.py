"""Worker-side trial execution.

:func:`run_trial` is the pure function at the heart of the runner: spec in,
deterministic payload out.  It is module-level (picklable) so
``ProcessPoolExecutor`` workers can import and run it, and it carries its
own timeout guard (SIGALRM on POSIX) so a runaway trial kills itself
inside the worker instead of wedging the pool.
"""

from __future__ import annotations

import math
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Any

from repro import obs
from repro.baselines.greedy import greedy_coloring
from repro.baselines.johansson import johansson_coloring
from repro.baselines.luby import luby_coloring
from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.core.state import count_distinct_colors
from repro.dynamic.engine import DynamicColoring
from repro.faults import plan as faults
from repro.graphs.families import make_churn, make_graph
from repro.runner.spec import TrialResult, TrialSpec
from repro.shard.engine import ShardedColoring
from repro.simulator.network import BroadcastNetwork

__all__ = ["run_trial", "TrialTimeout"]


class TrialTimeout(Exception):
    """Raised inside a worker when a trial exceeds its wall-clock budget."""


def _alarm_usable(timeout_s: float | None) -> bool:
    """Whether the SIGALRM guard can actually arm *here*: a positive
    budget, a POSIX platform, and the main thread of the process
    (``signal.setitimer`` is main-thread-only).  Pool workers qualify —
    each worker process runs trials on its own main thread — but a trial
    driven from a non-main thread silently has no worker-side guard,
    which is why :class:`TrialResult` surfaces ``guard`` and the pool
    driver keeps its own wall-clock deadline as a backstop."""
    return (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _alarm(timeout_s: float | None):
    """SIGALRM-based timeout; a no-op when :func:`_alarm_usable` is false."""
    if not _alarm_usable(timeout_s):
        yield
        return

    def _raise(signum, frame):
        raise TrialTimeout(f"trial exceeded {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _config_for(spec: TrialSpec) -> ColoringConfig:
    base = ColoringConfig.paper if spec.preset == "paper" else ColoringConfig.practical
    return base(seed=spec.algo_seed(), **{k: v for k, v in spec.overrides})


def _measure(spec: TrialSpec) -> tuple[dict[str, Any], dict[str, float]]:
    """Execute the algorithm named by the spec; return (payload, timings).

    The payload is deterministic; ``timings`` (wall-clock seconds per
    phase) ride alongside in the result record and never enter the
    payload."""
    if spec.algorithm == "dynamic":
        payload, timings = _measure_dynamic(spec)
        _check_finite(payload)
        return payload, timings
    if spec.algorithm == "shard":
        payload, timings = _measure_shard(spec)
        _check_finite(payload)
        return payload, timings
    graph = make_graph(spec.family, spec.n, spec.avg_degree, spec.graph_seed())
    algo = None
    if spec.algorithm == "broadcast":
        # Let the algorithm build (and configure) its own network, then
        # read the graph stats from it — one construction, no duplicated
        # bandwidth policy.
        algo = BroadcastColoring(graph, _config_for(spec))
        net = algo.net
    else:
        net = BroadcastNetwork(graph)
    payload: dict[str, Any] = {
        **spec.as_dict(),
        "n_actual": int(net.n),
        "m": int(net.m),
        "delta": int(net.delta),
    }
    timings: dict[str, float] = {}
    if algo is not None:
        res = algo.run()
        timings = dict(res.phase_seconds)
        payload.update(
            rounds=int(res.rounds_algorithm),
            rounds_total=int(res.rounds_total),
            rounds_cleanup=int(res.rounds_cleanup),
            proper=bool(res.proper),
            complete=bool(res.complete),
            num_colors_used=int(res.num_colors_used),
            total_bits=int(res.total_bits),
            bits_per_node=float(res.total_bits / max(res.n, 1)),
        )
    elif spec.algorithm in ("johansson", "luby"):
        fn = johansson_coloring if spec.algorithm == "johansson" else luby_coloring
        res = fn(net, seed=spec.algo_seed())
        payload.update(
            rounds=int(res.rounds),
            proper=bool(res.proper),
            complete=bool(res.complete),
            num_colors_used=count_distinct_colors(res.colors),
            total_bits=int(res.total_bits),
            bits_per_node=float(res.total_bits / max(net.n, 1)),
        )
    elif spec.algorithm == "greedy":
        colors = greedy_coloring(net, smallest_last=True)
        und = net.undirected_edges()
        proper = bool((colors[und[:, 0]] != colors[und[:, 1]]).all()) if net.m else True
        payload.update(
            rounds=int(net.n),  # sequential: one node per "round"
            proper=bool(proper),
            complete=bool((colors >= 0).all()),
            num_colors_used=int(colors.max()) + 1 if colors.size else 0,
            total_bits=0,
            bits_per_node=0.0,
        )
    else:  # pragma: no cover - guarded by TrialSpec.__post_init__
        raise ValueError(f"unknown algorithm: {spec.algorithm!r}")
    _check_finite(payload)
    return payload, timings


def _check_finite(payload: dict[str, Any]) -> None:
    for value in payload.values():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"non-finite measurement in payload: {payload}")


def _measure_dynamic(spec: TrialSpec) -> tuple[dict[str, Any], dict[str, float]]:
    """Churn trial: a schedule from the spec's (churn or static) family,
    maintained by the incremental engine.  Schedule shape comes from the
    config's ``dynamic_batches``/``dynamic_churn_fraction`` knobs, so it
    rides spec overrides — and the content hash — like any other
    tunable."""
    cfg = _config_for(spec)
    schedule = make_churn(
        spec.family,
        spec.n,
        spec.avg_degree,
        spec.graph_seed(),
        batches=cfg.dynamic_batches,
        churn_fraction=cfg.dynamic_churn_fraction,
    )
    engine = DynamicColoring(schedule, cfg)
    result = engine.run(schedule)
    summary = result.summary()
    net = engine.net
    total_bits = net.metrics.total_bits
    payload: dict[str, Any] = {
        **spec.as_dict(),
        "n_actual": int(net.n),
        "m": int(net.m),
        "delta": int(net.delta),
        "rounds": summary["total_rounds"],
        "rounds_initial": summary["initial_rounds"],
        "proper": summary["proper_all"],
        "complete": summary["complete_all"],
        "colors_within_budget": summary["colors_within_budget"],
        "num_colors_used": engine.colors_used(),
        "batches": summary["batches"],
        "fallbacks": summary["fallbacks"],
        "mean_conflict_fraction": summary["mean_conflict_fraction"],
        "mean_recolored_fraction": summary["mean_recolored_fraction"],
        "max_recolored_fraction": summary["max_recolored_fraction"],
        "total_bits": int(total_bits),
        "bits_per_node": float(total_bits / max(net.n, 1)),
    }
    timings = {
        name: float(secs) for name, secs in net.metrics.phase_seconds.items()
    }
    return payload, timings


def _measure_shard(spec: TrialSpec) -> tuple[dict[str, Any], dict[str, float]]:
    """Sharded trial: partition strategy and k come from the config's
    ``shard_*`` knobs, so they ride spec overrides — and the content hash
    — like any other tunable.  Shards color inline (``workers=1``): the
    trial itself already runs inside a pool worker, and a sharded run is a
    pure function of the spec at any worker count."""
    cfg = _config_for(spec)
    graph = make_graph(spec.family, spec.n, spec.avg_degree, spec.graph_seed())
    engine = ShardedColoring(graph, cfg)
    res = engine.run()
    net = engine.net
    payload: dict[str, Any] = {
        **spec.as_dict(),
        "n_actual": int(net.n),
        "m": int(net.m),
        "delta": int(net.delta),
        "k": res.k,
        "strategy": res.strategy,
        "transport": res.transport,
        "rounds": int(res.rounds_total),
        "rounds_interior": int(res.rounds_interior),
        "proper": bool(res.proper),
        "complete": bool(res.complete),
        "num_colors_used": int(res.num_colors_used),
        "cut_edges": int(res.cut_edges),
        "cut_fraction": float(res.cut_fraction),
        "boundary_nodes": int(res.boundary_nodes),
        "initial_conflicts": int(res.initial_conflicts),
        "reconcile_touched": int(res.reconcile_touched),
        "touched_fraction": float(res.touched_fraction),
        "reconcile_rounds": int(res.reconcile_rounds),
        "unresolved_conflicts": int(res.unresolved_conflicts),
        "total_bits": int(res.total_bits),
        "bits_per_node": float(res.total_bits / max(net.n, 1)),
    }
    timings = {name: float(secs) for name, secs in res.phase_seconds.items()}
    return payload, timings


def run_trial(spec: TrialSpec, timeout_s: float | None = None) -> TrialResult:
    """Execute one trial, never raising: failures become status records.

    ``guard`` on the result names the timeout protection that was live:
    ``"sigalrm"`` when the in-worker alarm armed, ``"none"`` when it
    could not (no budget, non-POSIX, non-main thread — the pool driver's
    wall-clock deadline is then the only backstop).
    """
    start = time.perf_counter()
    guard = "sigalrm" if _alarm_usable(timeout_s) else "none"
    try:
        # Chaos site: an injected crash here becomes a clean status=error
        # record; an injected *hang* outlives the alarm (it fires before
        # the guard arms), exercising the driver's wall-clock backstop.
        faults.inject("runner.trial", algorithm=spec.algorithm, seed=int(spec.seed))
        obs.count("repro_runner_trials_total", algorithm=spec.algorithm)
        with _alarm(timeout_s):
            with obs.span(
                "runner.trial", algorithm=spec.algorithm, seed=int(spec.seed)
            ):
                payload, timings = _measure(spec)
        obs.observe(
            "repro_runner_trial_us",
            (time.perf_counter() - start) * 1e6,
            algorithm=spec.algorithm,
        )
        return TrialResult(
            spec=spec, status="ok", payload=payload,
            elapsed_s=time.perf_counter() - start,
            timings=timings,
            guard=guard,
        )
    except TrialTimeout as exc:
        return TrialResult(
            spec=spec, status="timeout", error=str(exc),
            elapsed_s=time.perf_counter() - start,
            guard=guard,
        )
    except Exception:
        return TrialResult(
            spec=spec, status="error",
            error=traceback.format_exc(limit=8),
            elapsed_s=time.perf_counter() - start,
            guard=guard,
        )


def _pool_entry(spec_dict: dict, timeout_s: float | None) -> dict:
    """ProcessPool entry point: dict in, dict out (cheap, stable pickling)."""
    result = run_trial(TrialSpec.from_dict(spec_dict), timeout_s=timeout_s)
    return result.record()
