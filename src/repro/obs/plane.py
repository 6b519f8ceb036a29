"""The telemetry plane: spans, hooks, and the armed-state global.

Design mirrors ``repro.faults.plan``: all hot-path hooks are a single
module-global load plus an ``is None`` test when telemetry is disarmed,
so instrumented code pays ~100 ns per call site with tracing off (the
bound is gated in ``benchmarks/bench_obs.py``).  Nothing in this module
imports any other ``repro`` package — ``repro.obs`` is a leaf so that
``simulator.metrics`` and ``faults.plan`` can import it without cycles.

Spans are plain dicts (pickle- and JSON-safe) so worker processes can
ship their buffers back to the driver inside ordinary result payloads —
the same pipe ``FaultInjected`` already crosses.  Timestamps come from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which is
comparable across processes on the same host, so driver and worker
lanes align in one trace.

Determinism: the plane never touches any RNG and never feeds back into
engine control flow, so colorings are byte-identical with tracing on or
off (tested in ``tests/test_obs.py``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Iterator

from .registry import MetricsRegistry

__all__ = [
    "DEFAULT_TRACE_BUFFER",
    "ObsState",
    "adopt_metrics",
    "adopt_spans",
    "count",
    "disable",
    "drain_metrics",
    "drain_spans",
    "enable",
    "enabled",
    "end_span",
    "gauge_set",
    "metrics_enabled",
    "observe",
    "registry",
    "render_metrics",
    "span",
    "start_span",
    "tracing_enabled",
]

#: Default cap on buffered spans before new spans are dropped (counted
#: in ``repro_obs_spans_dropped_total``).
DEFAULT_TRACE_BUFFER = 100_000


class _SpanStack(threading.local):
    """Per-thread stack of open span ids (for parent linkage)."""

    def __init__(self) -> None:
        self.stack: list[int] = []


class ObsState:
    """Armed telemetry state: span buffer + metrics registry.

    Only ever reached through the module-global ``_STATE``; hot hooks
    early-return when it is ``None``.
    """

    def __init__(
        self,
        *,
        tracing: bool = True,
        metrics: bool = True,
        trace_buffer: int = DEFAULT_TRACE_BUFFER,
    ) -> None:
        self.tracing = bool(tracing)
        self.metrics = bool(metrics)
        self.trace_buffer = int(trace_buffer)
        self.spans: list[dict[str, Any]] = []
        self.registry = MetricsRegistry()
        self.dropped = 0
        self._ids = itertools.count(1)
        self._tls = _SpanStack()
        self._lock = threading.Lock()

    # -- span machinery -------------------------------------------------

    def open_span(self, name: str, attrs: dict[str, Any]) -> dict[str, Any]:
        """Open a span: allocate an id, link to the per-thread parent."""
        with self._lock:
            sid = next(self._ids)
        stack = self._tls.stack
        rec = {
            "name": name,
            "ts": time.perf_counter_ns(),
            "dur": 0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "id": sid,
            "parent": stack[-1] if stack else 0,
            "attrs": attrs,
        }
        stack.append(sid)
        return rec

    def close_span(self, rec: dict[str, Any]) -> None:
        """Close a span: stamp duration, pop the stack, buffer it."""
        rec["dur"] = time.perf_counter_ns() - rec["ts"]
        stack = self._tls.stack
        if stack and stack[-1] == rec["id"]:
            stack.pop()
        elif rec["id"] in stack:  # out-of-order close (RoundMetrics pairs)
            stack.remove(rec["id"])
        with self._lock:
            self.buffer_span(rec)

    def buffer_span(self, rec: dict[str, Any]) -> bool:
        """Append a closed span to the buffer, or, once the buffer holds
        ``trace_buffer`` spans, drop it and count it in ``dropped`` and
        ``repro_obs_spans_dropped_total``.  Returns whether it was kept.
        The caller holds ``_lock``."""
        if len(self.spans) < self.trace_buffer:
            self.spans.append(rec)
            return True
        self.dropped += 1
        self.registry.counter("repro_obs_spans_dropped_total").inc()
        return False

    def take_spans(self) -> list[dict[str, Any]]:
        """Return and clear the span buffer."""
        with self._lock:
            out, self.spans = self.spans, []
        return out


_STATE: ObsState | None = None


class _Span:
    """Context manager wrapping one open span record."""

    __slots__ = ("_rec", "_state")

    def __init__(self, state: ObsState, rec: dict[str, Any]) -> None:
        self._state = state
        self._rec = rec

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._state.close_span(self._rec)


class _NoopSpan:
    """Singleton no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP = _NoopSpan()


# -- lifecycle ----------------------------------------------------------


def enable(
    *,
    tracing: bool = True,
    metrics: bool = True,
    trace_buffer: int = DEFAULT_TRACE_BUFFER,
) -> ObsState:
    """Arm the telemetry plane (idempotent: re-enabling keeps buffers).

    Returns the armed :class:`ObsState`.  When already enabled, flags
    are OR-ed in (enabling tracing on an armed metrics-only plane keeps
    the existing registry).
    """
    global _STATE
    state = _STATE
    if state is None:
        state = ObsState(
            tracing=tracing, metrics=metrics, trace_buffer=trace_buffer
        )
        _STATE = state
    else:
        state.tracing = state.tracing or tracing
        state.metrics = state.metrics or metrics
    return state


def disable() -> None:
    """Disarm the plane; hooks return to their ~100 ns no-op path."""
    global _STATE
    _STATE = None


def enabled() -> bool:
    """True when the plane is armed (tracing or metrics)."""
    return _STATE is not None


def tracing_enabled() -> bool:
    """True when spans are being recorded."""
    state = _STATE
    return state is not None and state.tracing


def metrics_enabled() -> bool:
    """True when the metrics registry is armed."""
    state = _STATE
    return state is not None and state.metrics


# -- hot hooks (all early-return when disarmed) ------------------------


def span(name: str, **attrs: Any) -> Any:
    """Open a traced span as a context manager.

    Disarmed cost: one global load + ``is None`` + returning a shared
    no-op context manager.
    """
    state = _STATE
    if state is None or not state.tracing:
        return _NOOP
    return _Span(state, state.open_span(name, attrs))


def start_span(name: str, **attrs: Any) -> dict[str, Any] | None:
    """Unscoped span open, for begin/stop pairs that cannot nest a
    ``with`` block (``RoundMetrics.begin_phase``/``stop_timer``).

    Returns the open record to pass to :func:`end_span`, or ``None``
    when disarmed — :func:`end_span` accepts ``None`` so call sites
    need no guard.
    """
    state = _STATE
    if state is None or not state.tracing:
        return None
    return state.open_span(name, attrs)


def end_span(rec: dict[str, Any] | None) -> None:
    """Close a span opened with :func:`start_span` (``None`` is a no-op)."""
    if rec is None:
        return
    state = _STATE
    if state is None:
        return
    state.close_span(rec)


def count(name: str, value: int = 1, **labels: str) -> None:
    """Increment a counter (no-op when metrics are disarmed)."""
    state = _STATE
    if state is None or not state.metrics:
        return
    state.registry.counter(name, **labels).inc(value)


def gauge_set(name: str, value: float, **labels: str) -> None:
    """Set a gauge (no-op when metrics are disarmed)."""
    state = _STATE
    if state is None or not state.metrics:
        return
    state.registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: str) -> None:
    """Observe a value into a log2-bucket histogram (no-op disarmed)."""
    state = _STATE
    if state is None or not state.metrics:
        return
    state.registry.histogram(name, **labels).observe(value)


# -- buffers and registry access ---------------------------------------


def drain_spans() -> list[dict[str, Any]]:
    """Return and clear the buffered spans (``[]`` when disarmed).

    Always safe to call — worker processes attach the result to their
    payloads unconditionally.
    """
    state = _STATE
    if state is None:
        return []
    return state.take_spans()


def adopt_spans(spans: Iterator[dict[str, Any]] | list[dict[str, Any]] | None) -> int:
    """Merge spans drained in another process into this plane's buffer.

    Used by shard/runner drivers to reassemble worker-side traces.
    Returns the number adopted (0 when disarmed or ``spans`` is empty).
    """
    state = _STATE
    if state is None or not spans:
        return 0
    with state._lock:
        return sum(state.buffer_span(rec) for rec in spans)


def drain_metrics() -> dict[str, Any]:
    """Return and reset this process's counter and histogram increments
    (``{}`` when metrics are disarmed): what a worker ships back beside
    its spans, for :func:`adopt_metrics`."""
    state = _STATE
    if state is None or not state.metrics:
        return {}
    return state.registry.drain()


def adopt_metrics(drained: dict[str, Any] | None) -> None:
    """Add counter and histogram increments drained in another process
    to this plane's registry (a no-op when metrics are disarmed)."""
    state = _STATE
    if state is None or not state.metrics or not drained:
        return
    state.registry.merge(drained)


def registry() -> MetricsRegistry | None:
    """The armed metrics registry, or ``None`` when disarmed."""
    state = _STATE
    return state.registry if state is not None else None


def render_metrics() -> str:
    """Prometheus text exposition of the armed registry ('' disarmed)."""
    state = _STATE
    if state is None:
        return ""
    return state.registry.render()
