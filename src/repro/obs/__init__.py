"""repro.obs — the unified telemetry plane.

Zero-dependency tracing + metrics for every subsystem (kernels,
dynamic, shard, serve, runner, faults).  Three pieces:

* a **span tracer** (:func:`span`, :func:`start_span`/:func:`end_span`)
  producing nested, thread/process-aware spans that worker processes
  ship back to the driver inside ordinary result payloads
  (:func:`drain_spans` / :func:`adopt_spans`), exportable as JSONL or
  Chrome/Perfetto ``trace_event`` JSON (:mod:`repro.obs.export`,
  ``repro trace export``);
* a **metrics registry** (:func:`count`, :func:`gauge_set`,
  :func:`observe`) of counters/gauges/log2-bucket histograms rendered
  in Prometheus text format (:func:`render_metrics`, ``repro serve
  --metrics-port``, ``repro top``); workers ship their counter and
  histogram increments back beside their spans (:func:`drain_metrics`
  / :func:`adopt_metrics`);
* an **armed-state switch** (:func:`enable`/:func:`disable`) copying
  the ``repro.faults`` pattern: disarmed, every hook is one global
  load + ``is None`` test (~100 ns, gated by
  ``benchmarks/bench_obs.py``).

Tracing is off by default; :func:`enable` is the one way to arm it
(``repro ... --trace out.json`` calls it).  The sharded engine carries
its own ``(tracing, metrics)`` flags in every pool task, so its workers
arm themselves under any start method.  Instrumentation never
touches any RNG: colorings are byte-identical with tracing on or off.
"""

from .export import (
    read_jsonl,
    spans_to_perfetto,
    spans_to_tree,
    validate_perfetto,
    write_jsonl,
    write_perfetto,
)
from .plane import (
    DEFAULT_TRACE_BUFFER,
    ObsState,
    adopt_metrics,
    adopt_spans,
    count,
    disable,
    drain_metrics,
    drain_spans,
    enable,
    enabled,
    end_span,
    gauge_set,
    metrics_enabled,
    observe,
    registry,
    render_metrics,
    span,
    start_span,
    tracing_enabled,
)
from .registry import (
    NUM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
)

__all__ = [
    "DEFAULT_TRACE_BUFFER",
    "NUM_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsState",
    "adopt_metrics",
    "adopt_spans",
    "bucket_bounds",
    "bucket_index",
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
    "read_jsonl",
    "registry",
    "render_metrics",
    "span",
    "spans_to_perfetto",
    "spans_to_tree",
    "start_span",
    "tracing_enabled",
    "validate_perfetto",
    "write_jsonl",
    "write_perfetto",
]
