"""Zero-dependency metrics registry: counters, gauges, log2 histograms.

All instruments are keyed by ``(name, sorted(labels))`` and rendered in
the Prometheus text exposition format (version 0.0.4) — plain stdlib,
no client library.  Histograms use fixed log2 buckets (bucket *i*
covers values ``<= 2**i``) so bucket boundaries are exact, cheap to
compute, and identical across processes; latencies are observed in
microseconds by convention.

Thread safety: each instrument guards its mutable state with the
registry-wide lock; the hot increment path is one lock acquire + int
add.  Each process has its own registry: a shard worker drains its
counter and histogram increments (:meth:`MetricsRegistry.drain`) into
its result, beside its spans, and the driver merges them
(:meth:`MetricsRegistry.merge`).  Gauges stay per-process.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NUM_BUCKETS",
    "bucket_index",
    "bucket_bounds",
]

#: Number of log2 histogram buckets.  Bucket i covers values <= 2**i
#: for i < NUM_BUCKETS-1; the last bucket is +Inf.  2**30 µs ≈ 18 min,
#: ample headroom for any latency this repo measures.
NUM_BUCKETS = 32


def bucket_index(value: float) -> int:
    """Index of the log2 bucket covering ``value``.

    ``value <= 1`` (including 0 and negatives) lands in bucket 0;
    otherwise the smallest i with ``value <= 2**i``, clamped to the
    +Inf bucket.
    """
    if value <= 1.0:
        return 0
    v = value
    i = 0
    bound = 1.0
    while bound < v and i < NUM_BUCKETS - 1:
        bound *= 2.0
        i += 1
    return i


def bucket_bounds() -> list[float]:
    """Upper bounds of every bucket; the last is ``float('inf')``."""
    bounds = [float(2**i) for i in range(NUM_BUCKETS - 1)]
    bounds.append(float("inf"))
    return bounds


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        with self._lock:
            self.value += amount


class Gauge:
    """Instantaneous value; also tracks its high-water mark."""

    __slots__ = ("value", "high_water", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self.value = 0.0
        self.high_water = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Set the gauge, updating the high-water mark."""
        with self._lock:
            self.value = value
            if value > self.high_water:
                self.high_water = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self.value += amount
            if self.value > self.high_water:
                self.high_water = self.value


class Histogram:
    """Fixed log2-bucket histogram with sum and count."""

    __slots__ = ("buckets", "total", "count", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self.buckets = [0] * NUM_BUCKETS
        self.total = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bucket_index(value)
        with self._lock:
            self.buckets[idx] += 1
            self.total += value
            self.count += 1


class MetricsRegistry:
    """Collection of named, labelled instruments.

    Instruments are created lazily on first access; accessing the same
    ``(name, labels)`` twice returns the same instrument.  A name is
    bound to one instrument kind — mixing kinds raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, {label_key: instrument})
        self._families: dict[str, tuple[str, dict]] = {}

    def _instrument(self, kind: str, name: str, labels: dict[str, Any]):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, {})
                self._families[name] = family
            elif family[0] != kind:
                raise TypeError(
                    f"metric {name!r} is a {family[0]}, not a {kind}"
                )
            series = family[1]
            inst = series.get(key)
            if inst is None:
                cls = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}[kind]
                inst = cls(self._lock)
                series[key] = inst
            return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._instrument("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        return self._instrument("histogram", name, labels)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of every instrument (for JSON/stats payloads)."""
        out: dict[str, Any] = {}
        with self._lock:
            for name, (kind, series) in sorted(self._families.items()):
                rows = []
                for key, inst in sorted(series.items()):
                    labels = dict(key)
                    if kind == "counter":
                        rows.append({"labels": labels, "value": inst.value})
                    elif kind == "gauge":
                        rows.append(
                            {
                                "labels": labels,
                                "value": inst.value,
                                "high_water": inst.high_water,
                            }
                        )
                    else:
                        rows.append(
                            {
                                "labels": labels,
                                "count": inst.count,
                                "sum": inst.total,
                                "buckets": list(inst.buckets),
                            }
                        )
                out[name] = {"kind": kind, "series": rows}
        return out

    def drain(self) -> dict[str, Any]:
        """:meth:`snapshot` of the counters and histograms, each series
        reset to zero as it is read: the increments this process made
        since its last drain, for another process's :meth:`merge`.
        Series that read zero are left out.  Gauges are instantaneous:
        they are neither drained nor reset."""
        out: dict[str, Any] = {}
        with self._lock:
            for name, (kind, series) in sorted(self._families.items()):
                rows = []
                for key, inst in sorted(series.items()):
                    if kind == "counter" and inst.value:
                        rows.append({"labels": dict(key), "value": inst.value})
                        inst.value = 0.0
                    elif kind == "histogram" and inst.count:
                        rows.append(
                            {
                                "labels": dict(key),
                                "count": inst.count,
                                "sum": inst.total,
                                "buckets": inst.buckets,
                            }
                        )
                        inst.buckets = [0] * NUM_BUCKETS
                        inst.total, inst.count = 0.0, 0
                if rows:
                    out[name] = {"kind": kind, "series": rows}
        return out

    def merge(self, drained: dict[str, Any]) -> None:
        """Add another registry's :meth:`drain` into this one."""
        for name, family in drained.items():
            kind = family["kind"]
            for row in family["series"]:
                inst = self._instrument(kind, name, row["labels"])
                with self._lock:
                    if kind == "counter":
                        inst.value += row["value"]
                    else:
                        inst.buckets = [a + b for a, b in zip(inst.buckets, row["buckets"])]
                        inst.total += row["sum"]
                        inst.count += row["count"]

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = {
                name: (kind, dict(series))
                for name, (kind, series) in sorted(self._families.items())
            }
        bounds = bucket_bounds()
        for name, (kind, series) in families.items():
            lines.append(f"# TYPE {name} {kind}")
            for key, inst in sorted(series.items()):
                labelstr = _render_labels(key)
                if kind == "counter":
                    lines.append(f"{name}{labelstr} {_fmt(inst.value)}")
                elif kind == "gauge":
                    lines.append(f"{name}{labelstr} {_fmt(inst.value)}")
                else:
                    cumulative = 0
                    for i, bound in enumerate(bounds):
                        cumulative += inst.buckets[i]
                        le = _render_labels(key + (("le", _fmt(bound)),))
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    lines.append(
                        f"{name}_sum{labelstr} {_fmt(inst.total)}"
                    )
                    lines.append(
                        f"{name}_count{labelstr} {inst.count}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
