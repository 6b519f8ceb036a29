"""Shared helpers for the experiment harness.

Every bench prints the measured rows (the "tables" of this theory paper's
claims — see EXPERIMENTS.md for the claim-by-claim index) and uses
pytest-benchmark to time one representative unit of work.

Benches that sweep a (family, n, seed, algorithm) grid should go through
:func:`run_matrix`, which routes the grid through :mod:`repro.runner` so
trials shard over ``REPRO_BENCH_WORKERS`` processes and land in the shared
``REPRO_BENCH_STORE`` result store — a second bench (or a `repro bench`
invocation) touching the same cells reuses them instead of recomputing.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Mapping, Sequence

from repro.runner import ParallelRunner, ResultStore, TrialSpec, expand_matrix

__all__ = [
    "print_table",
    "ratio",
    "run_matrix",
    "matrix_payloads",
    "disarmed_ns_per_call",
    "DISARMED_NS_BOUND",
    "GEOM_SEEDS",
]

GEOM_SEEDS = [101, 202, 303]

DISARMED_NS_BOUND = 5_000.0
"""Ceiling on one disarmed fault or telemetry hook call, in ns.  Generous
so it holds on any CI host; the observed cost is tens of ns."""


def _bench_store() -> ResultStore | None:
    path = os.environ.get("REPRO_BENCH_STORE", "")
    return ResultStore(path) if path else None


def run_matrix(
    specs: Sequence[TrialSpec],
    workers: int | None = None,
    store: ResultStore | None = None,
    timeout_s: float | None = None,
):
    """Run a spec list through the parallel runner with the bench-suite
    defaults (``REPRO_BENCH_WORKERS`` processes, ``REPRO_BENCH_STORE``
    result reuse).  Returns the :class:`repro.runner.RunReport`."""
    if workers is None:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    if store is None:
        store = _bench_store()
    runner = ParallelRunner(workers=workers, store=store, timeout_s=timeout_s)
    report = runner.run(specs)
    failed = report.failed
    if failed:  # not an assert: must survive python -O
        raise RuntimeError(f"{len(failed)} trials failed; first: {failed[0].error}")
    return report


def matrix_payloads(matrix: Mapping, **kwargs) -> list[dict]:
    """Expand a matrix dict (same schema as `repro bench` spec files) and
    return the deterministic payload rows."""
    return run_matrix(expand_matrix(matrix), **kwargs).payloads()


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Fixed-width table to stdout (visible with pytest -s; captured into
    the bench logs either way)."""
    rows = [tuple(str(c) for c in r) for r in rows]
    widths = [len(h) for h in headers]
    for r in rows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def ratio(a: float, b: float) -> float:
    """a/b guarded against zero."""
    return float(a) / max(float(b), 1e-12)


def disarmed_ns_per_call(hook: Callable[[], object], calls: int = 200_000) -> float:
    """Median-of-3 ns per call of a disarmed hook.  Call it with the
    realistic argument shape, kwargs included: building the kwargs dict
    is part of the price a call site pays."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            hook()
        samples.append((time.perf_counter() - t0) / calls * 1e9)
    samples.sort()
    return samples[1]
