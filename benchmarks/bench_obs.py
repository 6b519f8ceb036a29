"""E18 — telemetry-plane overhead: disarmed hooks and traced runs.

Two claims ``repro.obs`` makes (DESIGN.md §10):

1. **Disarmed is free.**  The ``span()``/``count()``/``observe()``
   hooks sit on every kernel phase, every apply, every shard phase;
   with the plane disarmed each must cost one global load + ``is
   None`` test.  We measure ns/call in a tight loop and gate it at a
   generous bound (same methodology and ceiling as ``bench_faults``).
2. **Armed tracing is cheap and changes nothing.**  A traced sharded
   run must produce byte-identical colors to the untraced run; its
   wall-clock overhead ratio and span count are printed.

Quick mode: ``REPRO_BENCH_OBS_N`` shrinks the graph for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _common import DISARMED_NS_BOUND, disarmed_ns_per_call
from repro import obs
from repro.config import ColoringConfig
from repro.graphs.families import make_graph
from repro.shard.engine import ShardedColoring


def _sharded_colors(cfg: ColoringConfig, graph) -> tuple[np.ndarray, float]:
    t0 = time.perf_counter()
    result = ShardedColoring(graph, cfg, workers=2).run()
    seconds = time.perf_counter() - t0
    assert result.proper and result.complete
    return result.colors, seconds


@pytest.mark.benchmark(group="E18-obs")
def test_e18_obs_overhead_tracked():
    """Hook cost + tracing overhead.

    Gates: each disarmed hook under :data:`DISARMED_NS_BOUND` ns, and
    byte-identical colors with tracing on vs off.
    """
    n = int(os.environ.get("REPRO_BENCH_OBS_N", "4000"))

    obs.disable()
    assert not obs.enabled(), "the obs plane is armed; benchmark invalid"
    span_ns = disarmed_ns_per_call(lambda: obs.span("bench.site", shard=0))
    count_ns = disarmed_ns_per_call(lambda: obs.count("bench_total", kind="x"))
    observe_ns = disarmed_ns_per_call(lambda: obs.observe("bench_us", 12.5))
    for name, ns in (("span", span_ns), ("count", count_ns),
                     ("observe", observe_ns)):
        assert ns < DISARMED_NS_BOUND, (
            f"disarmed {name}() costs {ns:.0f} ns/call "
            f"(bound {DISARMED_NS_BOUND:.0f})"
        )

    graph = make_graph("geometric", n, 12.0, 7)
    base_cfg = ColoringConfig.practical(seed=7, shard_k=4)

    obs.disable()
    colors_off, seconds_off = _sharded_colors(base_cfg, graph)
    obs.disable()
    obs.enable(tracing=True, metrics=False)
    colors_on, seconds_on = _sharded_colors(base_cfg, graph)
    spans = obs.drain_spans()
    obs.disable()

    assert np.array_equal(colors_off, colors_on), "tracing changed the coloring"
    assert spans, "traced run produced no spans"
    overhead = seconds_on / max(seconds_off, 1e-9)

    print("\nE18 telemetry-plane overhead")
    print(f"  disarmed span   : {span_ns:8.1f} ns/call")
    print(f"  disarmed count  : {count_ns:8.1f} ns/call")
    print(f"  disarmed observe: {observe_ns:8.1f} ns/call")
    print(f"  untraced run    : {seconds_off:8.4f} s")
    print(f"  traced run      : {seconds_on:8.4f} s  (×{overhead:.2f}, "
          f"{len(spans)} spans)")
