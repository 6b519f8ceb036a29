"""E14 — dynamic churn: incremental repair vs recolor-from-scratch.

The claim the `repro.dynamic` subsystem makes (DESIGN.md §6): under
realistic churn, maintaining the coloring incrementally touches a small
fraction of the graph per batch, so both the wall-clock and the
recolored-node count sit far below recoloring from scratch — while the
maintained coloring stays proper and within the Δ_t+1 budget after every
batch.

Measured and gated (n = 10⁴, average degree 30):

* recolored-nodes-per-batch fraction (mean/max) under repair mode;
* repair wall-clock per batch vs the full-recolor baseline (the same
  engine with ``dynamic_fallback_fraction < 0``, i.e. every batch falls
  back) on the identical schedule;
* ``BroadcastNetwork.apply_delta`` vs building a fresh network from the
  post-batch edge list — the positional-splice claim (the delta is
  located in its own CSR rows and spliced in; the 2m unchanged pairs are
  never re-sorted);
* one full propriety and completeness scan after the repair run
  (``final_full_scan_ok``): ``BatchReport.proper`` comes from an audit
  scoped to each batch, so an independent full scan stands behind it.

Quick mode: ``REPRO_BENCH_DYN_BATCHES`` shortens the schedule for CI
smoke runs.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from _common import print_table, run_matrix
from repro.config import ColoringConfig
from repro.dynamic import DynamicColoring
from repro.graphs.families import make_churn
from repro.runner.spec import load_matrix
from repro.simulator.network import BroadcastNetwork

REPO_ROOT = Path(__file__).resolve().parent.parent
SPECS = REPO_ROOT / "benchmarks" / "specs" / "churn_quick.toml"


@pytest.mark.benchmark(group="E14-dynamic")
def test_e14_incremental_vs_full_tracked(benchmark):
    """One schedule, two engines.

    Repair mode must never fall back on this workload (a fallback here
    means the incremental path silently degraded), must recolor < 20% of
    nodes per batch, and ``apply_delta`` must beat a fresh
    ``BroadcastNetwork`` build at n = 10⁴.
    """
    n, deg = 10_000, 30.0
    batches = int(os.environ.get("REPRO_BENCH_DYN_BATCHES", "6"))
    schedule = make_churn(
        "gnp-churn", n, deg, seed=11, batches=batches, churn_fraction=0.03
    )

    repair_cfg = ColoringConfig.practical(seed=5, dynamic_fallback_fraction=1.5)
    engine = DynamicColoring(schedule, repair_cfg)
    repair = engine.run(schedule)
    rs = repair.summary()
    final_full_scan_ok = engine.is_proper() and engine.is_complete()

    full_cfg = ColoringConfig.practical(seed=5, dynamic_fallback_fraction=-1.0)
    baseline = DynamicColoring(schedule, full_cfg).run(schedule)
    fs = baseline.summary()

    repair_batch_s = sum(r.seconds for r in repair.reports) / max(batches, 1)
    full_batch_s = sum(r.seconds for r in baseline.reports) / max(batches, 1)
    speedup = full_batch_s / max(repair_batch_s, 1e-9)

    # apply_delta (positional splice) vs a fresh CSR build of the same
    # result.
    batch0 = schedule.batches[0]
    merge_s, build_s = [], []
    for _ in range(3):
        net = BroadcastNetwork(schedule.initial)
        t0 = time.perf_counter()
        net.apply_delta(batch0.insert_edges, batch0.delete_edges)
        merge_s.append(time.perf_counter() - t0)
        edges_after = net.undirected_edges().copy()
        t0 = time.perf_counter()
        BroadcastNetwork((n, edges_after))
        build_s.append(time.perf_counter() - t0)
    apply_delta_s, fresh_build_s = min(merge_s), min(build_s)

    print_table(
        f"E14 incremental vs full (n={n}, avg_degree={deg:g}, "
        f"batches={batches}, churn=3%)",
        ["quantity", "repair", "full-recolor"],
        [
            ("mean recolored fraction",
             f"{rs['mean_recolored_fraction']:.4f}",
             f"{fs['mean_recolored_fraction']:.4f}"),
            ("max recolored fraction",
             f"{rs['max_recolored_fraction']:.4f}",
             f"{fs['max_recolored_fraction']:.4f}"),
            ("seconds / batch", f"{repair_batch_s:.3f}", f"{full_batch_s:.3f}"),
            ("rounds / batch",
             f"{rs['total_rounds'] / max(batches, 1):.1f}",
             f"{fs['total_rounds'] / max(batches, 1):.1f}"),
            ("batch speedup", f"{speedup:.1f}x", ""),
            ("apply_delta vs fresh build",
             f"{apply_delta_s:.4f}s", f"{fresh_build_s:.4f}s"),
        ],
    )

    assert rs["proper_all"] and rs["complete_all"], rs
    assert final_full_scan_ok, "full scan disagrees with the batch audits"
    assert rs["colors_within_budget"], rs
    assert rs["fallbacks"] == 0, "incremental engine silently fell back"
    assert fs["fallbacks"] == batches, "baseline must recolor every batch"
    assert rs["mean_recolored_fraction"] < 0.20, rs
    assert apply_delta_s < fresh_build_s, (
        f"positional splice ({apply_delta_s:.4f}s) not faster than fresh "
        f"build ({fresh_build_s:.4f}s) at n={n}"
    )

    # Time one incremental batch apply, not the initial from-scratch
    # coloring — the engine is built outside the measured callable.
    bench_engine = DynamicColoring(schedule, repair_cfg)
    benchmark.pedantic(
        lambda: bench_engine.apply_batch(schedule.batches[0]),
        rounds=1,
        iterations=1,
    )


@pytest.mark.benchmark(group="E14-dynamic")
def test_e14_quick_churn_matrix(benchmark):
    """The churn acceptance matrix through the runner, unchanged: every
    churn family × size × seed stays repair-mode, proper, within the
    color budget, and under 20% recolored per batch."""
    payloads = run_matrix(load_matrix(SPECS)).payloads()
    rows = []
    for p in payloads:
        rows.append(
            (p["family"], p["n"], p["seed"], p["fallbacks"],
             f"{p['mean_recolored_fraction']:.4f}",
             f"{p['max_recolored_fraction']:.4f}")
        )
        assert p["proper"] and p["complete"], p
        assert p["colors_within_budget"], p
        assert p["fallbacks"] == 0, p
        assert p["mean_recolored_fraction"] < 0.20, p
    print_table(
        "E14 quick churn matrix (runner, algorithm=dynamic)",
        ["family", "n", "seed", "fallbacks", "mean recolored", "max recolored"],
        rows,
    )
    spec = load_matrix(SPECS)[0]
    from repro.runner.execute import run_trial

    benchmark.pedantic(lambda: run_trial(spec), rounds=1, iterations=1)
