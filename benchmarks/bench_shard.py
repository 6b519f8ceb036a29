"""E15 — multi-shard partitioned coloring: breaking the 10⁷-node wall.

The claim the `repro.shard` subsystem makes (DESIGN.md §7): with the
zero-copy shared-memory transport, the vectorized partitioner and
shard-local cut repair, k shard workers behave like k machines — the
driver's serial overhead (partition + arena pack + delta merges) stays a
small fraction of the run, per-worker memory scales with the shard's
CSR rows rather than n, and reconciliation touches only the cut.

Measured along the n-scaling axis (geometric graphs of average degree
10), one row per graph size:

* **critical-path speedup** — ``single_s / (driver phases + max shard
  CPU seconds)``.  The bench host typically has fewer cores than k, so
  k workers time-share and per-shard *wall* time mostly measures the
  scheduler; per-shard **CPU** time is what one dedicated machine would
  pay, which is exactly the k-machine deployment the shard engine
  models.  The raw wall-clock speedup is printed beside it, with the
  host's core count, so the table is honest about what the box could
  show;
* partition / reconcile phase seconds (partition must stay ≤10% of the
  sharded wall — the vectorized-partitioner regression gate);
* per-worker peak RSS under ``start_method="spawn"`` (fresh
  interpreters: RSS reflects the shm pages a worker actually touches,
  not fork's copy-on-write inheritance of the driver);
* ``k1_identical`` — a k=1 sharded run reproduces the single-process
  pipeline bit for bit on the same graph;
* the shm transport, and zero leaked ``/dev/shm`` segments after every
  run.

Env knobs (CI quick tier vs the full axis):

* ``REPRO_BENCH_SHARD_SIZES`` — space/comma-separated n values
  (default ``100000``; the full axis is ``"100000 1000000 10000000"``);
* ``REPRO_BENCH_SHARD_K`` — shard count, pool width is always k
  (default 8; the n=10⁶ CI smoke runs k=4).

The critical-path speedup must reach :data:`MIN_SPEEDUP` at n ≥ 10⁶ and
4× at n ≥ 10⁷.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from _common import print_table, run_matrix
from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.graphs.families import make_graph
from repro.runner.spec import load_matrix
from repro.shard import ShardedColoring, partition_nodes
from repro.shard.shm import leaked_segments
from repro.simulator.network import BroadcastNetwork

REPO_ROOT = Path(__file__).resolve().parent.parent
SPECS = REPO_ROOT / "benchmarks" / "specs" / "shard_quick.toml"

AVG_DEGREE = 10.0
MIN_SPEEDUP = 2.0
"""Critical-path speedup floor at n ≥ 10⁶."""


def _sizes() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SHARD_SIZES", "100000")
    return [int(float(tok)) for tok in raw.replace(",", " ").split()]


def _one_size(n: int, k: int) -> dict:
    """Measure one point on the n-axis and return its table row.

    Order matters: the sharded run goes *first* so worker RSS is
    measured before the driver's own heap has ballooned through the
    single-process reference run."""
    cfg = ColoringConfig.practical(seed=5)
    net = BroadcastNetwork(make_graph("geometric", n, AVG_DEGREE, 1))

    # k-shard run: pool of k spawned workers over the shm arena.
    scfg = ColoringConfig.practical(seed=5, shard_k=k, shard_strategy="greedy")
    t0 = time.perf_counter()
    sharded = ShardedColoring(net, scfg, workers=k, start_method="spawn").run()
    sharded_s = time.perf_counter() - t0
    assert leaked_segments() == [], "sharded run leaked /dev/shm segments"
    assert sharded.faults.get("inline_fallbacks", 0) == 0, sharded.faults

    # Single-process reference on the identical graph.
    t0 = time.perf_counter()
    ref = BroadcastColoring((net.n, net.undirected_edges()), cfg).run()
    single_s = time.perf_counter() - t0

    # k=1 must reproduce it bit for bit (the identity anchor).
    k1 = ShardedColoring(net, ColoringConfig.practical(seed=5, shard_k=1)).run()
    assert np.array_equal(k1.colors, ref.colors), (
        "k=1 diverged from the unsharded pipeline"
    )

    ph = sharded.phase_seconds
    partition_s = ph.get("shard/partition", 0.0)
    pack_s = ph.get("shard/pack", 0.0)
    reconcile_s = ph.get("shard/reconcile", 0.0)
    driver_s = partition_s + pack_s + reconcile_s
    interior_max_cpu = max(
        (r.cpu_seconds for r in sharded.shard_reports), default=0.0
    )
    critical_path_s = driver_s + interior_max_cpu
    speedup = single_s / max(critical_path_s, 1e-9)
    wall_speedup = single_s / max(sharded_s, 1e-9)
    worker_rss = max(
        (r.peak_rss_mb for r in sharded.shard_reports), default=0.0
    )

    assert sharded.transport == "shm", sharded.transport
    assert sharded.proper and sharded.complete, sharded.as_dict()
    assert sharded.unresolved_conflicts == 0, sharded.as_dict()
    assert sharded.num_colors_used <= sharded.delta + 1
    assert sharded.touched_fraction < 0.05, (
        f"reconciliation touched {sharded.touched_fraction:.2%} of nodes"
    )
    assert partition_s <= 0.10 * sharded_s, (
        f"partition {partition_s:.2f}s is over 10% of the "
        f"{sharded_s:.2f}s sharded run"
    )
    if n >= 1_000_000:
        floor = MIN_SPEEDUP if n < 10_000_000 else 4.0
        assert speedup >= floor, (
            f"critical-path speedup {speedup:.2f}x below the {floor:g}x "
            f"gate at n={n}"
        )

    return {
        "n": n,
        "single_s": round(single_s, 3),
        "critical_path_s": round(critical_path_s, 3),
        "speedup": round(speedup, 2),
        "wall_speedup": round(wall_speedup, 2),
        "partition_s": round(partition_s, 3),
        "reconcile_s": round(reconcile_s, 3),
        "worker_peak_rss_mb": round(worker_rss, 1),
        "cut_fraction": round(sharded.cut_fraction, 5),
    }


@pytest.mark.benchmark(group="E15-shard")
def test_e15_scaling_axis_tracked(benchmark):
    """The n-scaling axis: for every configured size, one sharded run
    (shm transport, spawned pool of k), one single-process reference,
    one k=1 identity check.

    Gates: shm transport, proper, complete, within Δ+1, zero unresolved
    conflicts, < 5% of nodes touched during reconciliation, partition
    ≤ 10% of the sharded wall, critical-path speedup over the floor at
    n ≥ 10⁶, k=1 bit-identity, and zero leaked shm segments.
    """
    k = int(os.environ.get("REPRO_BENCH_SHARD_K", "8"))
    entries = [_one_size(n, k) for n in _sizes()]
    print_table(
        f"E15 n-scaling axis (geometric, avg_degree={AVG_DEGREE:g}, k={k}, "
        f"workers=k, transport=shm, host_cores={os.cpu_count() or 1})",
        ["n", "single s", "crit-path s", "speedup", "wall x",
         "partition s", "reconcile s", "worker RSS MB", "cut frac"],
        [
            (e["n"], e["single_s"], e["critical_path_s"], f"{e['speedup']}x",
             f"{e['wall_speedup']}x", e["partition_s"], e["reconcile_s"],
             e["worker_peak_rss_mb"], e["cut_fraction"])
            for e in entries
        ],
    )
    # Benchmark one reconciliation-scale unit: re-partitioning the
    # smallest measured graph (the driver-side overhead sharding adds).
    net = BroadcastNetwork(make_graph("geometric", min(_sizes()), AVG_DEGREE, 1))
    benchmark.pedantic(
        lambda: partition_nodes(net, k, "greedy"), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="E15-shard")
def test_e15_partition_strategies(benchmark):
    """Cut quality per strategy on the two structural extremes: greedy
    must crush random on geometric graphs (locality) and never win on
    G(n,p) expanders (no partitioner can)."""
    n = min(min(_sizes()), 100_000)
    rows = []
    cuts: dict[tuple[str, str], float] = {}
    for family in ("geometric", "gnp"):
        net = BroadcastNetwork(make_graph(family, n, 16.0, 3))
        for strategy in ("contiguous", "random", "greedy"):
            t0 = time.perf_counter()
            part = partition_nodes(net, 4, strategy, seed=0)
            secs = time.perf_counter() - t0
            stats = part.cut_stats(net)
            cuts[(family, strategy)] = stats["cut_fraction"]
            rows.append(
                (family, strategy, f"{stats['cut_fraction']:.4f}",
                 stats["boundary_nodes"], f"{secs:.3f}")
            )
    print_table(
        f"E15 partition strategies (n={n}, k=4)",
        ["family", "strategy", "cut fraction", "boundary nodes", "seconds"],
        rows,
    )
    assert cuts[("geometric", "greedy")] < cuts[("geometric", "random")] / 3
    net = BroadcastNetwork(make_graph("geometric", n, 16.0, 3))
    benchmark.pedantic(
        lambda: partition_nodes(net, 4, "greedy"), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="E15-shard")
def test_e15_quick_shard_matrix(benchmark):
    """The shard acceptance matrix through the runner: every family ×
    size × seed reconciles to zero unresolved conflicts, proper and
    within budget, touching a bounded fraction of nodes."""
    payloads = run_matrix(load_matrix(SPECS)).payloads()
    rows = []
    for p in payloads:
        rows.append(
            (p["family"], p["n"], p["seed"], p["k"], p["cut_edges"],
             p["initial_conflicts"], p["reconcile_touched"],
             p["unresolved_conflicts"])
        )
        assert p["proper"] and p["complete"], p
        assert p["unresolved_conflicts"] == 0, p
        assert p["num_colors_used"] <= p["delta"] + 1, p
    print_table(
        "E15 quick shard matrix (runner, algorithm=shard)",
        ["family", "n", "seed", "k", "cut", "conflicts", "touched",
         "unresolved"],
        rows,
    )
    spec = load_matrix(SPECS)[0]
    from repro.runner.execute import run_trial

    benchmark.pedantic(lambda: run_trial(spec), rounds=1, iterations=1)
