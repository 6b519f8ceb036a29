"""E3b — the ACD sketch pipeline as a hot path (DESIGN.md §4).

Lemma 2.5's sketch layer is pure throughput: T b-bit minwise samples per
node, then a per-edge collision rate.  This bench measures the bit-packed
SWAR estimator against the unpacked (T × m) match-count oracle from
``tests/helpers.py`` on a dense workload (n=4000, avg_degree=120).

Measurement protocol (matching ``bench_multitrial``): each rep is a fresh
network + full sketch-phase run; minima over reps are reported.  The
gated ``speedup`` compares the *similarity-estimation stage*; the
fingerprints and their packing (``compute_sketches``) are shared by both
estimators, so their seconds are printed alongside, together with the
full ``acd/sketch`` phase wall-clock per estimator.

Quick mode: ``REPRO_BENCH_ACD_N`` / ``REPRO_BENCH_ACD_REPS`` shrink the
workload for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _common import print_table
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.graphs.generators import gnp_graph
from repro.simulator.network import BroadcastNetwork
from tests.helpers import unpacked_edge_similarity

SAMPLES = 256
BITS = 2
ESTIMATORS = {"unpacked": unpacked_edge_similarity, "packed": estimate_edge_similarity}


def sketch_once(graph, estimator: str, salt: int = 1):
    """One fresh sketch-phase run; returns (compute_s, estimate_s, est)."""
    net = BroadcastNetwork(graph)
    t0 = time.perf_counter()
    sketch = compute_sketches(net, SAMPLES, BITS, salt=salt)
    t1 = time.perf_counter()
    est = ESTIMATORS[estimator](net, sketch)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, est


@pytest.mark.benchmark(group="E3b-acd-sketch")
def test_e3b_packed_estimator_speedup_tracked(benchmark):
    """The ACD sketch phase: packed SWAR estimator vs the unpacked
    (T × m) oracle at n=4000, avg_degree=120.  Fails when the estimates
    differ or the estimate-stage speedup floor is missed."""
    n = int(os.environ.get("REPRO_BENCH_ACD_N", "4000"))
    deg = 120.0
    reps = int(os.environ.get("REPRO_BENCH_ACD_REPS", "3"))
    graph = gnp_graph(n, deg / n, seed=7)

    runs = {eng: [sketch_once(graph, eng) for _ in range(reps)] for eng in ESTIMATORS}
    est_unpacked = runs["unpacked"][0][2]
    est_packed = runs["packed"][0][2]
    fp_s = {e: min(r[0] for r in runs[e]) for e in runs}
    est_s = {e: min(r[1] for r in runs[e]) for e in runs}
    phase_s = {e: min(r[0] + r[1] for r in runs[e]) for e in runs}
    speedup = est_s["unpacked"] / max(est_s["packed"], 1e-9)
    phase_speedup = phase_s["unpacked"] / max(phase_s["packed"], 1e-9)

    rows = [
        ("fingerprints+pack+exchange (shared)", f"{fp_s['packed']:.3f}"),
        ("estimate, unpacked (T×m oracle)", f"{est_s['unpacked']:.3f}"),
        ("estimate, packed (SWAR words)", f"{est_s['packed']:.4f}"),
        ("estimate-stage speedup", f"{speedup:.1f}x"),
        ("full acd/sketch phase speedup", f"{phase_speedup:.1f}x"),
    ]
    print_table(
        f"E3b ACD sketch estimators (n={n}, avg_degree={deg:g}, T={SAMPLES}, b={BITS})",
        ["path", "seconds"],
        rows,
    )

    assert np.array_equal(est_unpacked, est_packed), (
        "estimators disagree — the SWAR reduction is broken"
    )
    # Generous sanity floor (CI hardware varies); locally the estimate
    # stage measures >10x.
    assert speedup >= 3.0
    benchmark.pedantic(
        lambda: sketch_once(graph, "packed"), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="E3b-acd-sketch")
def test_e3b_packed_advantage_grows_with_density(benchmark):
    """The packed estimator's edge is per-edge work: ⌈T/32⌉ words instead
    of T fingerprint comparisons, so the gap widens as the graph
    densifies."""
    n = int(os.environ.get("REPRO_BENCH_ACD_N", "4000")) // 2
    rows = []
    speedups = []
    for deg in (20.0, 60.0, 120.0):
        graph = gnp_graph(n, deg / n, seed=3)
        eu = min(sketch_once(graph, "unpacked")[1] for _ in range(2))
        ep = min(sketch_once(graph, "packed")[1] for _ in range(2))
        speedups.append(eu / max(ep, 1e-9))
        rows.append((f"{deg:g}", f"{eu:.4f}", f"{ep:.4f}", f"{speedups[-1]:.1f}x"))
    print_table(
        f"E3b estimate seconds vs density (n={n})",
        ["avg_degree", "unpacked", "packed", "speedup"],
        rows,
    )
    assert speedups[-1] >= 2.0
    benchmark.pedantic(
        lambda: sketch_once(gnp_graph(n, 60.0 / n, seed=3), "packed"),
        rounds=1,
        iterations=1,
    )
