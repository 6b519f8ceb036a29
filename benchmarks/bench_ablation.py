"""EA — ablations of the design choices DESIGN.md calls out.

Not paper tables: these isolate *why* each pipeline piece exists, by
removing it and measuring what breaks (always gracefully — the cleanup
safety net keeps the output proper, and its rounds expose the cost).

EA1: colorful matching off → closed cliques run out of clique palette.
EA2: put-aside sets off → full cliques lose their ℓ of temporary slack.
EA3: representative-set sampler — batched counter-mode PRG vs the [HN23]
     expander walk (results should agree; the device is interchangeable).
EA4: reserved prefix x(K) scaled to ~0 → MultiTrial's inlier lists decay.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import print_table
from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.graphs.generators import clique_blob_graph


def closed_blobs(seed):
    # Heavy anti-degree → closed cliques (a_K large), and |K| > Δ+1 so the
    # clique palette genuinely runs short without the matching's surplus.
    return clique_blob_graph(4, 64, 300, 20, seed=seed)


def full_blobs(seed):
    return clique_blob_graph(4, 64, 8, 8, seed=seed)


def _run(graph, pinned_acd=False, **cfg_kw):
    cfg = ColoringConfig.practical(c_log=0.3, **cfg_kw)
    decomposition = "distributed"
    if pinned_acd:
        # High anti-degree blobs sit at the edge of Definition 2.2(2b); pin
        # the ground-truth decomposition so the ablation measures the
        # matching, not the ACD's eviction choices.
        from repro.decomposition.acd import AlmostCliqueDecomposition

        n = graph[0]
        decomposition = AlmostCliqueDecomposition(
            labels=np.arange(n, dtype=np.int64) // 64, eps=cfg.eps
        )
    res = BroadcastColoring(graph, cfg, decomposition=decomposition).run()
    assert res.proper and res.complete
    return res


@pytest.mark.benchmark(group="EA-ablation")
def test_ea1_matching_ablation(benchmark):
    rows = []
    for seed in range(3):
        on = _run(closed_blobs(seed), pinned_acd=True, seed=seed)
        off = _run(closed_blobs(seed), pinned_acd=True, seed=seed, enable_matching=False)
        rows.append(
            (
                seed,
                on.reports["sct"]["palette_deficits"],
                off.reports["sct"]["palette_deficits"],
                on.rounds_cleanup,
                off.rounds_cleanup,
            )
        )
    print_table(
        "EA1 colorful matching on/off (closed cliques, a_K ≈ 19)",
        ["seed", "palette deficits (on)", "(off)", "cleanup rounds (on)", "(off)"],
        rows,
    )
    # Without the matching, strictly more cliques run out of palette
    # (Claim 2.8's surplus is gone) — measured via deficits + cleanup.
    deficits_on = sum(r[1] for r in rows)
    deficits_off = sum(r[2] for r in rows)
    assert deficits_off >= deficits_on
    benchmark.pedantic(
        lambda: _run(closed_blobs(9), pinned_acd=True, seed=9), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="EA-ablation")
def test_ea2_putaside_ablation(benchmark):
    rows = []
    worse = 0
    for seed in range(3):
        on = _run(full_blobs(seed), seed=seed)
        off = _run(full_blobs(seed), seed=seed, enable_putaside=False)
        # Without P_K the inlier MultiTrial loses its ℓ of temporary slack:
        # more inliers fall through to the full-range retry / cleanup.
        spill_on = on.reports.get("inliers_fullrange", {}).get("colored", 0) + (
            on.rounds_cleanup
        )
        spill_off = off.reports.get("inliers_fullrange", {}).get("colored", 0) + (
            off.rounds_cleanup
        )
        worse += spill_off >= spill_on
        rows.append((seed, spill_on, spill_off, on.rounds_total, off.rounds_total))
    print_table(
        "EA2 put-aside sets on/off (full cliques)",
        ["seed", "spillover (on)", "spillover (off)", "rounds (on)", "rounds (off)"],
        rows,
    )
    assert worse >= 2  # the ablation hurts (or ties) in most seeds
    benchmark.pedantic(lambda: _run(full_blobs(9), seed=9), rounds=1, iterations=1)


@pytest.mark.benchmark(group="EA-ablation")
def test_ea3_sampler_ablation(benchmark):
    rows = []
    for seed in range(3):
        batched = _run(full_blobs(seed), seed=seed, multitrial_sampler="batched")
        exp = _run(full_blobs(seed), seed=seed, multitrial_sampler="expander")
        rows.append(
            (
                seed,
                batched.rounds_algorithm,
                exp.rounds_algorithm,
                batched.rounds_cleanup,
                exp.rounds_cleanup,
            )
        )
    print_table(
        "EA3 representative-set device: batched counter-mode PRG vs expander walk",
        ["seed", "PRG rounds", "expander rounds", "PRG cleanup", "expander cleanup"],
        rows,
    )
    # Interchangeable devices: round counts within a small factor.
    for _, a, b, _, _ in rows:
        assert abs(a - b) <= max(a, b) * 0.5 + 4
    benchmark.pedantic(
        lambda: _run(full_blobs(8), seed=8, multitrial_sampler="expander"),
        rounds=1,
        iterations=1,
    )


@pytest.mark.benchmark(group="EA-ablation")
def test_ea4_reserved_prefix_ablation(benchmark):
    """Shrink x(K) to ~nothing: the SCT gets more palette (fewer deficits)
    but the inliers' MultiTrial lists [x(v)] collapse — the reserve is a
    *trade*, and Eq. (5) sizes it so both sides work."""
    rows = []
    for seed in range(3):
        normal = _run(full_blobs(seed), seed=seed)
        tiny = _run(full_blobs(seed), seed=seed, x_full_factor=0.02)
        inlier_mt_normal = normal.reports.get("inliers", {}).get("colored", 0)
        inlier_mt_tiny = tiny.reports.get("inliers", {}).get("colored", 0)
        rows.append(
            (
                seed,
                inlier_mt_normal,
                inlier_mt_tiny,
                normal.rounds_cleanup,
                tiny.rounds_cleanup,
            )
        )
    print_table(
        "EA4 reserved prefix x(K): Eq. (5) vs ~0",
        ["seed", "inlier-MT colored (normal)", "(tiny x)", "cleanup (normal)", "(tiny x)"],
        rows,
    )
    benchmark.pedantic(lambda: _run(full_blobs(7), seed=7), rounds=1, iterations=1)
