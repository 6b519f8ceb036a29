"""E9 — MultiTrial (Lemma 2.14): O(log* n) coloring under slack.

Paper claim: with lists satisfying |L(v) ∩ Ψ(v)| ≥ 2d̂(v) (+ an ℓ-sized
floor), MultiTrial colors everything in O(log* n) rounds while each node
broadcasts only a seed per round.  Measured: iterations-to-done vs n on
high-slack workloads (flat in n, ≤ a small constant) and the contrast
with plain one-color TryColor on the same instances.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _common import print_table
from repro.analysis.fitting import growth_fit
from repro.config import ColoringConfig
from repro.core import multitrial as multitrial_module
from repro.core.multitrial import multitrial
from repro.core.state import ColoringState
from repro.core.trycolor import palette_sampler, try_color_round
from repro.graphs.generators import gnp_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from tests.helpers import resolve_pernode_oracle


def high_slack_graph(n, seed):
    # Expected degree ~n·p with Δ+1 palette ⇒ slack ≈ Δ − d ≈ Δ/2-ish.
    return gnp_graph(n, 24.0 / n, seed=seed)


@pytest.mark.benchmark(group="E9-multitrial")
def test_e9_iterations_flat_in_n(benchmark):
    cfg = ColoringConfig.practical()
    rows = []
    ns = [512, 1024, 2048, 4096, 8192, 16384]
    series = []
    for n in ns:
        iters = []
        for seed in range(3):
            net = BroadcastNetwork(high_slack_graph(n, seed))
            state = ColoringState(net)
            mask = np.ones(n, dtype=bool)
            lo = np.zeros(n, dtype=np.int64)
            hi = np.full(n, state.num_colors, dtype=np.int64)
            rep = multitrial(state, mask, lo, hi, cfg, SeedSequencer(seed), "mt")
            assert rep.remaining == 0
            iters.append(rep.iterations)
        series.append(np.mean(iters))
        rows.append((n, f"{np.mean(iters):.1f}", int(np.max(iters))))
    print_table(
        "E9 MultiTrial iterations vs n (high-slack G(n, 24/n))",
        ["n", "mean iterations", "max"],
        rows,
    )
    fit = growth_fit(ns, series)
    print(f"shape fit: {fit.best}")
    assert max(series) - min(series) <= 2.5
    assert max(series) <= 8  # log*-flavored constant
    benchmark.pedantic(lambda: _mt_once(2048, 7), rounds=1, iterations=1)


def _mt_once(n, seed):
    cfg = ColoringConfig.practical()
    net = BroadcastNetwork(high_slack_graph(n, seed))
    state = ColoringState(net)
    mask = np.ones(n, dtype=bool)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, state.num_colors, dtype=np.int64)
    return multitrial(state, mask, lo, hi, cfg, SeedSequencer(seed), "mt")


@pytest.mark.benchmark(group="E9-multitrial")
def test_e9_multitrial_vs_single_trycolor(benchmark):
    """On the same instance, MultiTrial needs fewer rounds than one-color-
    per-round TryColor (the multi-try advantage slack buys)."""
    cfg = ColoringConfig.practical()
    rows = []
    for n in [1024, 4096]:
        mt_rounds, tc_rounds = [], []
        for seed in range(3):
            net = BroadcastNetwork(high_slack_graph(n, seed))
            state = ColoringState(net)
            mask = np.ones(n, dtype=bool)
            lo = np.zeros(n, dtype=np.int64)
            hi = np.full(n, state.num_colors, dtype=np.int64)
            rep = multitrial(state, mask, lo, hi, cfg, SeedSequencer(seed), "mt")
            mt_rounds.append(rep.iterations)

            net2 = BroadcastNetwork(high_slack_graph(n, seed))
            state2 = ColoringState(net2)
            seq2 = SeedSequencer(seed)
            r = 0
            while state2.num_uncolored() and r < 500:
                try_color_round(
                    state2, state2.uncolored_nodes(), palette_sampler(state2), seq2, "tc", r
                )
                r += 1
            tc_rounds.append(r)
        rows.append((n, f"{np.mean(mt_rounds):.1f}", f"{np.mean(tc_rounds):.1f}"))
        assert np.mean(mt_rounds) <= np.mean(tc_rounds) + 1
    print_table(
        "E9 MultiTrial iterations vs TryColor rounds to completion",
        ["n", "MultiTrial", "TryColor"],
        rows,
    )
    benchmark.pedantic(lambda: _mt_once(1024, 3), rounds=1, iterations=1)


@pytest.mark.benchmark(group="E9-multitrial")
def test_e9_vectorized_speedup_tracked(benchmark, monkeypatch):
    """MultiTrial at n=20k (G(n, 24/n) — the sparse-phase workload), the
    per-node adoption oracle of ``tests/helpers.py`` vs the edge-wise
    kernel, both with the default "batched" counter-mode sampler (so both
    adopt the same colors).  Asserts that both color identically,
    iteration by iteration, and that the kernel keeps its speedup floor.
    """
    n, reps = 20_000, 3
    graph = high_slack_graph(n, 7)
    cfg = ColoringConfig.practical(multitrial_sampler="batched")

    def run_once() -> tuple[float, ColoringState, object]:
        net = BroadcastNetwork(graph)
        state = ColoringState(net)
        mask = np.ones(n, dtype=bool)
        lo = np.zeros(n, dtype=np.int64)
        hi = np.full(n, state.num_colors, dtype=np.int64)
        t0 = time.perf_counter()
        rep = multitrial(state, mask, lo, hi, cfg, SeedSequencer(1), "mt")
        elapsed = time.perf_counter() - t0
        assert rep.remaining == 0
        return elapsed, state, rep

    with monkeypatch.context() as patched:
        patched.setattr(multitrial_module, "_resolve_vectorized", resolve_pernode_oracle)
        legacy = [run_once() for _ in range(reps)]
    vectorized = [run_once() for _ in range(reps)]
    legacy_s = min(t for t, _, _ in legacy)
    vectorized_s = min(t for t, _, _ in vectorized)
    speedup = legacy_s / max(vectorized_s, 1e-9)
    _, legacy_state, legacy_rep = legacy[-1]
    _, vec_state, vec_rep = vectorized[-1]
    colors_equal = bool(
        np.array_equal(legacy_state.colors, vec_state.colors)
        and legacy_rep.per_iteration == vec_rep.per_iteration
    )

    rows = [
        ("per-node oracle + batched sampler", f"{legacy_s:.3f}"),
        ("vectorized kernel + batched sampler (default)", f"{vectorized_s:.4f}"),
        ("speedup", f"{speedup:.1f}x"),
    ]
    print_table(f"E9 vectorized MultiTrial speedup (n={n})", ["path", "seconds"], rows)

    assert colors_equal
    # Generous sanity floor (CI hardware varies); locally this
    # measures >10x.
    assert speedup >= 2.0
    benchmark.pedantic(lambda: _mt_once(4096, 5), rounds=1, iterations=1)


@pytest.mark.benchmark(group="E9-multitrial")
def test_e9_seed_bandwidth(benchmark):
    """The whole point of representative sets: bits per round stay one
    seed (+ the adopted color), independent of how many colors are tried."""
    cfg = ColoringConfig.practical(multitrial_cap=64)
    n = 2048
    net = BroadcastNetwork(high_slack_graph(n, 1))
    net.bandwidth_bits = cfg.bandwidth_bits(n)
    state = ColoringState(net)
    mask = np.ones(n, dtype=bool)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, state.num_colors, dtype=np.int64)
    multitrial(state, mask, lo, hi, cfg, SeedSequencer(1), "mt")
    stats = net.metrics.phases["mt"]
    naive_bits = 64 * int(np.ceil(np.log2(state.num_colors)))  # explicit list
    rows = [
        ("max message bits (ours)", stats.max_message_bits),
        ("explicit 64-color list would be", naive_bits),
        ("bandwidth cap", net.bandwidth_bits),
    ]
    print_table("E9 seed-broadcast bandwidth", ["quantity", "bits"], rows)
    assert stats.max_message_bits <= net.bandwidth_bits
    assert stats.max_message_bits < naive_bits
    benchmark.pedantic(lambda: _mt_once(2048, 2), rounds=1, iterations=1)
