"""E7 — Relabel & Permute (Algorithms 3–5, Lemmas 4.3–4.5).

Paper claims: Relabel succeeds w.h.p. in O(1) rounds; Algorithm 4 samples
a near-uniform permutation in O(log log n) rounds; Algorithm 5 in O(1) —
asymptotically, i.e. once Δ ≫ log³ n makes its leftover-set dissemination
cheap.  Measured: success rates, round counts of both algorithms as the
clique size grows (the crossover), and a position-uniformity chi-square.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from _common import print_table
from repro.config import ColoringConfig
from repro.core.permute import permute_constant, permute_loglog
from repro.core.relabel import relabel
from repro.graphs.generators import complete_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


def clique_net(size, cfg):
    return BroadcastNetwork(complete_graph(size), bandwidth_bits=cfg.bandwidth_bits(size))


def zeros(size):
    """The group array of one set (or one clique)."""
    return np.zeros(size, dtype=np.int64)


def one_clique(fn, net, members, subset, cfg, seq):
    """Permute ``subset`` of the single clique ``members``."""
    return fn(net, [members], subset, zeros(subset.size), cfg, seq)


@pytest.mark.benchmark(group="E7-permute")
def test_e7_relabel_success_rate(benchmark):
    cfg = ColoringConfig.practical()
    rows = []
    for set_size in [8, 16, 32, 64]:
        net = clique_net(128, cfg)
        nodes, group = np.arange(set_size), zeros(set_size)
        successes = sum(
            bool(relabel(net, nodes, group, cfg, SeedSequencer(s)).succeeded[0])
            for s in range(50)
        )
        bits = int(relabel(net, nodes, group, cfg, SeedSequencer(0)).label_bits[0])
        rows.append((set_size, f"{successes}/50", bits))
        assert successes >= 49
    print_table(
        "E7 Relabel success rate and label width (Lemma 4.3)",
        ["|S|", "successes", "label bits"],
        rows,
    )
    net = clique_net(128, cfg)
    benchmark.pedantic(
        lambda: relabel(net, np.arange(32), zeros(32), cfg, SeedSequencer(1)),
        rounds=3,
        iterations=1,
    )


@pytest.mark.benchmark(group="E7-permute")
def test_e7_alg4_vs_alg5_rounds(benchmark):
    """Round counts of the two permutation algorithms as Δ grows.  At
    small Δ Algorithm 4 wins (Algorithm 5's leftover set is the whole
    clique); Algorithm 5's relative cost falls as Δ/(log n) grows — the
    asymptotic crossover the paper's O(1) claim lives beyond."""
    cfg4 = ColoringConfig.practical(permute_constant_round=False)
    cfg5 = ColoringConfig.practical(permute_constant_round=True)
    rows = []
    ratios = []
    for size in [48, 96, 192, 384]:
        r4s, r5s, leftovers = [], [], []
        for seed in range(3):
            net = clique_net(size, cfg4)
            members = np.arange(size)
            r4 = one_clique(permute_loglog, net, members, members, cfg4, SeedSequencer(seed))
            r5 = one_clique(permute_constant, net, members, members, cfg5, SeedSequencer(seed))
            assert r4.validate() and r5.validate()
            r4s.append(int(r4.rounds[0]))
            r5s.append(int(r5.rounds[0]))
            leftovers.append(int(r5.leftover[0]) / size)
        ratios.append(np.mean(r5s) / np.mean(r4s))
        rows.append(
            (
                size,
                f"{np.mean(r4s):.1f}",
                f"{np.mean(r5s):.1f}",
                f"{np.mean(leftovers):.0%}",
            )
        )
    print_table(
        "E7 Algorithm 4 vs Algorithm 5 rounds (single clique, |S| = Δ+1)",
        ["clique size", "Alg 4 rounds", "Alg 5 rounds", "Alg 5 leftover frac"],
        rows,
    )
    # Algorithm 5's relative cost must not grow with Δ.
    assert ratios[-1] <= ratios[0] * 1.5 + 0.5
    cfg = cfg4
    net = clique_net(96, cfg)
    benchmark.pedantic(
        lambda: one_clique(
            permute_loglog, net, np.arange(96), np.arange(96), cfg, SeedSequencer(7)
        ),
        rounds=1,
        iterations=1,
    )


@pytest.mark.benchmark(group="E7-permute")
def test_e7_uniformity(benchmark):
    """Lemma 4.4/4.5: output within 1/poly(n) of uniform.  Chi-square on
    the position of a fixed node across seeds, for both algorithms."""
    cfg = ColoringConfig.practical()
    rows = []
    for name, fn in [("Alg 4", permute_loglog), ("Alg 5", permute_constant)]:
        net = clique_net(64, cfg)
        members = np.arange(64)
        subset = np.arange(6)
        counts = np.zeros(6, dtype=np.int64)
        trials = 300
        for s in range(trials):
            res = one_clique(fn, net, members, subset, cfg, SeedSequencer(s))
            counts[res.pi[0]] += 1
        _, p = scipy_stats.chisquare(counts)
        rows.append((name, counts.tolist(), f"{p:.3f}"))
        assert p > 1e-4
    print_table(
        "E7 position uniformity (node 0's position over 300 samples)",
        ["algorithm", "position counts", "chi² p-value"],
        rows,
    )
    net = clique_net(64, cfg)
    benchmark.pedantic(
        lambda: one_clique(
            permute_constant, net, np.arange(64), np.arange(6), cfg, SeedSequencer(0)
        ),
        rounds=3,
        iterations=1,
    )
