"""E5 — the colorful matching (Lemma 2.9, Appendix A).

Paper claim: in every almost-clique with a_K ≥ C log n, an O(β)-round
procedure finds a colorful matching of size β·a_K, coloring at most
2β·a_K nodes.  Measured: matching size vs the β·a_K target and the round
count, sweeping the anti-degree a_K.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import print_table
from repro.config import ColoringConfig
from repro.core.cliques import compute_clique_info
from repro.core.matching import ROUND_FACTOR, colorful_matching
from repro.core.state import ColoringState
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphs.generators import clique_blob_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


def setup(anti_per_clique: int, size=64, num=4, seed=0, beta=1.5):
    cfg = ColoringConfig.practical(c_log=0.3, beta=beta)
    g = clique_blob_graph(num, size, anti_per_clique, 8, seed=seed)
    net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
    labels = np.arange(net.n) // size
    acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
    state = ColoringState(net)
    info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
    return cfg, net, state, info


@pytest.mark.benchmark(group="E5-matching")
def test_e5_matching_size_tracks_beta_ak(benchmark):
    rows = []
    for anti in [100, 200, 400, 800]:
        achieved, targets, rounds_used, colored = [], [], [], []
        for seed in range(3):
            cfg, net, state, info = setup(anti, seed=seed)
            rep = colorful_matching(state, info, cfg, SeedSequencer(seed))
            achieved.append(sum(rep.sizes.values()))
            targets.append(sum(rep.targets.values()))
            rounds_used.append(rep.rounds)
            colored.append(rep.colored_nodes)
        a_k = info.a_k.mean()
        rows.append(
            (
                anti,
                f"{a_k:.1f}",
                f"{np.mean(targets):.0f}",
                f"{np.mean(achieved):.0f}",
                f"{np.mean(achieved) / max(np.mean(targets), 1):.2f}",
                f"{np.mean(rounds_used):.1f}",
            )
        )
        # Shape claims: sizeable fraction of target; nodes ≤ 2·pairs.
        assert np.mean(achieved) >= 0.5 * np.mean(targets)
        assert all(c == 2 * s for c, s in zip(colored, achieved))
    print_table(
        "E5 colorful matching vs anti-degree (β=1.5, 4 cliques of 64)",
        ["anti-edges/clique", "a_K", "target Σβ·a_K", "achieved", "fraction", "rounds"],
        rows,
    )
    benchmark.pedantic(_run_once, rounds=1, iterations=1)


def _run_once():
    cfg, net, state, info = setup(200, seed=5)
    return colorful_matching(state, info, cfg, SeedSequencer(5))


@pytest.mark.benchmark(group="E5-matching")
def test_e5_rounds_are_o_beta(benchmark):
    """Round count stays within the O(β) budget as β grows."""
    rows = []
    for beta in [0.5, 1.0, 2.0, 4.0]:
        cfg, net, state, info = setup(400, beta=beta, seed=1)
        rep = colorful_matching(state, info, cfg, SeedSequencer(1))
        budget = int(np.ceil(ROUND_FACTOR * beta))
        rows.append((beta, rep.rounds, budget, sum(rep.sizes.values())))
        assert rep.rounds <= budget
    print_table(
        "E5 rounds vs β (budget = 6β)",
        ["beta", "rounds used", "budget", "pairs found"],
        rows,
    )
    benchmark.pedantic(_run_once, rounds=1, iterations=1)
