"""Tests for the Synchronized Color Trial (§3.2, Lemma 3.5, Claim 3.8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ColoringConfig
from repro.core import sct as sct_module
from repro.core.cliques import compute_clique_info
from repro.core.putaside import select_putaside_sets
from repro.core.sct import synchronized_color_trial
from repro.core.state import ColoringState
from repro.core.trycolor import resolve_proposals
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphs.generators import clique_blob_graph, planted_acd_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from tests.helpers import greedy_color, sct_oracle


def blob_setup(num=3, size=40, anti=20, ext=10, seed=0, **cfg_kw):
    cfg = ColoringConfig.practical(**cfg_kw)
    g = clique_blob_graph(num, size, anti, ext, seed=seed)
    net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
    labels = np.arange(net.n) // size
    acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
    state = ColoringState(net)
    info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
    return cfg, net, state, info


class TestSCT:
    def test_colors_most_of_each_clique(self):
        cfg, net, state, info = blob_setup()
        rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(1))
        assert rep.colored > 0
        for c, leftover in rep.leftover_by_clique.items():
            members = info.members(c)
            assert leftover < 0.5 * members.size

    def test_leftover_scales_with_external_degree(self):
        """Lemma 3.5: uncolored-after-SCT is O(e_K + log n).  Compare low
        vs high external degree blobs (averaged over seeds).

        The reserved prefix is scaled down (x_full_factor) so the palette
        covers all of S — in the full pipeline Lemma 3.6 guarantees that;
        in this isolated call we arrange it by config so the measurement
        sees only the external-conflict effect the lemma is about.
        """
        low, high = [], []
        for s in range(6):
            cfg, net, state, info = blob_setup(ext=2, seed=s, x_full_factor=0.02)
            rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(s))
            low.append(np.mean(list(rep.leftover_by_clique.values())))
            cfg, net, state, info = blob_setup(ext=60, seed=s, x_full_factor=0.02)
            rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(s))
            high.append(np.mean(list(rep.leftover_by_clique.values())))
        assert np.mean(high) >= np.mean(low)

    def test_no_in_clique_conflicts(self):
        # The permutation hands distinct palette indices to clique members:
        # the trial must never produce an in-clique monochromatic edge.
        cfg, net, state, info = blob_setup(seed=3)
        synchronized_color_trial(state, info, {}, cfg, SeedSequencer(3))
        state.verify()

    def test_putaside_nodes_excluded(self):
        cfg, net, state, info = blob_setup(seed=4)
        aside = {0: info.members(0)[:5]}
        synchronized_color_trial(state, info, aside, cfg, SeedSequencer(4))
        assert (state.colors[aside[0]] < 0).all()

    def test_reserved_prefix_untouched(self):
        cfg, net, state, info = blob_setup(seed=5)
        synchronized_color_trial(state, info, {}, cfg, SeedSequencer(5))
        for c in range(info.num_cliques):
            members = info.members(c)
            used = state.colors[members]
            used = used[used >= 0]
            if used.size:
                assert used.min() >= int(info.x_k[c])

    def test_rounds_charged(self):
        cfg, net, state, info = blob_setup(seed=6)
        synchronized_color_trial(state, info, {}, cfg, SeedSequencer(6), phase="s")
        assert net.metrics.rounds_in("s/trial") == 1
        assert net.metrics.rounds_in("s/learn-palette") >= 1
        assert net.metrics.rounds_in("s/permute") >= 1

    def test_no_cliques_noop(self):
        cfg = ColoringConfig.practical()
        net = BroadcastNetwork((6, [(0, 1)]))
        state = ColoringState(net)
        acd = AlmostCliqueDecomposition(labels=np.full(6, -1), eps=cfg.eps)
        info = compute_clique_info(net, acd, cfg)
        rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(7))
        assert rep.cliques == 0
        assert rep.colored >= 0

    def test_already_colored_members_skipped(self):
        cfg, net, state, info = blob_setup(seed=8)
        pre = info.members(0)[:10]
        state.adopt(pre, np.arange(10) + int(info.x_k[0]))
        synchronized_color_trial(state, info, {}, cfg, SeedSequencer(8))
        assert np.array_equal(state.colors[pre], np.arange(10) + int(info.x_k[0]))
        state.verify()

    def test_open_clique_extra_rounds_fire(self):
        # Build an open clique: e_K > 2 a_K and a_K + e_K ≥ ℓ.
        cfg, net, state, info = blob_setup(
            num=3, size=40, anti=2, ext=300, seed=9, ell_factor=0.4
        )
        assert "open" in info.kind
        rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(9), phase="o")
        assert rep.extra_trycolor_rounds > 0 or state.is_complete()

    def test_report_dict_keys(self):
        cfg, net, state, info = blob_setup(seed=10)
        rep = synchronized_color_trial(state, info, {}, cfg, SeedSequencer(10))
        d = rep.as_dict()
        for key in ("tried", "colored", "cliques", "permute_rounds_max"):
            assert key in d


def sct_instance(family, size, ext, colored, seed, **cfg_kw):
    """Cliques with put-aside sets selected and a random part of the graph
    colored: the state the SCT starts from."""
    cfg = ColoringConfig.practical(**cfg_kw)
    if family == "blob":
        g = clique_blob_graph(3, size, size // 2, ext, seed=seed)
        labels = np.arange(g[0]) // size
    else:
        g = planted_acd_graph(3, size, 0.1, sparse_nodes=size, seed=seed)
        labels = np.where(np.arange(g[0]) < 3 * size, np.arange(g[0]) // size, -1)
    net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
    acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
    state = ColoringState(net)
    info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
    aside, _ = select_putaside_sets(state, info, cfg, SeedSequencer(seed))
    rng = np.random.default_rng(seed)
    pre = rng.random(net.n) < colored
    for nodes in aside.values():
        pre[nodes] = False
    greedy_color(state, np.flatnonzero(pre), rng)
    return cfg, net, state, info, aside


class TestBatchedMatchesOracle:
    @given(
        family=st.sampled_from(["blob", "planted"]),
        size=st.sampled_from([20, 40, 70, 140]),
        ext=st.sampled_from([2, 40, 300]),
        colored=st.sampled_from([0.0, 0.4]),
        constant_round=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_per_clique_oracle(self, family, size, ext, colored, constant_round, seed):
        """Proposals, the SCTReport, colors, rounds and bits equal the
        clique-by-clique trial with per-member LearnPalette."""
        kw = dict(permute_constant_round=constant_round, ell_factor=0.4)
        cfg, net, state, info, aside = sct_instance(family, size, ext, colored, seed, **kw)
        seen = []

        def capture(state, proposals, **kwargs):
            seen.append(proposals.copy())
            return resolve_proposals(state, proposals, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sct_module, "resolve_proposals", capture)
            rep = synchronized_color_trial(state, info, aside, cfg, SeedSequencer(seed), phase="s")
        cfg, net2, state2, info2, aside2 = sct_instance(family, size, ext, colored, seed, **kw)
        oracle, proposals = sct_oracle(state2, info2, aside2, cfg, SeedSequencer(seed), phase="s")
        assert np.array_equal(seen[0], proposals)
        assert rep == oracle
        assert np.array_equal(state.colors, state2.colors)
        for name, stats in net2.metrics.phases.items():
            mine = net.metrics.phases[name]
            assert (mine.rounds, mine.messages, mine.total_bits) == (
                stats.rounds, stats.messages, stats.total_bits
            )


class TestGeneratorConstructions:
    @pytest.mark.parametrize("family,size", [("blob", 40), ("planted", 70)])
    def test_algorithm_4_builds_only_learn_palette_streams(self, family, size):
        """Under Algorithm 4 the only generators are LearnPalette's t(v)
        streams, one per clique with a nonempty S: buckets, ρ and Relabel
        draw from the batch PRG."""
        cfg, net, state, info, aside = sct_instance(family, size, 2, 0.4, 3, ell_factor=0.4)
        assert "open" not in info.kind  # open cliques add TryColor streams
        real = SeedSequencer.stream
        built = []

        def counting(self, *key):
            built.append(key[0])
            return real(self, *key)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SeedSequencer, "stream", counting)
            rep = synchronized_color_trial(state, info, aside, cfg, SeedSequencer(3))
        assert rep.cliques > 1 and rep.colored > 0
        assert built == ["learn-palette"] * rep.cliques
