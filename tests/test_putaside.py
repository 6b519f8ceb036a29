"""Tests for put-aside sets (Lemma 3.4, Algorithm 6, Lemmas 3.10–3.13)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ColoringConfig
from repro.core.cliques import compute_clique_info
from repro.core.putaside import (
    _presample,
    color_putaside_sets,
    compress_try,
    select_putaside_sets,
)
from repro.core.state import ColoringState
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphs.generators import clique_blob_graph, planted_acd_graph
from repro.hashing.prg import derive_seed_item, expand_indices_item
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from tests.helpers import color_putaside_sets_oracle, compress_try_oracle, greedy_color


def full_blob_setup(num=3, size=40, ext=5, seed=0, **cfg_kw):
    """Blobs dense enough that every clique classifies as *full*."""
    cfg = ColoringConfig.practical(**cfg_kw)
    g = clique_blob_graph(num, size, anti_edges_per_clique=4, external_edges_per_clique=ext, seed=seed)
    net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
    labels = np.arange(net.n) // size
    acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
    state = ColoringState(net)
    info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
    return cfg, net, state, info


class TestSelection:
    def test_sets_are_inliers_of_full_cliques(self):
        cfg, net, state, info = full_blob_setup()
        aside, rep = select_putaside_sets(state, info, cfg, SeedSequencer(1))
        assert rep.cliques_with_sets > 0
        for c, nodes in aside.items():
            assert info.kind[c] == "full"
            assert (info.labels[nodes] == c).all()
            assert not info.outlier_mask[nodes].any()

    def test_no_edges_between_putaside_sets(self):
        # The Lemma 3.4 invariant, checked exhaustively.
        for seed in range(5):
            cfg, net, state, info = full_blob_setup(ext=30, seed=seed)
            aside, _ = select_putaside_sets(state, info, cfg, SeedSequencer(seed))
            all_nodes = {}
            for c, nodes in aside.items():
                for v in nodes:
                    all_nodes[int(v)] = c
            for v, c in all_nodes.items():
                for u in net.neighbors(v):
                    u = int(u)
                    if u in all_nodes and all_nodes[u] != c:
                        pytest.fail(f"edge ({v},{u}) joins two put-aside sets")

    def test_target_size_respected(self):
        cfg, net, state, info = full_blob_setup()
        aside, _ = select_putaside_sets(state, info, cfg, SeedSequencer(2))
        target = cfg.putaside_size(net.n)
        for nodes in aside.values():
            assert nodes.size <= target

    def test_rounds_charged(self):
        cfg, net, state, info = full_blob_setup()
        select_putaside_sets(state, info, cfg, SeedSequencer(3), phase="ps")
        assert net.metrics.rounds_in("ps") == 2

    def test_no_full_cliques_no_sets(self):
        # Heavy anti-edges → closed cliques → no put-aside sets.
        cfg = ColoringConfig.practical(c_log=0.2)
        g = clique_blob_graph(2, 40, anti_edges_per_clique=300, seed=4)
        net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
        labels = np.arange(net.n) // 40
        acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
        state = ColoringState(net)
        info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
        if "full" not in info.kind:
            aside, rep = select_putaside_sets(state, info, cfg, SeedSequencer(4))
            assert aside == {}


def run_compress_try(state, s_nodes, lists, cfg, seq):
    """CompressTry stage 0 on one clique with lists ``lists``: the
    (nodes, colors) of the kept instance."""
    s_nodes = np.asarray(s_nodes, dtype=np.int64)
    usable = np.zeros((s_nodes.size, state.num_colors), dtype=bool)
    for i, v in enumerate(s_nodes):
        usable[i, np.intersect1d(lists[int(v)], state.palette(int(v)))] = True
    group = np.zeros(s_nodes.size, dtype=np.int64)
    rows, colors = compress_try(s_nodes, group, usable, 0, cfg, seq)
    return s_nodes[rows].tolist(), colors.tolist()


class TestCompressTry:
    def test_colors_are_from_lists_and_palettes(self):
        cfg, net, state, info = full_blob_setup(seed=5)
        members = info.members(0)
        s_nodes = members[:6]
        lists = {int(v): np.arange(state.num_colors, dtype=np.int64) for v in s_nodes}
        nodes, colors = run_compress_try(state, s_nodes, lists, cfg, SeedSequencer(5))
        for v, c in zip(nodes, colors):
            assert c in lists[v]
            assert c in state.palette(v)

    def test_no_color_reuse_within_instance(self):
        cfg, net, state, info = full_blob_setup(seed=6)
        s_nodes = info.members(0)[:8]
        lists = {int(v): np.arange(state.num_colors, dtype=np.int64) for v in s_nodes}
        nodes, colors = run_compress_try(state, s_nodes, lists, cfg, SeedSequencer(6))
        assert len(set(colors)) == len(colors)

    def test_processes_in_id_order(self):
        cfg, net, state, info = full_blob_setup(seed=7)
        s_nodes = info.members(0)[:5][::-1]
        lists = {int(v): np.array([0], dtype=np.int64) for v in s_nodes}
        nodes, colors = run_compress_try(state, s_nodes, lists, cfg, SeedSequencer(7))
        # Only the smallest-ID node can take the single shared color, in
        # whatever order the rows come.
        assert nodes == [int(np.min(s_nodes))]

    def test_empty_lists_color_nothing(self):
        cfg, net, state, info = full_blob_setup(seed=8)
        s_nodes = info.members(0)[:4]
        lists = {int(v): np.empty(0, dtype=np.int64) for v in s_nodes}
        nodes, colors = run_compress_try(state, s_nodes, lists, cfg, SeedSequencer(8))
        assert nodes == []

    def test_nothing_adopted_by_compress_try_itself(self):
        cfg, net, state, info = full_blob_setup(seed=9)
        s_nodes = info.members(0)[:4]
        lists = {int(v): np.arange(10, dtype=np.int64) for v in s_nodes}
        run_compress_try(state, s_nodes, lists, cfg, SeedSequencer(9))
        assert (state.colors < 0).all()

    @pytest.mark.parametrize("reps", [1, 4])
    def test_matches_node_by_node_instances(self, reps):
        """Each clique keeps the first of its instances that colors the
        most nodes, and every instance is the node-by-node greedy."""
        cfg, net, state, info = full_blob_setup(seed=11, compress_try_colors=2,
                                                compress_try_repeats=reps)
        s_by_clique = [info.members(c)[::3] for c in range(info.num_cliques)]
        nodes = np.concatenate(s_by_clique)
        group = np.repeat(np.arange(len(s_by_clique)), [s.size for s in s_by_clique])
        lists = {int(v): np.arange(0, state.num_colors, 2, dtype=np.int64) for v in nodes}
        usable = np.zeros((nodes.size, state.num_colors), dtype=bool)
        for i, v in enumerate(nodes):
            usable[i, np.intersect1d(lists[int(v)], state.palette(int(v)))] = True
        rows, colors = compress_try(nodes, group, usable, 1, cfg, SeedSequencer(11))
        expected_nodes, expected_colors = [], []
        for s in s_by_clique:
            best = ([], [])
            for r in range(reps):
                got = compress_try_oracle(state, s, lists, cfg, SeedSequencer(11), stage=1, rep=r)
                if len(got[0]) > len(best[0]):
                    best = got
            expected_nodes += best[0]
            expected_colors += best[1]
        assert nodes[rows].tolist() == expected_nodes
        assert colors.tolist() == expected_colors


class TestColoringPutAside:
    def _run(self, seed, **cfg_kw):
        cfg, net, state, info = full_blob_setup(seed=seed, **cfg_kw)
        aside, _ = select_putaside_sets(state, info, cfg, SeedSequencer(seed))
        # Color everything else greedily (simulating the rest of the pipeline).
        aside_mask = np.zeros(net.n, dtype=bool)
        for nodes in aside.values():
            aside_mask[nodes] = True
        for v in range(net.n):
            if not aside_mask[v]:
                pal = state.palette(v)
                state.adopt(np.array([v]), np.array([pal[0]]))
        rep = color_putaside_sets(state, info, aside, cfg, SeedSequencer(seed + 100))
        return cfg, net, state, info, aside, rep

    def test_colors_all_putaside_nodes(self):
        cfg, net, state, info, aside, rep = self._run(seed=10)
        assert state.is_complete()
        state.verify()
        assert rep.left_uncolored == 0

    def test_works_across_seeds(self):
        for seed in range(5):
            _, _, state, _, _, rep = self._run(seed=20 + seed)
            assert rep.left_uncolored == 0
            state.verify()

    def test_rounds_constant_scale(self):
        cfg, net, state, info, aside, rep = self._run(seed=30)
        assert rep.compress_rounds <= 8
        assert rep.finish_rounds <= 4

    def test_empty_putaside_noop(self):
        cfg, net, state, info = full_blob_setup(seed=31)
        rep = color_putaside_sets(state, info, {}, cfg, SeedSequencer(31))
        assert rep.colored == 0
        assert rep.left_uncolored == 0


def putaside_instance(family, size, seed, **cfg_kw):
    """Put-aside sets selected on a clique-blob or planted graph, and every
    other node colored: the state the put-aside phase starts from."""
    cfg = ColoringConfig.practical(**cfg_kw)
    if family == "blob":
        g = clique_blob_graph(3, size, size // 8, size // 2, seed=seed)
        labels = np.arange(g[0]) // size
    else:
        g = planted_acd_graph(4, size, 0.1, sparse_nodes=size, seed=seed)
        labels = np.where(np.arange(g[0]) < 4 * size, np.arange(g[0]) // size, -1)
    net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
    acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
    state = ColoringState(net)
    info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
    aside, _ = select_putaside_sets(state, info, cfg, SeedSequencer(seed))
    mask = np.zeros(net.n, dtype=bool)
    for nodes in aside.values():
        mask[nodes] = True
    greedy_color(state, np.flatnonzero(~mask), np.random.default_rng(seed))
    return cfg, net, state, info, aside


def run_both(family, size, seed, **cfg_kw):
    """(colors, report, rounds, bits, max message bits) of the batched
    phase and of the per-clique oracle, each on its own copy."""
    out = []
    for color in (color_putaside_sets, color_putaside_sets_oracle):
        cfg, net, state, info, aside = putaside_instance(family, size, seed, **cfg_kw)
        rep = color(state, info, aside, cfg, SeedSequencer(seed + 1), phase="pa")
        stats = net.metrics.phases["pa"]
        out.append((state.colors, rep.as_dict(), stats.rounds, stats.total_bits,
                    stats.max_message_bits))
    return out


class TestBatchedMatchesOracle:
    """The all-cliques-at-once phase equals the clique-by-clique,
    node-by-node oracle: colors, report, rounds and bits."""

    @given(
        family=st.sampled_from(["blob", "planted"]),
        size=st.sampled_from([24, 40, 70, 140]),
        k=st.sampled_from([1, 2, 8]),
        reps=st.sampled_from([1, 4]),
        c_log=st.sampled_from([0.01, 1.0]),
        bandwidth=st.sampled_from([4.0, 32.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_clique_oracle(self, family, size, k, reps, c_log, bandwidth, seed):
        """A tight ``bandwidth_factor`` spreads the messages over several
        waves, so the per-clique round maxima differ."""
        (colors, rep, rounds, bits, top), oracle = run_both(
            family, size, seed, compress_try_colors=k, compress_try_repeats=reps,
            c_log=c_log, bandwidth_factor=bandwidth,
        )
        assert np.array_equal(colors, oracle[0])
        assert (rep, rounds, bits, top) == oracle[1:]

    @pytest.mark.parametrize(
        "family,size,seed", [("blob", 40, 0), ("blob", 70, 1), ("blob", 140, 0), ("planted", 70, 1)]
    )
    def test_stage_one_and_finish_run(self, family, size, seed):
        """k = 1 with one repeat leaves CompressTry stragglers: stage 1
        and the finish both run (two- and three-word color rows), and
        still match the oracle."""
        (colors, rep, rounds, bits, top), oracle = run_both(
            family, size, seed, compress_try_colors=1, compress_try_repeats=1
        )
        assert rep["compress_rounds"] == 4 and rep["finish_rounds"] > 0
        assert rep["left_uncolored"] == 0
        assert np.array_equal(colors, oracle[0])
        assert (rep, rounds, bits, top) == oracle[1:]

    def test_adjacent_putaside_sets_refused(self):
        """Lemma 3.4 is the batching's precondition: one edge between two
        cliques' put-aside sets is refused, naming both endpoints, before
        anything is adopted or charged."""
        cfg, net, state, info = full_blob_setup(ext=30, seed=3)
        lab, src, dst = info.labels, net.edge_src, net.indices
        e = int(np.flatnonzero((lab[src] == 0) & (lab[dst] == 1))[0])
        u, v = int(src[e]), int(dst[e])
        sees = {c: np.zeros(net.n, dtype=bool) for c in (0, 1)}
        for c in (0, 1):
            sees[c][src[lab[dst] == c]] = True
        # Members with no neighbor in the other clique keep (u, v) the only
        # cross edge between the two sets.
        quiet0 = [w for w in info.members(0) if not sees[1][w] and w != u][:3]
        quiet1 = [w for w in info.members(1) if not sees[0][w] and w != v][:3]
        aside = {0: np.array([u, *quiet0]), 1: np.array([v, *quiet1])}
        rounds = net.metrics.total_rounds
        with pytest.raises(ValueError, match=rf"edge \(({u}, {v}|{v}, {u})\)"):
            color_putaside_sets(state, info, aside, cfg, SeedSequencer(3))
        assert (state.colors < 0).all()
        assert net.metrics.total_rounds == rounds

    def test_node_outside_its_clique_refused(self):
        cfg, net, state, info = full_blob_setup(seed=4)
        stray = int(info.members(1)[0])
        with pytest.raises(ValueError, match=f"{stray} is not a member of clique 0"):
            color_putaside_sets(state, info, {0: np.array([stray])}, cfg, SeedSequencer(4))
        assert (state.colors < 0).all()


class TestBatchedPresamples:
    @given(
        nodes=st.lists(st.integers(0, 10**6), min_size=0, max_size=30, unique=True),
        widths=st.lists(st.integers(1, 300), min_size=30, max_size=30),
        stage=st.sampled_from([0, 1]),
        reps=st.integers(1, 4),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_item_expansion(self, nodes, widths, stage, reps, k, seed):
        """Row i·reps + r is node i's own expansion under the base of
        (stage, r), whatever other nodes share the call (Lemma 2.14's
        broadcaster/listener symmetry)."""
        seq = SeedSequencer(seed)
        sizes = np.asarray(widths[: len(nodes)], dtype=np.int64)
        ranks = _presample(seq, np.asarray(nodes, dtype=np.int64), sizes, stage, reps, k)
        assert ranks.shape == (len(nodes) * reps, k)
        for i, (v, width) in enumerate(zip(nodes, sizes.tolist())):
            for r in range(reps):
                base = seq.derive_seed("compress-try", stage, r)
                expected = expand_indices_item(derive_seed_item(v, base), k, width)
                assert ranks[i * reps + r].tolist() == expected.tolist()

    @pytest.mark.parametrize("family,size,seed", [("blob", 70, 1), ("planted", 70, 1)])
    def test_builds_no_generator(self, family, size, seed):
        """Every pre-sample comes from the batch PRG: the phase constructs
        no ``numpy.random.Generator`` at all."""
        cfg, net, state, info, aside = putaside_instance(
            family, size, seed, compress_try_colors=1, compress_try_repeats=2
        )
        with pytest.MonkeyPatch.context() as patch:
            built = []
            patch.setattr(SeedSequencer, "stream", lambda self, *key: built.append(key))
            rep = color_putaside_sets(state, info, aside, cfg, SeedSequencer(seed))
        assert rep.colored > 0 and rep.left_uncolored == 0
        assert built == []
