"""Tests for the vectorized MultiTrial kernel and its batched PRG.

Two contracts from DESIGN.md §4:

1. **broadcaster/listener symmetry** — the batched (vectorized) seed
   derivation and expansion agree entry-for-entry with the scalar item
   path a single listener would compute;
2. **oracle equivalence** — the edge-wise adoption kernels and the
   per-node oracle (``tests/helpers.py:resolve_pernode_oracle``) produce
   identical colorings and identical per-phase round counts/bits, for
   both samplers, including on the full E1 quick matrix, and identical
   adoptions on random inputs at every try count up to the cap, on
   palettes on both sides of the word kernel's 64 colors, across the
   compare kernel's chunk boundaries, with either kernel's memory bounded
   by the compare kernel's chunk budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import greedy_color, resolve_pernode_oracle
from repro.config import ColoringConfig
from repro.core import multitrial as multitrial_module
from repro.core.algorithm import BroadcastColoring
from repro.core.multitrial import multitrial
from repro.core.state import ColoringState
from repro.graphs.families import make_graph
from repro.graphs.generators import (
    complete_graph,
    gnp_graph,
    planted_acd_graph,
    ring_graph,
)
from repro.hashing.prg import (
    derive_seed_item,
    derive_seeds_batch,
    expand_indices_batch,
    expand_indices_item,
)
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


class TestBatchedPRG:
    def test_seed_batch_matches_item_path(self):
        ids = np.array([0, 1, 7, 123456, (1 << 62) + 13], dtype=np.int64)
        base = 0x1234ABCD5678
        batch = derive_seeds_batch(ids, base)
        for i, v in enumerate(ids):
            assert int(batch[i]) == derive_seed_item(int(v), base)

    def test_expansion_batch_matches_item_path_for_every_node(self):
        """Broadcaster/listener symmetry: the row a node computes inside the
        batch equals what any listener computes for that seed alone."""
        rng = np.random.default_rng(0)
        seeds = rng.integers(0, 1 << 63, size=64, dtype=np.int64)
        widths = np.concatenate(
            [rng.integers(1, 1000, size=62, dtype=np.int64), [1, 10**12]]
        )
        batch = expand_indices_batch(seeds, 9, widths)
        for i in range(seeds.size):
            item = expand_indices_item(int(seeds[i]), 9, int(widths[i]))
            assert np.array_equal(batch[i], item)
            assert (batch[i] < widths[i]).all() and (batch[i] >= 0).all()

    def test_empty_width_rows_are_sentinel(self):
        batch = expand_indices_batch(
            np.array([5, 6], dtype=np.int64), 4, np.array([0, 3], dtype=np.int64)
        )
        assert (batch[0] == -1).all()
        assert (batch[1] >= 0).all()

    def test_seeds_differ_across_nodes_and_bases(self):
        ids = np.arange(1000, dtype=np.int64)
        a = derive_seeds_batch(ids, 1)
        b = derive_seeds_batch(ids, 2)
        assert np.unique(a).size == ids.size
        assert not np.array_equal(a, b)

    def test_batched_expansion_roughly_uniform(self):
        seeds = derive_seeds_batch(np.arange(2000, dtype=np.int64), 42)
        vals = expand_indices_batch(seeds, 8, np.full(2000, 10, dtype=np.int64))
        counts = np.bincount(vals.ravel(), minlength=10)
        assert counts.min() > 0.8 * vals.size / 10
        assert counts.max() < 1.2 * vals.size / 10



def _run_multitrial(graph, sampler, seed=11, num_colors=None, **overrides):
    net = BroadcastNetwork(graph)
    state = ColoringState(net, num_colors=num_colors)
    cfg = ColoringConfig.practical(multitrial_sampler=sampler, **overrides)
    mask = np.ones(net.n, dtype=bool)
    lo = np.zeros(net.n, dtype=np.int64)
    hi = np.full(net.n, state.num_colors, dtype=np.int64)
    rep = multitrial(state, mask, lo, hi, cfg, SeedSequencer(seed), "mt")
    return state, rep


class TestEngineEquivalence:
    @pytest.mark.parametrize("sampler", ["batched", "expander"])
    @pytest.mark.parametrize(
        "graph",
        [
            gnp_graph(200, 0.03, seed=1),
            gnp_graph(60, 0.2, seed=2),
            complete_graph(12),
            ring_graph(30),
        ],
        ids=["gnp-sparse", "gnp-dense", "clique", "ring"],
    )
    def test_vectorized_equals_pernode(self, sampler, graph, monkeypatch):
        s2, r2 = _run_multitrial(graph, sampler)
        monkeypatch.setattr(
            multitrial_module, "_resolve_vectorized", resolve_pernode_oracle
        )
        s1, r1 = _run_multitrial(graph, sampler)
        assert np.array_equal(s1.colors, s2.colors)
        assert r1.per_iteration == r2.per_iteration
        s2.verify()

    def test_batched_default_colors_with_slack(self):
        state, rep = _run_multitrial(gnp_graph(400, 0.01, seed=5), "batched")
        assert rep.remaining == 0
        state.verify()


KERNEL_GRAPHS = {
    "gnp-sparse": gnp_graph(150, 0.03, seed=1),
    "gnp-dense": gnp_graph(60, 0.3, seed=2),
    "clique": complete_graph(24),
    "ring": ring_graph(40),
    "planted": planted_acd_graph(3, 30, 0.1, sparse_nodes=40, seed=3),
}


WORD_BITS = multitrial_module._WORD_BITS
# Palettes on both sides of the word kernel's 64-color bound.
PALETTES = [1, 2, WORD_BITS - 1, WORD_BITS, WORD_BITS + 1, 200]
# A palette wider than a word: every run on it reaches the compare kernel.
WIDE = 2 * WORD_BITS


def _random_resolve_input(graph, k, num_colors, wide, rng):
    """A kernel input as MultiTrial builds one: a proper partial coloring
    of a random node subset with colors from the whole palette
    ``[0, num_colors)``, an ascending random subset of the uncolored nodes
    as ``active``, and k tries per row drawn from a random interval (so
    rows repeat colors), or all ``-1`` for an empty interval.  Unless
    ``wide``, every try stays below 64 while the colors may not; if
    ``wide``, tries range over the whole palette and one row holds its
    top color."""
    state = ColoringState(BroadcastNetwork(graph), num_colors=num_colors)
    colored = np.flatnonzero(rng.random(state.n) < rng.random())
    greedy_color(state, colored, rng, choices=None)
    uncolored = state.uncolored_nodes()
    active = uncolored[rng.random(uncolored.size) < rng.random()]
    top = num_colors if wide else min(num_colors, WORD_BITS)
    lo = rng.integers(0, top, size=active.size)
    width = rng.integers(1, top - lo + 1)
    proposals = lo[:, None] + rng.integers(0, width[:, None], size=(active.size, k))
    proposals[rng.random(active.size) < 0.15] = -1
    live = np.flatnonzero(proposals[:, 0] >= 0)
    if wide and live.size:
        proposals[rng.choice(live)] = num_colors - 1
    return state, active, proposals


class TestKernelAgainstOracle:
    @given(
        graph=st.sampled_from(sorted(KERNEL_GRAPHS)),
        k=st.sampled_from([1, 2, 3, 8, 33, 64]),
        palette=st.one_of(
            st.tuples(st.sampled_from(PALETTES), st.just(False)),
            st.tuples(st.sampled_from([p for p in PALETTES if p > WORD_BITS]), st.just(True)),
        ),
        seed=st.integers(0, 2**32 - 1),
        chunk_pairs=st.one_of(st.none(), st.integers(1, 5)),
    )
    @settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
    def test_kernel_equals_pernode_oracle(self, graph, k, palette, seed, chunk_pairs):
        """Same adoptions as the node-at-a-time rule at every try count up
        to the default cap, on palettes on both sides of 64: tries below
        64 take the word kernel, a try of 64 or more the compare kernel
        (``palette`` is the palette size and whether tries may reach
        past 64).  With ``chunk_pairs`` set, the chunk budget holds that
        many pairs, so chunk boundaries fall inside both of the compare
        kernel's rules."""
        num_colors, wide = palette
        rng = np.random.default_rng(seed)
        state, active, proposals = _random_resolve_input(
            KERNEL_GRAPHS[graph], k, num_colors, wide, rng
        )
        word = proposals.max(initial=-1) < WORD_BITS
        event("word kernel" if word else "compare kernel")
        calls = []
        kill_matches = multitrial_module._kill_matches
        with pytest.MonkeyPatch.context() as patch:
            if chunk_pairs is not None:
                patch.setattr(multitrial_module, "_CHUNK_BYTES", 16 * k * chunk_pairs)
            patch.setattr(
                multitrial_module, "_kill_matches",
                lambda *args: calls.append(1) or kill_matches(*args),
            )
            nodes, colors = multitrial_module._resolve_vectorized(state, active, proposals)
        assert bool(calls) != word
        want_nodes, want_colors = resolve_pernode_oracle(state, active, proposals)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(colors, want_colors)

    def test_word_bits_of_edge_values(self):
        """A try or color of -1 or of 64 and more sets no bit."""
        values = np.array([-1, 0, 1, 63, 64, 65, 200, -(2**63)], dtype=np.int64)
        got = multitrial_module._one_hot(values)
        want = [0, 1, 2, 1 << 63, 0, 0, 0, 0]
        assert got.dtype == np.uint64 and got.tolist() == want

    def test_cap_tries_span_chunks_and_equal_oracle(self, monkeypatch):
        """At the cap (64 tries from the first iteration) on G(2000, 24/n)
        with a palette wider than a word, rule (b)'s pairs need several
        chunks of the compare kernel at the default budget, and the run
        still colors exactly as the per-node oracle does."""
        graph = gnp_graph(2000, 24.0 / 2000, seed=4)

        def run():
            return _run_multitrial(
                graph, "batched", num_colors=WIDE, multitrial_initial=64
            )

        rule_b = []  # (tries, pairs) of each rule-(b) call
        kill_matches = multitrial_module._kill_matches

        def spy(killed, tries, rows, table, cols):
            if table is tries:  # rule (b): the other side is the tries
                rule_b.append((tries.shape[0], rows.size))
            kill_matches(killed, tries, rows, table, cols)

        with monkeypatch.context() as patch:
            patch.setattr(multitrial_module, "_kill_matches", spy)
            s2, r2 = run()
        pairs_per_chunk = multitrial_module._CHUNK_BYTES // (16 * 64)
        assert all(k == 64 for k, _ in rule_b)
        assert max(pairs for _, pairs in rule_b) > pairs_per_chunk
        monkeypatch.setattr(
            multitrial_module, "_resolve_vectorized", resolve_pernode_oracle
        )
        s1, r1 = run()
        assert np.array_equal(s1.colors, s2.colors)
        assert r1.per_iteration == r2.per_iteration
        assert r2.remaining == 0
        s2.verify()

    def test_cap_tries_memory_bounded_by_chunk_budget(self):
        """At k = 64, gathering both sides of every rule-(b) pair at once
        would take E_b·k·16 bytes, at least 8× the chunk budget on this
        graph; the traced peak of either kernel stays below that (Δ+1
        colors take the word kernel, a palette wider than a word the
        compare kernel)."""
        n, k = 4000, 64
        net = BroadcastNetwork(gnp_graph(n, 24.0 / n, seed=6))
        active = np.arange(n, dtype=np.int64)
        e_b = net.indices.size // 2  # every node active: one pair per edge
        full_gather = e_b * k * 16
        assert full_gather >= 8 * multitrial_module._CHUNK_BYTES
        for num_colors in (None, WIDE):
            state = ColoringState(net, num_colors=num_colors)
            rng = np.random.default_rng(6)
            proposals = rng.integers(0, state.num_colors, size=(n, k))
            assert (proposals.max() < WORD_BITS) == (num_colors is None)
            tracemalloc.start()
            try:
                multitrial_module._resolve_vectorized(state, active, proposals)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < full_gather, num_colors


# The E1 quick matrix cells (benchmarks/specs/quick.toml) that exercise the
# broadcast pipeline.
QUICK_CELLS = [
    (family, n, seed)
    for family in ("gnp", "blobs")
    for n in (128, 256)
    for seed in (0, 1)
]


def _pipeline(family, n, seed, sampler):
    graph = make_graph(family, n, 16.0, seed)
    cfg = ColoringConfig.practical(seed=seed, multitrial_sampler=sampler)
    return BroadcastColoring(graph, cfg).run()


class TestQuickMatrixEquivalence:
    @pytest.mark.parametrize("family,n,seed", QUICK_CELLS)
    def test_round_counts_identical_across_engines(self, family, n, seed, monkeypatch):
        """The vectorized kernel leaves every observable untouched:
        per-phase round counts, total bits, and the coloring itself are
        byte-identical to the per-node oracle swapped into the pipeline,
        on the whole quick matrix."""
        b = _pipeline(family, n, seed, "batched")
        monkeypatch.setattr(
            multitrial_module, "_resolve_vectorized", resolve_pernode_oracle
        )
        a = _pipeline(family, n, seed, "batched")
        assert a.phase_rounds == b.phase_rounds
        assert a.total_bits == b.total_bits
        assert a.rounds_total == b.rounds_total
        assert np.array_equal(a.colors, b.colors)

    @pytest.mark.parametrize("family,n,seed", QUICK_CELLS)
    def test_batched_default_proper_and_complete(self, family, n, seed):
        res = _pipeline(family, n, seed, "batched")
        assert res.proper and res.complete
        # Round accounting structure is sampler-agnostic:
        # batched changes the tried colors, never the round/bit schedule
        # per iteration (one seed round + one adoption round).
        assert res.max_message_bits <= ColoringConfig.practical().bandwidth_bits(n)


class TestPerfTracking:
    def test_phase_seconds_populated(self):
        res = BroadcastColoring(gnp_graph(150, 0.05, seed=2)).run()
        assert res.phase_seconds
        assert all(v >= 0.0 for v in res.phase_seconds.values())
        assert set(res.phase_seconds) >= {"setup", "sparse", "cleanup"}

    def test_runner_timings_survive_store_roundtrip(self, tmp_path):
        from repro.runner import ParallelRunner, ResultStore, TrialSpec

        spec = TrialSpec(family="gnp", n=64, avg_degree=8.0, seed=0)
        store = ResultStore(tmp_path / "r.jsonl")
        run = ParallelRunner(workers=1, store=store).run([spec])
        assert run.results[0].timings
        cached = ParallelRunner(workers=1, store=ResultStore(tmp_path / "r.jsonl")).run(
            [spec]
        )
        assert cached.results[0].cached
        # the timings of the computing run, as the store rounds them
        assert cached.results[0].timings == pytest.approx(run.results[0].timings, abs=1e-6)
