"""Tests for the dynamic-graph subsystem (repro.dynamic + graphs.churn +
BroadcastNetwork.apply_delta).

The load-bearing guarantee (ISSUE 4 acceptance): after *every* batch of a
randomized churn schedule the maintained coloring is proper, complete on
active nodes, and uses at most Δ_t+1 colors — under repair-only,
fallback-forced, and mixed configurations.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.dynamic import ChurnSchedule, DynamicColoring, UpdateBatch
from repro.dynamic import engine as engine_module
from repro.dynamic.engine import REPAIR_MULTITRIAL_MIN, conflict_repair
from repro.graphs.churn import (
    blob_merge_split_churn,
    mobile_geometric_churn,
    sliding_window_churn,
)
from repro.graphs.families import (
    CHURN_FAMILIES,
    load_edgelist,
    make_churn,
    make_graph,
)
from repro.graphs.generators import gnp_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


def edge_keys(net: BroadcastNetwork) -> set[tuple[int, int]]:
    return {tuple(e) for e in net.undirected_edges().tolist()}


# ----------------------------------------------------------------------
# UpdateBatch / ChurnSchedule
# ----------------------------------------------------------------------
class TestEvents:
    def test_batch_normalizes_arrays(self):
        b = UpdateBatch(insert_edges=[(0, 1)], arrivals=[3, 3, 2])
        assert b.insert_edges.shape == (1, 2)
        assert b.arrivals.tolist() == [2, 3]
        assert b.delete_edges.shape == (0, 2)
        assert not b.is_empty

    def test_empty_batch(self):
        assert UpdateBatch().is_empty

    def test_arrive_and_depart_conflict(self):
        with pytest.raises(ValueError):
            UpdateBatch(arrivals=[1], departures=[1])

    def test_validate_range(self):
        with pytest.raises(ValueError):
            UpdateBatch(insert_edges=[(0, 9)]).validate(4)

    def test_self_loop_rejected_at_construction(self):
        """Regression (ISSUE 10 satellite): self-loops used to survive
        until apply_delta silently dropped them — or reach apply_delta
        unfiltered through the single-batch coalesce fast path.  They
        must die in __post_init__, for both edge directions and both
        edge fields."""
        with pytest.raises(ValueError, match="self-loop"):
            UpdateBatch(insert_edges=[(3, 3)])
        with pytest.raises(ValueError, match="self-loop"):
            UpdateBatch(delete_edges=[(0, 1), (2, 2)])

    def test_schedule_validates_initial_edges(self):
        """Regression (ISSUE 10 satellite): a bad initial graph (e.g. an
        edgelist:PATH with a self-loop or out-of-range id) used to fail
        opaquely deep inside the engine; the schedule must name the
        offending edge at build time."""
        batches = (UpdateBatch(insert_edges=[(0, 1)]),)
        with pytest.raises(ValueError, match=r"initial edge 1 .*self-loop"):
            ChurnSchedule(
                initial=(4, np.array([[0, 1], [2, 2]])), batches=batches
            )
        with pytest.raises(ValueError, match=r"initial edge 0 .*out of range"):
            ChurnSchedule(initial=(4, np.array([[0, 9]])), batches=batches)
        with pytest.raises(ValueError, match="initial edges"):
            ChurnSchedule(initial=(4, np.array([[0, 1, 2]])), batches=batches)

    def test_schedule_validates_batches(self):
        with pytest.raises(ValueError):
            ChurnSchedule(
                initial=(4, np.empty((0, 2), dtype=np.int64)),
                batches=(UpdateBatch(departures=[7]),),
            )

    def test_schedule_counts(self):
        sched = ChurnSchedule(
            initial=(4, np.array([[0, 1]])),
            batches=(
                UpdateBatch(insert_edges=[(1, 2)]),
                UpdateBatch(delete_edges=[(0, 1)], departures=[3]),
            ),
        )
        assert sched.num_batches == 2
        assert sched.n == 4
        assert [b.insert_edges.shape[0] for b in sched] == [1, 0]
        assert [b.delete_edges.shape[0] for b in sched] == [0, 1]
        assert [b.departures.size for b in sched] == [0, 1]


# ----------------------------------------------------------------------
# apply_delta: the positional-splice substrate
# ----------------------------------------------------------------------
class TestApplyDelta:
    def test_insert_and_delete(self):
        net = BroadcastNetwork((4, [(0, 1), (1, 2)]))
        rep = net.apply_delta(insert_edges=[(2, 3)], delete_edges=[(0, 1)])
        assert rep.edges_added == 1 and rep.edges_removed == 1
        assert edge_keys(net) == {(1, 2), (2, 3)}
        assert net.degrees.tolist() == [0, 1, 2, 1]
        assert net.delta == 2

    def test_noop_changes_ignored(self):
        net = BroadcastNetwork((4, [(0, 1)]))
        rep = net.apply_delta(insert_edges=[(0, 1)], delete_edges=[(2, 3)])
        assert rep.edges_added == 0 and rep.edges_removed == 0
        assert rep.ignored == 2
        assert rep.messages == 0 and rep.rounds == 0

    def test_same_batch_delete_then_insert_is_noop(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        net.apply_delta(insert_edges=[(0, 1)], delete_edges=[(0, 1)])
        assert edge_keys(net) == {(0, 1)}

    def test_out_of_range_raises(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        with pytest.raises(ValueError):
            net.apply_delta(insert_edges=[(0, 9)])

    def test_accounting_charged(self):
        # A cap of exactly one ⌈log₂ 8⌉+1 = 4-bit entry: one per message.
        net = BroadcastNetwork((8, [(0, 1), (2, 3)]), bandwidth_bits=4)
        before = net.metrics.total_rounds
        rep = net.apply_delta(insert_edges=[(4, 5), (4, 6)], delete_edges=[(0, 1)])
        # 3 changed edges → 6 directed announcements; node 4 has 2 changes
        # incident, so the batch pipelines over 2 rounds.
        assert rep.messages == 6
        assert rep.rounds == 2
        assert net.metrics.total_rounds - before == 2
        assert net.metrics.phases["dynamic/delta"].messages == 6

    def test_accounting_packed_without_cap(self):
        # The same batch with no cap: each of the 5 senders packs its
        # entries (node 4 has 2) into one message, all in one round.
        net = BroadcastNetwork((8, [(0, 1), (2, 3)]))
        rep = net.apply_delta(insert_edges=[(4, 5), (4, 6)], delete_edges=[(0, 1)])
        assert (rep.rounds, rep.messages, rep.payload_bits) == (1, 5, 24)
        assert (rep.entry_bits, rep.max_message_bits) == (4, 8)
        stats = net.metrics.phases["dynamic/delta"]
        assert (stats.rounds, stats.messages, stats.total_bits) == (1, 5, 24)
        assert stats.max_message_bits == 8

    @staticmethod
    def assert_matches_fresh_build(net, rep, n, initial, ins, dels):
        """The spliced CSR equals a from-scratch build of the edited edge
        set: every array, the degrees, Δ, m, and the ``edge_src`` rebuilt
        on first read after a delta that changed an edge."""
        keys = {(min(u, v), max(u, v)) for u, v in initial if u != v}
        keys -= {(min(u, v), max(u, v)) for u, v in dels if u != v}
        keys |= {(min(u, v), max(u, v)) for u, v in ins if u != v}
        fresh = BroadcastNetwork((n, np.array(sorted(keys)).reshape(-1, 2)))
        if rep.edges_added or rep.edges_removed:
            assert net._edge_src is None
        assert np.array_equal(net.indptr, fresh.indptr)
        assert np.array_equal(net.indices, fresh.indices)
        assert np.array_equal(net.degrees, fresh.degrees)
        assert net.degrees.dtype == fresh.degrees.dtype == np.int64
        assert np.array_equal(net.edge_src, fresh.edge_src)
        assert net.edge_src.dtype == np.int64
        assert np.array_equal(net.undirected_edges(), fresh.undirected_edges())
        assert net.delta == fresh.delta and net.m == fresh.m

    @given(
        st.integers(min_value=1, max_value=60),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_fresh_build(self, n, data):
        """Property: apply_delta's CSR equals a from-scratch build of the
        edited edge set, for random graphs and random deltas."""
        pair_st = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        initial = data.draw(st.lists(pair_st, max_size=200))
        ins = data.draw(st.lists(pair_st, max_size=30))
        # Deletions: a mix of live edges and arbitrary pairs.
        live = [e for e in initial if e[0] != e[1]]
        dels = data.draw(st.lists(pair_st, max_size=15))
        if live:
            dels += data.draw(st.lists(st.sampled_from(live), max_size=30))
        net = BroadcastNetwork((n, initial))
        rep = net.apply_delta(
            np.array(ins).reshape(-1, 2), np.array(dels).reshape(-1, 2)
        )
        self.assert_matches_fresh_build(net, rep, n, initial, ins, dels)

    @pytest.mark.parametrize(
        "initial, ins, dels",
        [
            # Before the first and after the last slot of row 3.
            ([(3, 4), (3, 5)], [(3, 0), (3, 9)], []),
            # Rows 0 and n-1, both ends of the CSR.
            ([(0, 5), (9, 4)], [(0, 9), (0, 1)], [(9, 4)]),
            # Empty graph, then emptied again.
            ([], [(2, 7), (7, 8)], []),
            ([(2, 7), (7, 8)], [], [(7, 8), (2, 7)]),
            # Deletions that lower Δ (the hub loses its edges).
            (
                [(5, i) for i in range(10) if i != 5] + [(1, 2)],
                [],
                [(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)],
            ),
        ],
    )
    def test_explicit_splices(self, initial, ins, dels):
        n = 10
        net = BroadcastNetwork((n, initial))
        before = net.delta
        rep = net.apply_delta(
            np.array(ins).reshape(-1, 2), np.array(dels).reshape(-1, 2)
        )
        self.assert_matches_fresh_build(net, rep, n, initial, ins, dels)
        assert rep.delta_before == before and rep.delta_after == net.delta

    def test_deletions_lower_delta(self):
        net = BroadcastNetwork((6, [(0, i) for i in range(1, 6)] + [(1, 2)]))
        rep = net.apply_delta(delete_edges=[(0, 1), (0, 2), (0, 3)])
        assert (rep.delta_before, rep.delta_after) == (5, 2)
        assert net.degrees.tolist() == [2, 1, 1, 0, 1, 1]

    def test_empty_delta_on_empty_graph(self):
        net = BroadcastNetwork((4, []))
        rep = net.apply_delta(np.empty((0, 2)), np.empty((0, 2)))
        assert rep.edges_added == rep.edges_removed == rep.ignored == 0
        assert net.m == 0 and net.delta == 0 and net.edge_src.size == 0

    def test_peak_memory_stays_near_one_indices_copy(self):
        """A churn-sized delta (1/70 of the edges replaced) on a geometric
        graph with n = 5·10⁴ allocates the new ``indices``, the kept
        copy and a keep-mask, and nothing else of size m: its traced
        peak stays under 3× the 8·2m bytes of ``indices``.  A key-merge
        that builds src·n + dst for all 2m pairs peaks at 5.5×."""
        n, edges = make_graph("geometric", 50_000, 10.0, 3)
        net = BroadcastNetwork((n, edges))
        rng = np.random.default_rng(0)
        und = net.undirected_edges()
        dels = und[rng.choice(und.shape[0], und.shape[0] // 70, replace=False)]
        ins = rng.integers(0, n, size=(dels.shape[0], 2))
        tracemalloc.start()
        try:
            net.apply_delta(ins, dels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * net.indices.nbytes

    def test_silent_nodes_not_charged(self):
        """A powered-down (departing) node cannot announce: only live
        endpoints of its incident edges are charged."""
        net = BroadcastNetwork((6, [(0, 1), (0, 2), (0, 3)]))
        rep = net.apply_delta(
            delete_edges=[(0, 1), (0, 2), (0, 3)], silent_nodes=[0]
        )
        # Node 0 would have announced 3 changes (3 rounds); silenced, the
        # three live neighbors announce one change each, in one round.
        assert rep.messages == 3
        assert rep.rounds == 1

    def test_rejected_delta_leaves_network_untouched(self):
        """A bandwidth-rejected batch must not half-apply: CSR, Δ and
        metrics all stay at their pre-call state."""
        from repro.simulator.network import BandwidthExceeded

        net = BroadcastNetwork((2048, [(0, 1)]), bandwidth_bits=4)
        rounds_before = net.metrics.total_rounds
        with pytest.raises(BandwidthExceeded):
            net.apply_delta(insert_edges=[(1, 2)])
        assert edge_keys(net) == {(0, 1)}
        assert net.delta == 1
        assert net.metrics.total_rounds == rounds_before

    def test_adjacency_cache_invalidated(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        assert net.has_edge(0, 1)
        net.apply_delta(insert_edges=[(1, 2)], delete_edges=[(0, 1)])
        assert not net.has_edge(0, 1)
        assert net.has_edge(1, 2)


# ----------------------------------------------------------------------
# Churn generators
# ----------------------------------------------------------------------
class TestChurnGenerators:
    @pytest.mark.parametrize("family", CHURN_FAMILIES)
    def test_families_produce_valid_schedules(self, family):
        sched = make_churn(family, 300, 16.0, seed=2, batches=5)
        assert sched.num_batches == 5
        assert sched.n >= 200
        for batch in sched:
            batch.validate(sched.n)

    @pytest.mark.parametrize("family", CHURN_FAMILIES + ("gnp", "blobs"))
    def test_deterministic(self, family):
        a = make_churn(family, 200, 12.0, seed=7, batches=4)
        b = make_churn(family, 200, 12.0, seed=7, batches=4)
        assert np.array_equal(a.initial[1], b.initial[1])
        for x, y in zip(a, b):
            assert np.array_equal(x.insert_edges, y.insert_edges)
            assert np.array_equal(x.delete_edges, y.delete_edges)
            assert np.array_equal(x.arrivals, y.arrivals)
            assert np.array_equal(x.departures, y.departures)

    def test_schedules_are_self_consistent(self):
        """Deletions name live edges, insertions name absent ones — for
        every generator, tracked against an applied network."""
        for family in CHURN_FAMILIES:
            sched = make_churn(family, 240, 14.0, seed=3, batches=6)
            net = BroadcastNetwork(sched.initial)
            for batch in sched:
                live = edge_keys(net)
                dep = set(batch.departures.tolist())
                for u, v in batch.delete_edges.tolist():
                    assert (min(u, v), max(u, v)) in live, (family, (u, v))
                for u, v in batch.insert_edges.tolist():
                    assert (min(u, v), max(u, v)) not in live, (family, (u, v))
                # Engine-side departure expansion, mirrored here.
                dels = batch.delete_edges
                if dep:
                    und = net.undirected_edges()
                    mask = np.isin(und[:, 0], list(dep)) | np.isin(
                        und[:, 1], list(dep)
                    )
                    dels = np.concatenate([dels.reshape(-1, 2), und[mask]])
                net.apply_delta(batch.insert_edges, dels)

    def test_sliding_window_keeps_edge_count(self):
        sched = sliding_window_churn(gnp_graph(400, 0.05, seed=1), 6, 0.1, seed=2)
        net = BroadcastNetwork(sched.initial)
        m0 = net.m
        for batch in sched:
            net.apply_delta(batch.insert_edges, batch.delete_edges)
        assert abs(net.m - m0) <= 0.05 * m0

    def test_zero_churn_is_a_true_control(self):
        """churn_fraction=0 must produce genuinely empty batches (the
        no-churn baseline), not one resampled edge per batch."""
        sched = sliding_window_churn(gnp_graph(100, 0.1, seed=1), 4, 0.0, seed=2)
        assert all(b.is_empty for b in sched)
        res = DynamicColoring(sched).run(sched)
        assert res.summary()["mean_recolored_fraction"] == 0.0

    def test_mobile_handoff_cycle(self):
        sched = mobile_geometric_churn(200, 0.1, 8, step=0.01, seed=5,
                                       handoff_fraction=0.05)
        departures = sum(b.departures.size for b in sched)
        arrivals = sum(b.arrivals.size for b in sched)
        assert departures > 0
        assert 0 < arrivals <= departures

    def test_blob_merge_then_split_restores_edges(self):
        sched = blob_merge_split_churn(4, 10, 2, seed=1)
        net = BroadcastNetwork(sched.initial)
        before = edge_keys(net)
        for batch in sched:
            net.apply_delta(batch.insert_edges, batch.delete_edges)
        assert edge_keys(net) == before  # one merge + its split

    def test_static_family_gets_sliding_churn(self):
        sched = make_churn("geometric", 150, 10.0, seed=4, batches=3)
        assert sched.family == "geometric+sliding"
        assert sched.num_batches == 3

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            make_churn("nope", 100, 8.0, seed=0)


# ----------------------------------------------------------------------
# The incremental engine: the per-batch invariant
# ----------------------------------------------------------------------
def assert_invariants(engine: DynamicColoring, report) -> None:
    c = engine.colors
    net = engine.net
    # Proper on every edge; complete and within budget on active nodes.
    src, dst = net.edge_src, net.indices
    assert not ((c[src] >= 0) & (c[src] == c[dst])).any()
    assert (c[engine.active] >= 0).all()
    assert (c[~engine.active] < 0).all()
    assert report.proper and report.complete
    assert report.colors_used <= net.delta + 1
    assert report.colors_used <= report.delta + 1


ENGINE_CONFIGS = {
    "repair-only": {"dynamic_fallback_fraction": 1.5},
    "fallback-forced": {"dynamic_fallback_fraction": -1.0},
    "mixed": {"dynamic_fallback_fraction": 0.05},
    # Repair-only with REPAIR_MULTITRIAL_MIN raised past every conflict
    # set (the test patches it): TryColor rounds alone, as small sets run.
    "trycolor-repair": {"dynamic_fallback_fraction": 1.5},
}


class TestDynamicColoring:
    @pytest.mark.parametrize("mode", sorted(ENGINE_CONFIGS))
    @pytest.mark.parametrize("family", CHURN_FAMILIES)
    def test_invariant_after_every_batch(self, family, mode, monkeypatch):
        """The acceptance property: proper + ≤ Δ_t+1 colors after every
        batch, per churn family × engine policy."""
        if mode == "trycolor-repair":
            monkeypatch.setattr(engine_module, "REPAIR_MULTITRIAL_MIN", 1 << 62)
        cfg = ColoringConfig.practical(seed=9, **ENGINE_CONFIGS[mode])
        sched = make_churn(family, 260, 14.0, seed=11, batches=5)
        engine = DynamicColoring(sched, cfg)
        for batch in sched:
            report = engine.apply_batch(batch)
            assert_invariants(engine, report)
            if mode == "fallback-forced":
                assert report.mode == "fallback"
            if mode in ("repair-only", "trycolor-repair"):
                assert report.mode == "repair"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_invariant_randomized_schedules(self, seed):
        """Hypothesis-driven churn: random family, random seed, random
        intensity — the invariant must hold after every batch."""
        rng = np.random.default_rng(seed)
        family = CHURN_FAMILIES[seed % len(CHURN_FAMILIES)]
        churn = float(rng.uniform(0.01, 0.25))
        cfg = ColoringConfig.practical(
            seed=seed, dynamic_fallback_fraction=float(rng.uniform(0.0, 1.2))
        )
        sched = make_churn(
            family, 180, 12.0, seed=seed, batches=4, churn_fraction=churn
        )
        engine = DynamicColoring(sched, cfg)
        for batch in sched:
            assert_invariants(engine, engine.apply_batch(batch))

    def test_departure_clears_color_and_edges(self):
        sched = ChurnSchedule(
            initial=gnp_graph(60, 0.2, seed=1),
            batches=(UpdateBatch(departures=[5]),),
        )
        engine = DynamicColoring(sched)
        report = engine.apply_batch(sched.batches[0])
        assert engine.colors[5] == -1
        assert not engine.active[5]
        assert engine.net.degrees[5] == 0
        assert_invariants(engine, report)

    def test_arrival_gets_colored(self):
        sched = ChurnSchedule(
            initial=gnp_graph(60, 0.2, seed=1),
            batches=(
                UpdateBatch(departures=[5]),
                UpdateBatch(arrivals=[5], insert_edges=[(5, 0), (5, 1), (5, 2)]),
            ),
        )
        engine = DynamicColoring(sched)
        engine.apply_batch(sched.batches[0])
        report = engine.apply_batch(sched.batches[1])
        assert engine.colors[5] >= 0
        assert engine.active[5]
        assert_invariants(engine, report)

    def test_delta_shrink_recolors_out_of_palette(self):
        """Splitting the merged blob shrinks Δ; colors above the new
        budget must be re-assigned (the out-of-range detection path)."""
        sched = blob_merge_split_churn(3, 12, 2, seed=2)
        engine = DynamicColoring(
            sched, ColoringConfig.practical(dynamic_fallback_fraction=1.5)
        )
        merge = engine.apply_batch(sched.batches[0])
        split = engine.apply_batch(sched.batches[1])
        assert split.delta < merge.delta
        assert_invariants(engine, split)

    def test_quick_matrix_recolors_under_20_percent(self):
        """The ISSUE acceptance bound on the quick matrix sizes."""
        for family in CHURN_FAMILIES:
            sched = make_churn(family, 512, 16.0, seed=0, batches=6)
            res = DynamicColoring(sched).run(sched)
            s = res.summary()
            assert s["fallbacks"] == 0, (family, s)
            assert s["mean_recolored_fraction"] < 0.20, (family, s)

    def test_report_round_and_bit_accounting(self):
        sched = make_churn("gnp-churn", 200, 12.0, seed=1, batches=3)
        engine = DynamicColoring(sched)
        total_before = engine.net.metrics.total_rounds
        res = engine.run(sched)
        charged = engine.net.metrics.total_rounds - total_before
        assert sum(r.rounds for r in res.reports) == charged
        assert all(r.total_bits > 0 for r in res.reports)
        assert engine.net.metrics.phases["dynamic/delta"].rounds > 0
        assert engine.net.metrics.phases["dynamic/repair"].rounds > 0

    def test_repair_touches_fewer_rounds_than_fallback(self):
        sched = make_churn("gnp-churn", 400, 16.0, seed=3, batches=4,
                           churn_fraction=0.02)
        repair = DynamicColoring(
            sched, ColoringConfig.practical(seed=1, dynamic_fallback_fraction=1.5)
        ).run(sched)
        full = DynamicColoring(
            sched, ColoringConfig.practical(seed=1, dynamic_fallback_fraction=-1.0)
        ).run(sched)
        assert repair.summary()["mean_recolored_fraction"] < 0.2
        assert full.summary()["mean_recolored_fraction"] == 1.0
        assert (
            repair.summary()["total_rounds"] < full.summary()["total_rounds"]
        )


# ----------------------------------------------------------------------
# The edgelist family (satellite)
# ----------------------------------------------------------------------
class TestEdgelistFamily:
    def test_loads_whitespace_file(self, tmp_path):
        f = tmp_path / "snap.txt"
        f.write_text("# a comment\n0 1\n1 2   # trailing\n\n2 3\n")
        n, edges = load_edgelist(f)
        assert n == 4
        assert edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_loads_csv_file(self, tmp_path):
        f = tmp_path / "snap.csv"
        f.write_text("0,1\n1,2\n")
        n, edges = load_edgelist(f)
        assert n == 3 and edges.shape == (2, 2)

    def test_make_graph_family_arg(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n0 2\n")
        net = BroadcastNetwork(make_graph(f"edgelist:{f}", 0, 0.0, seed=0))
        assert net.n == 3 and net.m == 3

    def test_missing_path_raises(self):
        with pytest.raises(ValueError):
            make_graph("edgelist", 10, 5.0, seed=0)

    def test_bad_line_raises(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0\n")
        with pytest.raises(ValueError):
            load_edgelist(f)

    def test_self_loop_names_offending_line(self, tmp_path):
        """Regression (ISSUE 10 satellite): a self-loop in an edgelist
        snapshot must fail at load with the file:line of the bad edge,
        not opaquely downstream."""
        f = tmp_path / "loopy.txt"
        f.write_text("0 1\n# comment\n3 3\n1 2\n")
        with pytest.raises(ValueError, match=r"loopy\.txt:3: self-loop edge 3 3"):
            load_edgelist(f)

    def test_explicit_n_keeps_isolated_tail(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n")
        n, _ = load_edgelist(f, n=10)
        assert n == 10
        with pytest.raises(ValueError):
            load_edgelist(f, n=1)

    def test_spec_key_tracks_file_contents(self, tmp_path):
        """Editing the snapshot behind an edgelist spec must miss the
        result store: the content hash folds in the file bytes."""
        from repro.runner.spec import TrialSpec

        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n")
        spec = TrialSpec(family=f"edgelist:{f}", n=3, avg_degree=1.0)
        key_before = spec.key
        f.write_text("0 1\n1 2\n0 2\n")
        # The instance's key is cached (stable within a run, even if the
        # file changes mid-run); a *fresh* spec — what a new run builds —
        # sees the new contents and misses.
        assert spec.key == key_before
        fresh = TrialSpec(family=f"edgelist:{f}", n=3, avg_degree=1.0)
        assert fresh.key != key_before
        f.unlink()
        missing = TrialSpec(family=f"edgelist:{f}", n=3, avg_degree=1.0)
        assert missing.key not in (key_before, fresh.key)

    def test_edited_edgelist_misses_store(self, tmp_path):
        """End to end: a persisted result is served from the store while
        the snapshot file is unchanged and recomputed after an edit (the
        loaded record keeps its at-compute-time key)."""
        from repro.runner.runner import ParallelRunner
        from repro.runner.spec import TrialSpec
        from repro.runner.store import ResultStore

        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n2 0\n")
        spec = TrialSpec(family=f"edgelist:{f}", n=3, avg_degree=2.0,
                         algorithm="greedy")
        path = tmp_path / "store.jsonl"
        ParallelRunner(store=ResultStore(path)).run([spec])
        hit = ResultStore(path).lookup(spec)
        assert hit is not None and hit.cached
        f.write_text("0 1\n1 2\n2 3\n3 0\n")
        # A new run constructs fresh specs; the edited file must miss.
        fresh = TrialSpec(family=f"edgelist:{f}", n=3, avg_degree=2.0,
                          algorithm="greedy")
        assert ResultStore(path).lookup(fresh) is None

    def test_edgelist_seeds_churn_and_runner(self, tmp_path):
        from repro.runner.execute import run_trial
        from repro.runner.spec import TrialSpec

        f = tmp_path / "real.txt"
        rng = np.random.default_rng(0)
        n, edges = gnp_graph(120, 0.1, seed=8)
        lines = "\n".join(f"{u} {v}" for u, v in edges.tolist())
        f.write_text(lines + "\n")
        # Static run and churn run both accept the file-backed family.
        sched = make_churn(f"edgelist:{f}", 0, 0.0, seed=1, batches=3)
        res = DynamicColoring(sched).run(sched)
        assert res.summary()["proper_all"]
        spec = TrialSpec(family=f"edgelist:{f}", n=120, avg_degree=0.0,
                         algorithm="broadcast")
        result = run_trial(spec)
        assert result.ok and result.payload["proper"]


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_churn_family_requires_dynamic(self):
        from repro.runner.spec import TrialSpec

        with pytest.raises(ValueError):
            TrialSpec(family="gnp-churn", algorithm="broadcast")
        with pytest.raises(ValueError, match="unknown algorithm"):
            TrialSpec(family="gnp-churn", algorithm="dynamic_shard")

    def test_dynamic_trial_payload(self):
        from repro.runner.execute import run_trial
        from repro.runner.spec import TrialSpec

        spec = TrialSpec(family="mobile", n=220, avg_degree=12.0, seed=2,
                         algorithm="dynamic")
        result = run_trial(spec)
        assert result.ok
        p = result.payload
        assert p["proper"] and p["complete"] and p["colors_within_budget"]
        assert p["batches"] == 8  # cfg.dynamic_batches default
        assert 0.0 <= p["mean_recolored_fraction"] <= 1.0
        assert "dynamic/repair" in result.timings or p["fallbacks"] > 0

    def test_dynamic_trial_honors_overrides(self):
        from repro.runner.execute import run_trial
        from repro.runner.spec import TrialSpec

        spec = TrialSpec(
            family="gnp-churn", n=180, avg_degree=10.0, seed=1,
            algorithm="dynamic",
            overrides=(("dynamic_batches", 3),
                       ("dynamic_fallback_fraction", -1.0)),
        )
        result = run_trial(spec)
        assert result.ok
        assert result.payload["batches"] == 3
        assert result.payload["fallbacks"] == 3

    def test_dynamic_trial_deterministic(self):
        from repro.runner.execute import run_trial
        from repro.runner.spec import TrialSpec

        spec = TrialSpec(family="blobs-churn", n=160, avg_degree=16.0,
                         seed=4, algorithm="dynamic")
        a, b = run_trial(spec), run_trial(spec)
        assert a.payload == b.payload


# ----------------------------------------------------------------------
# Conflict victim selection (the conflict_victim knob, ISSUE 5 satellite)
# ----------------------------------------------------------------------
class TestConflictVictims:
    def test_id_policy_picks_larger_endpoint(self):
        from repro.dynamic import conflict_victims

        net = BroadcastNetwork((4, [(0, 1), (1, 2), (2, 3)]))
        colors = np.array([0, 0, 1, -1], dtype=np.int64)  # (0,1) mono
        victims = conflict_victims(net, colors, policy="id")
        assert victims.tolist() == [False, True, False, False]

    def test_slack_policy_uncolors_roomier_endpoint(self):
        from repro.dynamic import conflict_victims

        # Edge (0,1) monochromatic with color 0; node 1 also sees a
        # neighbor colored 1, so Ψ(1) = {2} while Ψ(0) = {1, 2}: node 0
        # has the larger palette and is the victim under "slack" (the
        # constrained endpoint keeps its color), while "id" blames node 1.
        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        colors = np.array([0, 0, 1], dtype=np.int64)
        slack = conflict_victims(net, colors, policy="slack", num_colors=3)
        assert slack.tolist() == [True, False, False]
        by_id = conflict_victims(net, colors, policy="id", num_colors=3)
        assert by_id.tolist() == [False, True, False]

    def test_slack_ties_fall_back_to_larger_id(self):
        from repro.dynamic import conflict_victims

        net = BroadcastNetwork((2, [(0, 1)]))
        colors = np.array([0, 0], dtype=np.int64)
        victims = conflict_victims(net, colors, policy="slack", num_colors=2)
        assert victims.tolist() == [False, True]

    def test_unknown_policy_raises(self):
        from repro.dynamic import conflict_victims

        net = BroadcastNetwork((2, [(0, 1)]))
        with pytest.raises(ValueError):
            conflict_victims(net, np.array([0, 0]), policy="degree")

    def test_no_mono_edges_no_victims(self):
        from repro.dynamic import conflict_victims

        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        assert not conflict_victims(net, np.array([0, 1, 0])).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_slack_matches_per_node_palette_oracle(self, seed):
        """On random colorings whose colors reach past the palette (a
        node left holding a color ≥ Δ+1 after Δ shrank), the ``"slack"``
        victim of every monochromatic edge is the endpoint whose
        ``ColoringState.palette`` is larger, ties to the larger id; the
        out-of-range colors forbid nothing inside the palette."""
        from repro.core.state import ColoringState
        from repro.dynamic import conflict_victims
        from repro.dynamic.engine import monochromatic_edges

        rng = np.random.default_rng(seed)
        net = BroadcastNetwork(gnp_graph(120, 0.08, seed=seed))
        num_colors = int(rng.integers(2, net.delta + 2))
        colors = rng.integers(-1, num_colors + 3, size=net.n).astype(np.int64)
        state = ColoringState(net, num_colors=num_colors)
        state.colors = colors
        hi, lo = monochromatic_edges(net, colors)
        assert hi.size and (colors >= num_colors).any()
        want = np.zeros(net.n, dtype=bool)
        for h, l in zip(hi.tolist(), lo.tolist()):
            bigger_hi = state.palette(h).size >= state.palette(l).size
            want[h if bigger_hi else l] = True
        got = conflict_victims(net, colors, policy="slack", num_colors=num_colors)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("policy", ["id", "slack"])
    def test_invariant_holds_under_both_policies(self, policy):
        sched = make_churn("blobs-churn", 200, 16.0, seed=3, batches=4)
        cfg = ColoringConfig.practical(seed=1, conflict_victim=policy)
        summary = DynamicColoring(sched, cfg).run(sched).summary()
        assert summary["proper_all"] and summary["complete_all"]
        assert summary["colors_within_budget"]

    def test_slack_policy_never_increases_repair_rounds_on_blobs_churn(self):
        """The ROADMAP claim behind the knob: preferring the endpoint with
        more palette headroom as victim shrinks (or at worst matches) the
        repair-round bill on dense churn."""
        totals = {}
        for policy in ("id", "slack"):
            rounds = 0
            for seed in (0, 1, 2):
                sched = make_churn("blobs-churn", 400, 16.0, seed=seed, batches=5)
                cfg = ColoringConfig.practical(
                    seed=7, conflict_victim=policy,
                    dynamic_fallback_fraction=1.5,
                )
                res = DynamicColoring(sched, cfg).run(sched)
                summary = res.summary()
                assert summary["proper_all"] and summary["fallbacks"] == 0
                rounds += summary["total_rounds"]
            totals[policy] = rounds
        assert totals["slack"] <= totals["id"], totals


class TestConflictRepair:
    @pytest.mark.parametrize(
        "size,seeded",
        [(REPAIR_MULTITRIAL_MIN - 1, False), (REPAIR_MULTITRIAL_MIN, True)],
    )
    def test_multitrial_seeds_sets_of_the_minimum_size(
        self, size, seeded, monkeypatch
    ):
        """A repair set below ``REPAIR_MULTITRIAL_MIN`` goes straight to
        TryColor rounds; one of that size is seeded through MultiTrial
        first.  Either way the set ends colored, the fringe keeps its
        colors, and the coloring is proper."""
        net = BroadcastNetwork(gnp_graph(150, 0.08, seed=4))
        before = BroadcastColoring(net, ColoringConfig.practical(seed=2)).run().colors
        repair_set = np.arange(0, net.n, net.n // size)[:size]
        colors = before.copy()
        colors[repair_set] = -1
        calls = []
        real = engine_module.multitrial

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "multitrial", spy)
        after, done, _ = conflict_repair(
            net, colors, repair_set, net.delta + 1,
            ColoringConfig.practical(seed=5), SeedSequencer(5),
        )
        assert bool(calls) == seeded
        assert done and (after[repair_set] >= 0).all()
        fringe = np.ones(net.n, dtype=bool)
        fringe[repair_set] = False
        assert np.array_equal(after[fringe], before[fringe])
        src, dst = net.edge_src, net.indices
        assert not (after[src] == after[dst]).any()
