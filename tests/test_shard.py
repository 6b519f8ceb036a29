"""Tests for the multi-shard subsystem (repro.shard, shard_view_from_csr
and the shared conflict kernel).

The load-bearing guarantee (ISSUE 5 acceptance): for any graph, partition
strategy and k, the reconciled coloring is proper, complete, and uses at
most Δ+1 colors — and k=1 is *bit-identical* to the single-process
pipeline.  Propriety here is a distributed property: interior edges are
proper by construction, the cut only by protocol, so the suite leans on
brute-force edge checks rather than the engine's own verdicts.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_proper, induced_subgraph_oracle
from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.core.state import ColoringState
from repro.graphs.families import make_graph
from repro.graphs.generators import geometric_graph, gnp_graph
from repro.runner import ParallelRunner, ResultStore, TrialSpec, load_matrix
from repro.runner.execute import run_trial
from repro.shard import STRATEGIES, ShardedColoring, partition_nodes
from repro.shard import engine as shard_engine
from repro.shard.engine import _color_shard, _view_from_arena
from repro.shard.shm import ShmArena, leaked_segments
from repro.simulator.network import BroadcastNetwork, shard_view_from_csr

QUICK_MATRIX = "benchmarks/specs/quick.toml"


def shard_cfg(seed: int = 0, **overrides) -> ColoringConfig:
    return ColoringConfig.practical(seed=seed, **overrides)


def mask_view(net: BroadcastNetwork, mask: np.ndarray, shard: int = 0):
    """The view of the nodes in ``mask`` as shard ``shard``, through
    ``shard_view_from_csr``."""
    members = np.flatnonzero(mask)
    assignment = np.where(mask, shard, -1)
    local = np.cumsum(mask) - 1
    return shard_view_from_csr(
        net.n, net.indptr, net.indices, members, assignment, local, shard
    )


def partition_view(net: BroadcastNetwork, part, shard: int):
    """Shard ``shard`` of ``part``'s view, as ShardedColoring builds it."""
    return shard_view_from_csr(
        net.n, net.indptr, net.indices, part.members(shard),
        part.assignment, part.local_ids(), shard,
    )


def _wait_until(predicate, seconds: float):
    """Poll ``predicate`` until it is truthy or ``seconds`` pass; returns
    its last value."""
    deadline = time.monotonic() + seconds
    while True:
        value = predicate()
        if value or time.monotonic() > deadline:
            return value
        time.sleep(0.05)


def _proc_stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _children_of(pid: int) -> set[int]:
    """The live processes whose parent is ``pid``."""
    out = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _alive(int(entry)):
            stat = _proc_stat(int(entry))
            if stat is not None and int(stat[1]) == pid:
                out.add(int(entry))
    return out


def _arena_segments(pid: int) -> list[str]:
    """The ``/dev/shm`` arena segments a driver with this pid created."""
    return sorted(
        name for name in leaked_segments() if f"-{pid}-" in name
    )


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartition:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_balanced_cover(self, strategy, k):
        net = BroadcastNetwork(gnp_graph(97, 0.08, seed=1))
        part = partition_nodes(net, k, strategy, seed=3)
        assert part.assignment.size == net.n
        assert part.assignment.min() >= 0 and part.assignment.max() < k
        sizes = part.sizes()
        assert sizes.sum() == net.n
        assert sizes.max() - sizes.min() <= 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic(self, strategy):
        net = BroadcastNetwork(gnp_graph(80, 0.1, seed=2))
        a = partition_nodes(net, 4, strategy, seed=5).assignment
        b = partition_nodes(net, 4, strategy, seed=5).assignment
        assert np.array_equal(a, b)

    def test_random_seed_changes_assignment(self):
        net = BroadcastNetwork(gnp_graph(80, 0.1, seed=2))
        a = partition_nodes(net, 4, "random", seed=1).assignment
        b = partition_nodes(net, 4, "random", seed=2).assignment
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_k1_is_all_zero(self, strategy):
        net = BroadcastNetwork(gnp_graph(30, 0.2, seed=0))
        part = partition_nodes(net, 1, strategy, seed=0)
        assert (part.assignment == 0).all()
        assert part.cut_edges(net).size == 0

    def test_k_exceeding_n_leaves_empty_shards(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        part = partition_nodes(net, 8, "contiguous")
        assert part.sizes().sum() == 3

    def test_cut_edges_match_brute_force(self):
        net = BroadcastNetwork(gnp_graph(60, 0.15, seed=4))
        part = partition_nodes(net, 3, "random", seed=7)
        got = {tuple(e) for e in part.cut_edges(net).tolist()}
        want = {
            (int(u), int(v))
            for u, v in net.undirected_edges()
            if part.assignment[u] != part.assignment[v]
        }
        assert got == want
        ends = sorted({x for edge in want for x in edge})
        assert part.boundary_nodes(net).tolist() == ends
        assert part.cut_stats(net)["boundary_nodes"] == len(ends)

    def test_greedy_beats_random_on_geometric(self):
        net = BroadcastNetwork(geometric_graph(1500, 0.06, seed=3))
        rand = partition_nodes(net, 4, "random", seed=1).cut_stats(net)
        greedy = partition_nodes(net, 4, "greedy", seed=1).cut_stats(net)
        assert greedy["cut_edges"] < rand["cut_edges"] / 3

    def test_invalid_inputs(self):
        net = BroadcastNetwork(gnp_graph(10, 0.3, seed=0))
        with pytest.raises(ValueError):
            partition_nodes(net, 0, "contiguous")
        with pytest.raises(ValueError):
            partition_nodes(net, 2, "metis")


# ----------------------------------------------------------------------
# Induced subgraphs: a shard's interior view
# ----------------------------------------------------------------------
class TestShardView:
    def _view(self, n=50, p=0.15, seed=9, frac=0.4, shard=2):
        net = BroadcastNetwork(gnp_graph(n, p, seed=seed))
        rng = np.random.default_rng(seed)
        mask = rng.random(n) < frac
        return net, mask, mask_view(net, mask, shard=shard)

    def test_interior_edges_match_brute_force(self):
        net, mask, view = self._view()
        nodes = view.nodes
        assert np.array_equal(nodes, np.flatnonzero(mask))
        got = {
            (int(nodes[a]), int(nodes[b])) for a, b in view.interior_edges
        }
        want = {
            (int(u), int(v))
            for u, v in net.undirected_edges()
            if mask[u] and mask[v]
        }
        assert got == want

    def test_full_mask_is_identity(self):
        net = BroadcastNetwork(gnp_graph(40, 0.2, seed=1))
        view = mask_view(net, np.ones(net.n, dtype=bool))
        assert np.array_equal(view.nodes, np.arange(net.n))
        assert np.array_equal(view.interior_edges, net.undirected_edges())

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.floats(0.0, 0.4),
        seed=st.integers(0, 10_000),
        k=st.integers(1, 5),
        strategy=st.sampled_from(STRATEGIES),
    )
    def test_matches_induced_subgraph_oracle(self, n, p, seed, k, strategy):
        """Every shard's view equals the whole-edge-array scan's, array
        for array and in the same order."""
        net = BroadcastNetwork(gnp_graph(n, p, seed=seed))
        part = partition_nodes(net, k, strategy, seed=seed)
        for s in range(k):
            got = partition_view(net, part, s)
            want = induced_subgraph_oracle(net, part.members(s), shard=s)
            assert got.shard == want.shard and got.n_global == want.n_global
            for name in ("nodes", "interior_edges"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and np.array_equal(a, b), name



# ----------------------------------------------------------------------
# The sharded engine: the distributed invariant
# ----------------------------------------------------------------------
class TestShardedColoring:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(12, 48),
        avg_deg=st.floats(2.0, 10.0),
        seed=st.integers(0, 10_000),
        k=st.sampled_from([1, 2, 4, 8]),
        strategy=st.sampled_from(STRATEGIES),
    )
    def test_reconciled_coloring_is_proper_within_budget(
        self, n, avg_deg, seed, k, strategy
    ):
        graph = gnp_graph(n, min(1.0, avg_deg / n), seed=seed)
        net = BroadcastNetwork(graph)
        result = ShardedColoring(
            net, shard_cfg(seed=seed, shard_k=k, shard_strategy=strategy)
        ).run()
        assert result.unresolved_conflicts == 0
        assert brute_force_proper(net, result.colors)
        assert (result.colors >= 0).all()
        assert result.colors.max() <= net.delta  # colors in [0, Δ+1)
        assert result.num_colors_used <= net.delta + 1
        assert result.proper and result.complete

    def test_second_run_reports_only_itself(self):
        """``phase_seconds`` used to add up over runs on one network
        (``shard/partition`` 0.025, 0.034, 0.043 s); rounds and bits
        already reported the run's own share."""
        engine = ShardedColoring(gnp_graph(300, 0.03, seed=2), shard_cfg(seed=2, shard_k=3))
        first = engine.run()
        t0 = time.perf_counter()
        second = engine.run()
        wall = time.perf_counter() - t0
        assert np.array_equal(first.colors, second.colors)
        assert second.rounds_total == first.rounds_total > 0
        assert second.total_bits == first.total_bits
        assert set(second.phase_seconds) == set(first.phase_seconds) == {
            "shard/partition", "shard/pack", "shard/interior", "shard/reconcile"
        }
        assert sum(second.phase_seconds.values()) <= wall

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_k1_identical_to_single_process(self, strategy):
        cfg = shard_cfg(seed=11)
        graph = gnp_graph(300, 0.05, seed=6)
        ref = BroadcastColoring(graph, cfg).run()
        got = ShardedColoring(
            graph, shard_cfg(seed=11, shard_k=1, shard_strategy=strategy)
        ).run()
        assert np.array_equal(got.colors, ref.colors)
        assert got.cut_edges == 0 and got.reconcile_touched == 0

    def test_k1_identical_on_full_quick_matrix(self):
        """The acceptance bar: k=1 ≡ the single-process engine on every
        (family, n, avg_degree, seed) cell of the quick matrix, under the
        runner's own graph-seeding discipline."""
        cells = {
            (s.family, s.n, s.avg_degree, s.seed): s
            for s in load_matrix(QUICK_MATRIX)
        }
        for (family, n, deg, seed), spec in sorted(cells.items()):
            graph = make_graph(family, n, deg, spec.graph_seed())
            cfg = shard_cfg(seed=spec.algo_seed())
            ref = BroadcastColoring(graph, cfg).run()
            got = ShardedColoring(
                graph, shard_cfg(seed=spec.algo_seed(), shard_k=1)
            ).run()
            assert np.array_equal(got.colors, ref.colors), (family, n, deg, seed)
            assert got.num_colors_used == ref.num_colors_used

    def test_pool_identical_to_inline(self):
        def deterministic(d: dict) -> dict:
            # Wall-clock, RSS and what carried the views ride outside the
            # deterministic account, exactly as in TrialResult
            # (elapsed_s/timings vs payload).
            env = ("seconds", "cpu_seconds", "peak_rss_mb", "transport")
            d = {k: v for k, v in d.items() if k not in env}
            d["shards"] = [
                {k: v for k, v in s.items() if k not in env}
                for s in d["shards"]
            ]
            return d

        cfg = shard_cfg(seed=4)
        graph = gnp_graph(400, 0.03, seed=2)
        inline = ShardedColoring(graph, cfg, workers=1).run()
        pooled = ShardedColoring(graph, cfg, workers=4).run()
        assert (inline.transport, pooled.transport) == ("inline", "shm")
        assert np.array_equal(inline.colors, pooled.colors)
        assert json.dumps(deterministic(inline.as_dict()), sort_keys=True) == \
            json.dumps(deterministic(pooled.as_dict()), sort_keys=True)

    def test_interior_edges_never_monochromatic_before_reconcile(self):
        """Only cut edges can conflict at merge time: interior propriety
        is by construction (each worker's hard invariant)."""
        graph = gnp_graph(200, 0.08, seed=3)
        net = BroadcastNetwork(graph)
        part = partition_nodes(net, 4, "random", seed=0)
        cfg = shard_cfg(seed=1)
        colors = np.full(net.n, -1, dtype=np.int64)
        for i in range(4):
            view = partition_view(net, part, i)
            out = _color_shard(view, cfg.with_seed(i))
            colors[view.nodes] = out["colors"]
        und = net.undirected_edges()
        interior = part.assignment[und[:, 0]] == part.assignment[und[:, 1]]
        mono = colors[und[:, 0]] == colors[und[:, 1]]
        assert not (interior & mono).any()

    def test_empty_graph_and_empty_shards(self):
        result = ShardedColoring((5, []), shard_cfg(shard_k=8)).run()
        assert result.proper and result.complete
        assert result.unresolved_conflicts == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shard_reports_count_incident_cut_edges(self, strategy):
        """Each shard's ``cut_edges`` is the number of cut edges with an
        endpoint in that shard, counted by brute force over the edge list:
        a cut edge counts under both of its shards."""
        k = 5
        net = BroadcastNetwork(gnp_graph(300, 0.04, seed=5))
        cfg = shard_cfg(seed=2, shard_k=k, shard_strategy=strategy)
        result = ShardedColoring(net, cfg).run()
        assignment = partition_nodes(net, k, strategy, seed=cfg.seed).assignment
        want = [0] * k
        for u, v in net.undirected_edges().tolist():
            if assignment[u] != assignment[v]:
                want[assignment[u]] += 1
                want[assignment[v]] += 1
        assert [r.cut_edges for r in result.shard_reports] == want
        assert sum(want) == 2 * result.cut_edges > 0

    def test_touched_nodes_reported(self):
        graph = gnp_graph(500, 0.04, seed=1)
        result = ShardedColoring(graph, shard_cfg(seed=3)).run()
        assert result.initial_conflicts > 0  # expander cut must conflict
        assert 0 < result.reconcile_touched <= result.n
        assert result.unresolved_conflicts == 0

    @pytest.mark.parametrize("victim", ["id", "slack"])
    def test_cut_repaired_by_one_conflict_repair(self, victim, monkeypatch):
        """A k=4 random-partition run repairs the cut with exactly one
        ``conflict_repair`` call.  Its repair set is the victim rule's
        endpoint of every monochromatic cut edge of the merged coloring
        (the larger id; or, under ``"slack"``, the larger palette by the
        per-node ``ColoringState.palette`` oracle, ties to the larger id)
        plus that coloring's uncolored nodes, and every node outside it
        keeps its merged interior color."""
        calls = []
        real = shard_engine.conflict_repair

        def spy(net, colors, repair_set, *args, **kwargs):
            calls.append(np.array(repair_set, copy=True))
            return real(net, colors, repair_set, *args, **kwargs)

        monkeypatch.setattr(shard_engine, "conflict_repair", spy)
        net = BroadcastNetwork(gnp_graph(300, 0.05, seed=7))
        cfg = shard_cfg(
            seed=5, shard_k=4, shard_strategy="random", conflict_victim=victim
        )
        engine = ShardedColoring(net, cfg)
        result = engine.run()
        # The merge, rebuilt as the workers color it.
        part = partition_nodes(net, 4, "random", seed=cfg.seed)
        merged = np.full(net.n, -1, dtype=np.int64)
        for i in range(4):
            view = partition_view(net, part, i)
            merged[view.nodes] = _color_shard(view, engine._shard_config(i))["colors"]
        state = ColoringState(net)
        state.colors = merged
        want = set(np.flatnonzero(merged < 0).tolist())
        for u, v in part.cut_edges(net).tolist():
            if merged[u] < 0 or merged[u] != merged[v]:
                continue
            if victim == "slack" and state.palette(u).size > state.palette(v).size:
                want.add(u)
            else:
                want.add(v)
        assert result.initial_conflicts > 0 and result.unresolved_conflicts == 0
        assert len(calls) == 1
        assert calls[0].tolist() == sorted(want)
        assert result.reconcile_touched == len(want)
        kept = np.ones(net.n, dtype=bool)
        kept[calls[0]] = False
        assert np.array_equal(result.colors[kept], merged[kept])

    def test_conflict_free_run_calls_no_repair(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            shard_engine, "conflict_repair", lambda *a, **kw: calls.append(a)
        )
        result = ShardedColoring(
            gnp_graph(300, 0.05, seed=6), shard_cfg(seed=11, shard_k=1)
        ).run()
        assert result.initial_conflicts == 0 and result.complete
        assert calls == []

    @pytest.mark.parametrize("victim", ["id", "slack"])
    def test_victim_policies_both_reconcile(self, victim):
        graph = gnp_graph(300, 0.06, seed=2)
        net = BroadcastNetwork(graph)
        result = ShardedColoring(
            net, shard_cfg(seed=2, conflict_victim=victim)
        ).run()
        assert result.unresolved_conflicts == 0
        assert brute_force_proper(net, result.colors)


# ----------------------------------------------------------------------
# Runner integration: determinism + content hashing
# ----------------------------------------------------------------------
class TestShardRunner:
    SPEC = dict(
        family="gnp", n=200, avg_degree=8.0, seed=1, algorithm="shard",
        overrides=(("shard_k", 4), ("shard_strategy", "random")),
    )

    def test_same_spec_twice_is_byte_identical(self):
        a, b = run_trial(TrialSpec(**self.SPEC)), run_trial(TrialSpec(**self.SPEC))
        assert a.status == b.status == "ok"
        assert json.dumps(a.payload, sort_keys=True) == \
            json.dumps(b.payload, sort_keys=True)

    def test_store_roundtrip_byte_identical(self, tmp_path):
        spec = TrialSpec(**self.SPEC)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ParallelRunner(store=ResultStore(p1)).run([spec])
        ParallelRunner(store=ResultStore(p2)).run([spec])
        row1 = json.loads(p1.read_text())
        row2 = json.loads(p2.read_text())
        for row in (row1, row2):
            row.pop("elapsed_s"), row.pop("timings")
        assert json.dumps(row1, sort_keys=True) == json.dumps(row2, sort_keys=True)

    def test_key_changes_with_k_and_strategy(self):
        base = TrialSpec(**self.SPEC)
        k8 = TrialSpec(**{**self.SPEC, "overrides": (("shard_k", 8), ("shard_strategy", "random"))})
        greedy = TrialSpec(**{**self.SPEC, "overrides": (("shard_k", 4), ("shard_strategy", "greedy"))})
        assert len({base.key, k8.key, greedy.key}) == 3

    def test_shard_trial_through_pool_workers(self, tmp_path):
        specs = [
            TrialSpec(**{**self.SPEC, "seed": s}) for s in range(3)
        ]
        serial = ParallelRunner(workers=1).run(specs)
        parallel = ParallelRunner(workers=3).run(specs)
        assert json.dumps(serial.payloads(), sort_keys=True) == \
            json.dumps(parallel.payloads(), sort_keys=True)

    def test_churn_family_rejects_shard(self):
        with pytest.raises(ValueError):
            TrialSpec(family="gnp-churn", algorithm="shard")

    def test_payload_carries_cut_account(self):
        r = run_trial(TrialSpec(**self.SPEC))
        for key in (
            "k", "strategy", "cut_edges", "cut_fraction", "initial_conflicts",
            "reconcile_touched", "touched_fraction", "reconcile_rounds",
            "unresolved_conflicts", "rounds_interior",
        ):
            assert key in r.payload, key
        assert r.payload["unresolved_conflicts"] == 0
        assert r.payload["proper"] and r.payload["complete"]


# ----------------------------------------------------------------------
# Zero-copy shared-memory transport (ISSUE 8)
# ----------------------------------------------------------------------
class TestShmTransport:
    def test_arena_roundtrip_bit_identical(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 33),
            "c": np.arange(12, dtype=np.int32).reshape(3, 4),
            "empty": np.empty(0, dtype=np.int64),
        }
        with ShmArena.create(arrays, label="test") as arena:
            desc = arena.descriptor()
            assert desc.names() == tuple(arrays)
            with ShmArena.attach(desc, writeable=("a",)) as borrowed:
                for name, arr in arrays.items():
                    got = borrowed.array(name)
                    assert got.dtype == arr.dtype and got.shape == arr.shape
                    assert np.array_equal(got, arr), name
                    assert got.flags.writeable == (name == "a"), name
                with pytest.raises((ValueError, RuntimeError)):
                    borrowed.array("b")[0] = 9.0
                # Writes through the writable slice land in the creator's
                # view: one segment, no copies anywhere.
                borrowed.array("a")[7] = -42
                assert arena.array("a")[7] == -42
        assert leaked_segments() == []

    def test_attached_view_identical_to_pickled_view(self):
        """The worker-side view rebuilt from read-only arena slices is
        bit-identical to the whole-edge-array oracle's view."""
        net = BroadcastNetwork(gnp_graph(250, 0.05, seed=11))
        part = partition_nodes(net, 4, "greedy", seed=3)
        order, starts = part.index_arrays()
        arrays = {
            "indptr": net.indptr,
            "indices": net.indices,
            "assignment": part.assignment,
            "local": part.local_ids(),
            "order": order,
            "starts": starts,
        }
        with ShmArena.create(arrays, label="view") as arena:
            with ShmArena.attach(arena.descriptor()) as borrowed:
                for s in range(4):
                    oracle = induced_subgraph_oracle(net, part.members(s), shard=s)
                    attached = _view_from_arena(borrowed, s)
                    assert np.array_equal(attached.nodes, oracle.nodes)
                    assert np.array_equal(
                        attached.interior_edges, oracle.interior_edges
                    )

    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_transports_identical_through_pool(self, transport, monkeypatch):
        """A pooled run packs an arena; when ShmArena.create raises
        OSError (no room in /dev/shm) it pickles each worker its view
        instead, says so in ``transport``, and colors byte for byte as
        the arena run does."""
        graph = gnp_graph(400, 0.03, seed=2)
        ref = ShardedColoring(graph, shard_cfg(seed=4), workers=4).run()
        assert ref.transport == "shm"
        if transport == "pickle":
            def no_room(*args, **kwargs):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(ShmArena, "create", no_room)
        got = ShardedColoring(graph, shard_cfg(seed=4), workers=4).run()
        assert got.transport == transport
        assert np.array_equal(got.colors, ref.colors)
        assert got.proper and got.complete and got.unresolved_conflicts == 0
        assert leaked_segments() == []

    @pytest.mark.parametrize("workers,k", [(1, 4), (2, 1)])
    def test_inline_run_creates_no_arena(self, workers, k, monkeypatch):
        """One worker or one shard runs without a pool: no arena is
        created, and ``transport`` says ``"inline"``."""
        created = []
        real_create = ShmArena.create

        def spy(*args, **kwargs):
            created.append(kwargs.get("label"))
            return real_create(*args, **kwargs)

        monkeypatch.setattr(ShmArena, "create", spy)
        graph = gnp_graph(200, 0.05, seed=3)
        result = ShardedColoring(
            graph, shard_cfg(seed=1, shard_k=k), workers=workers
        ).run()
        assert result.transport == "inline" and created == []
        assert result.proper and result.complete

    def test_segments_unlinked_after_normal_run(self):
        before = leaked_segments()
        ShardedColoring(
            gnp_graph(300, 0.04, seed=1), shard_cfg(seed=1), workers=2
        ).run()
        assert leaked_segments() == before == []

    def test_segments_unlinked_after_worker_crash(self):
        """A hard worker crash (SIGKILL-grade: os._exit inside the pool)
        must not leak the arena: the driver's finally owns the unlink."""
        from repro import faults

        plan = faults.FaultPlan(
            name="shm-hard-crash",
            seed=3,
            rules=(
                faults.FaultRule(
                    site="shard.worker", kind="crash", hard=True,
                    match={"shard": 1, "attempt": 1},
                ),
            ),
        )
        graph = gnp_graph(300, 0.04, seed=9)
        with faults.suppressed():
            reference = ShardedColoring(graph, shard_cfg(seed=2), workers=2).run()
        faults.arm(plan)
        try:
            crashed = ShardedColoring(graph, shard_cfg(seed=2), workers=2).run()
        finally:
            faults.disarm()
        assert crashed.faults.get("worker_crashes", 0) >= 1
        assert np.array_equal(crashed.colors, reference.colors)
        assert leaked_segments() == []

    def test_injected_attach_fault_recovers_and_unlinks(self):
        """A soft crash at the shm *attach* site: the worker dies before
        mapping; supervision retries/falls back and the recovered result
        is byte-identical, with /dev/shm clean."""
        from repro import faults

        plan = faults.FaultPlan(
            name="attach-flake",
            seed=5,
            rules=(
                faults.FaultRule(
                    site="shard.shm", kind="crash",
                    match={"op": "attach"}, max_fires=1,
                ),
            ),
        )
        graph = gnp_graph(300, 0.05, seed=4)
        with faults.suppressed():
            reference = ShardedColoring(graph, shard_cfg(seed=6), workers=2).run()
        faults.arm(plan)
        try:
            recovered = ShardedColoring(graph, shard_cfg(seed=6), workers=2).run()
        finally:
            faults.disarm()
        assert np.array_equal(recovered.colors, reference.colors)
        assert leaked_segments() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    @pytest.mark.parametrize("sig", ["SIGTERM", "SIGKILL"])
    def test_killed_driver_leaves_no_arena_or_worker(self, tmp_path, sig):
        """A driver stopped by SIGTERM (what ``timeout``, systemd and
        container stops send) unlinks its arena and stops its workers on
        the way out, without waiting for their tasks.  A driver killed by
        SIGKILL runs no cleanup at all; its workers still exit on their
        own once their parent is gone.  The plan hangs every worker for
        60 s, so only an active stop passes the 10 s deadline."""
        plan = tmp_path / "hang.toml"
        plan.write_text(
            'name = "hang-workers"\nseed = 1\n\n[[rule]]\n'
            'site = "shard.worker"\nkind = "hang"\nseconds = 60.0\n'
            "max_fires = 0\n"
        )
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", "chaos", "shard", "--plan",
             str(plan), "--n", "400", "--k", "2", "--workers", "2"],
            env={**os.environ},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        children: set[int] = set()
        try:
            assert _wait_until(lambda: _arena_segments(driver.pid), 60)
            assert _wait_until(lambda: len(_children_of(driver.pid)) >= 2, 30)
            time.sleep(1.0)  # let the pool finish starting its workers
            children = _children_of(driver.pid)
            driver.send_signal(getattr(signal, sig))
            deadline = time.monotonic() + 10
            driver.wait(timeout=10)
            assert _wait_until(
                lambda: not any(_alive(p) for p in children),
                deadline - time.monotonic(),
            ), f"workers outlived the driver: {sorted(children)}"
            if sig == "SIGTERM":
                assert _arena_segments(driver.pid) == []
        finally:
            if driver.poll() is None:
                driver.kill()
                driver.wait(timeout=10)
            for pid in children:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            for name in _arena_segments(driver.pid):
                os.unlink(os.path.join("/dev/shm", name))
