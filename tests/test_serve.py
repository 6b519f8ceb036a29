"""The streaming service: coalescing, snapshots, and the live daemon.

Three layers of guarantees, in test-speed order:

* **coalescing** is topology-exact: applying the merged batch leaves the
  CSR and active set byte-identical to applying the constituents one by
  one, and the coloring invariant holds either way (property test over
  random churn, including depart-then-rearrive and delete-of-merged-
  insert windows).
* **snapshot/restore ≡ never-crashed**: a restored engine replays the
  remaining batches to byte-identical colors, at every cut point.
* **the daemon**: a real subprocess behind a unix socket must produce
  the same final coloring as the in-process engine with the same seed,
  survive kill -9 + ``--restore``, reject floods with ``queue-full`` +
  ``retry_after``, and enforce hello/version rules.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from repro.config import ColoringConfig
from repro.core import matching, multitrial, sct
from repro.core.algorithm import MAX_CLEANUP_ROUNDS
from repro.decomposition import acd
from repro.dynamic import DynamicColoring
from repro.dynamic.events import UpdateBatch
from repro.graphs.families import make_churn, make_graph
from repro.serve import protocol as wire
from repro.serve.client import ServeClient
from repro.dynamic import engine as engine_module
from repro.dynamic.engine import REPAIR_MULTITRIAL_MIN
from repro.serve.coalesce import coalesce_batches
from repro.serve.server import ColoringServer
from repro.serve.snapshot import load_snapshot, restore_engine, save_snapshot
from repro.simulator.network import BroadcastNetwork
from tests.helpers import planting_repair


def random_batches(n, edges, rng, count=6, events=20):
    """Random churn with tracked topology, exercising the nasty merge
    windows: deletes of just-inserted edges, depart-then-rearrive."""
    current = {tuple(sorted(e)) for e in edges.tolist()}
    active = set(range(n))
    batches = []
    for _ in range(count):
        inactive = sorted(set(range(n)) - active)
        departures = sorted(
            rng.choice(sorted(active), size=min(3, len(active) - 2), replace=False)
            .tolist()
        )
        arrivals = sorted(
            rng.choice(inactive, size=min(2, len(inactive)), replace=False).tolist()
        ) if inactive else []
        next_active = (active - set(departures)) | set(arrivals)
        pool = sorted(next_active)
        inserts = set()
        for _ in range(events):
            u, v = rng.choice(pool, size=2, replace=False)
            key = (min(int(u), int(v)), max(int(u), int(v)))
            if key not in current:
                inserts.add(key)
        deletable = [e for e in sorted(current) if not (set(e) & set(departures))]
        deletes = [
            tuple(e) for e in rng.permutation(deletable)[: events // 4].tolist()
        ]
        batch = UpdateBatch(
            insert_edges=sorted(inserts),
            delete_edges=sorted(deletes),
            arrivals=arrivals,
            departures=departures,
        )
        batches.append(batch)
        # Track resulting topology the way the engine applies it.
        current -= {e for e in current if set(e) & set(departures)}
        current -= set(deletes)
        current |= inserts
        active = next_active
    return batches


class TestCoalesce:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_is_topology_exact(self, seed):
        rng = np.random.default_rng(seed)
        n, edges = make_graph("gnp", 120, 8.0, seed)
        cfg = ColoringConfig.practical(seed=seed)
        batches = random_batches(n, edges, rng)

        seq = DynamicColoring((n, edges), cfg)
        for batch in batches:
            seq.apply_batch(batch)

        merged_engine = DynamicColoring((n, edges), cfg)
        merged = coalesce_batches(merged_engine.net, batches)
        report = merged_engine.apply_batch(merged)

        def topo(engine):
            e = engine.net.undirected_edges()
            return sorted(map(tuple, e.tolist()))

        assert topo(merged_engine) == topo(seq)
        assert merged_engine.active.tolist() == seq.active.tolist()
        # Colors may legally differ; the invariant may not.
        assert merged_engine.is_proper() and merged_engine.is_complete()
        assert merged_engine.colors_used() <= merged_engine.net.delta + 1
        assert report.index == 0  # one engine batch for the whole window

    def test_identity_cases(self):
        n, edges = make_graph("gnp", 60, 6.0, 0)
        engine = DynamicColoring((n, edges), ColoringConfig.practical(seed=0))
        assert coalesce_batches(engine.net, []).is_empty
        one = UpdateBatch(insert_edges=[[0, 1]])
        assert coalesce_batches(engine.net, [one]) is one

    def test_delete_of_merged_insert_window(self):
        # insert (4,5) in batch 1, delete it in batch 2 → no insert survives.
        n = 10
        engine = DynamicColoring(
            (n, np.array([[0, 1]])), ColoringConfig.practical(seed=3)
        )
        merged = coalesce_batches(
            engine.net,
            [UpdateBatch(insert_edges=[[4, 5]]),
             UpdateBatch(delete_edges=[[4, 5]])],
        )
        assert [4, 5] not in merged.insert_edges.tolist()

    @pytest.mark.parametrize("seed", list(range(12)))
    def test_merge_is_traffic_exact(self, seed):
        """Property (ISSUE 10 satellite): the coalesced batch is the
        *minimal* window diff — every edge op it carries changes the
        pre-window CSR (``DeltaReport.ignored == 0``), and its
        announcement traffic equals the hand-built true-diff batch.
        The schedules deliberately hit the pre-fix failure modes:
        in-window insert→delete (used to emit a spurious delete),
        delete→reinsert (spurious insert), depart→re-arrive, and
        duplicate keys inside one op list."""
        rng = np.random.default_rng(seed)
        n, edges = make_graph("gnp", 80, 6.0, seed)
        cfg = ColoringConfig.practical(seed=seed)
        pre = {tuple(e) for e in BroadcastNetwork((n, edges)).undirected_edges().tolist()}

        some_pre = [tuple(e) for e in rng.permutation(sorted(pre))[:6].tolist()]
        fresh = []
        while len(fresh) < 6:
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (u, v) not in pre and (u, v) not in fresh:
                fresh.append((u, v))
        x = int(some_pre[0][0])  # active node with pre-window edges
        batches = [
            # duplicates inside one list + fresh inserts + pre deletes
            UpdateBatch(insert_edges=fresh[:3] + fresh[:1],
                        delete_edges=some_pre[:2] + some_pre[:1]),
            # insert→delete (fresh[0] dies in-window), delete→reinsert
            # (some_pre[0] resurrected in-window), depart x
            UpdateBatch(insert_edges=[some_pre[0]],
                        delete_edges=[fresh[0]],
                        departures=[x]),
            # x re-arrives and picks up one fresh edge; more churn
            UpdateBatch(insert_edges=fresh[3:] + [tuple(sorted((x, (x + 1) % n)))],
                        delete_edges=some_pre[2:4],
                        arrivals=[x]),
        ]

        seq = DynamicColoring((n, edges), cfg)
        for batch in batches:
            seq.apply_batch(batch)

        merged_engine = DynamicColoring((n, edges), cfg)
        merged = coalesce_batches(merged_engine.net, batches)

        # Minimality against the pre-window CSR: no op apply_delta
        # would ignore.
        ins = [tuple(e) for e in merged.insert_edges.tolist()]
        dels = [tuple(e) for e in merged.delete_edges.tolist()]
        assert len(set(ins)) == len(ins) and len(set(dels)) == len(dels)
        assert not (set(ins) & set(dels))
        for e in ins:
            assert tuple(sorted(e)) not in pre
        for e in dels:
            assert tuple(sorted(e)) in pre

        # Spy on apply_delta to read the DeltaReport the engine consumes.
        deltas = []
        orig = merged_engine.net.apply_delta

        def spy(*a, **kw):
            rep = orig(*a, **kw)
            deltas.append(rep)
            return rep

        merged_engine.net.apply_delta = spy
        merged_engine.apply_batch(merged)
        assert sum(r.ignored for r in deltas) == 0

        def topo(engine):
            return sorted(map(tuple, engine.net.undirected_edges().tolist()))

        assert topo(merged_engine) == topo(seq)
        assert merged_engine.active.tolist() == seq.active.tolist()

        # Traffic equality with the hand-built true diff: inserts are
        # after−before, deletes are before−after minus departure-incident
        # ones (the engine's own expansion regenerates those, silently).
        after = set(topo(seq))
        dep = set(merged.departures.tolist())
        true_ins = sorted(after - pre)
        true_del = sorted(e for e in pre - after if not (set(e) & dep))
        ref = DynamicColoring((n, edges), cfg)
        ref.apply_batch(UpdateBatch(
            insert_edges=true_ins, delete_edges=true_del,
            arrivals=merged.arrivals.tolist(),
            departures=merged.departures.tolist(),
        ))
        got = merged_engine.net.metrics.phases["dynamic/delta"]
        want = ref.net.metrics.phases["dynamic/delta"]
        assert got.as_dict() == want.as_dict()

    def test_departure_expands_window_local_edges(self):
        # Edge (4,5) exists only inside the window; 4 then departs.  The
        # replay expands the departure against the window-local edge, and
        # CSR cancellation then drops the delete: the engine's CSR never
        # held (4,5), so an explicit delete would be pure announcement
        # noise (apply_delta would ignore it after charging traffic).
        n = 10
        engine = DynamicColoring(
            (n, np.array([[0, 1]])), ColoringConfig.practical(seed=0)
        )
        merged = coalesce_batches(
            engine.net,
            [UpdateBatch(insert_edges=[[4, 5]]),
             UpdateBatch(departures=[4])],
        )
        assert [4, 5] not in merged.delete_edges.tolist()
        assert merged.departures.tolist() == [4]
        assert merged.insert_edges.size == 0


class TestSnapshot:
    def make_run(self, seed=1):
        schedule = make_churn("gnp-churn", 200, 8.0, seed, batches=6,
                              churn_fraction=0.06)
        cfg = ColoringConfig.practical(seed=seed)
        return schedule, cfg

    @pytest.mark.parametrize("cut", [0, 2, 5])
    def test_restore_equals_never_crashed(self, cut, tmp_path):
        schedule, cfg = self.make_run()
        batches = list(schedule)

        reference = DynamicColoring(schedule.initial, cfg)
        for batch in batches:
            reference.apply_batch(batch)

        engine = DynamicColoring(schedule.initial, cfg)
        for batch in batches[:cut]:
            engine.apply_batch(batch)
        path = tmp_path / "state.npz"
        info = save_snapshot(engine, path)
        assert info.batch_index == cut

        restored = restore_engine(path)
        assert restored.batch_index == cut
        assert restored.colors.tolist() == engine.colors.tolist()
        for batch in batches[cut:]:
            restored.apply_batch(batch)

        assert restored.colors.tolist() == reference.colors.tolist()
        assert restored.active.tolist() == reference.active.tolist()
        assert restored.batch_index == reference.batch_index

    def test_snapshot_metadata_and_atomicity(self, tmp_path):
        schedule, cfg = self.make_run()
        engine = DynamicColoring(schedule.initial, cfg)
        path = tmp_path / "state.npz"
        info = save_snapshot(engine, path)
        assert info.n == engine.n
        assert info.bytes == path.stat().st_size
        assert not path.with_name("state.npz.tmp").exists()
        loaded, arrays = load_snapshot(path)
        assert loaded.config == cfg
        assert arrays["colors"].tolist() == engine.colors.tolist()
        # Overwrite keeps exactly one file.
        engine.apply_batch(list(schedule)[0])
        info2 = save_snapshot(engine, path)
        assert info2.batch_index == 1

    def test_future_format_rejected(self, tmp_path):
        schedule, cfg = self.make_run()
        engine = DynamicColoring(schedule.initial, cfg)
        path = tmp_path / "state.npz"
        save_snapshot(engine, path)
        _, arrays = load_snapshot(path)
        meta = {"format": 99, "n": engine.n, "m": 0, "batch_index": 0,
                "config": {}}
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(),
                                          dtype=np.uint8), **arrays)
        with pytest.raises(ValueError, match="format"):
            load_snapshot(path)

    def test_unknown_config_field_rejected(self, tmp_path):
        import dataclasses

        schedule, cfg = self.make_run()
        engine = DynamicColoring(schedule.initial, cfg)
        path = tmp_path / "state.npz"
        save_snapshot(engine, path)
        _, arrays = load_snapshot(path)
        bad_cfg = dict(dataclasses.asdict(cfg), not_a_knob=1)
        meta = {"format": 1, "n": engine.n, "m": 0, "batch_index": 0,
                "config": bad_cfg}
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(),
                                          dtype=np.uint8), **arrays)
        with pytest.raises(ValueError, match="not_a_knob"):
            load_snapshot(path)

    @staticmethod
    def rewrite_config(path, config):
        """Swap the config stored in the snapshot at ``path``, as an
        older build would have written it."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {k: data[k] for k in ("edges", "colors", "active")}
        meta["config"] = config
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(),
                                          dtype=np.uint8), **arrays)

    def restore_with_fields(self, tmp_path, **fields):
        """Crash after the first batch with ``fields`` added to the
        snapshot's config, restore, and finish the schedule: the colors
        must equal a never-crashed run's.  Returns the snapshot path and
        the config it carries."""
        import dataclasses

        schedule, cfg = self.make_run()
        batches = list(schedule)
        reference = DynamicColoring(schedule.initial, cfg)
        for batch in batches:
            reference.apply_batch(batch)

        engine = DynamicColoring(schedule.initial, cfg)
        engine.apply_batch(batches[0])
        path = tmp_path / "state.npz"
        save_snapshot(engine, path)
        old_cfg = dict(dataclasses.asdict(cfg), **fields)
        self.rewrite_config(path, old_cfg)
        restored = restore_engine(path, fallback=False)
        assert restored.cfg == cfg
        for batch in batches[1:]:
            restored.apply_batch(batch)
        assert restored.colors.tolist() == reference.colors.tolist()
        return path, old_cfg

    def test_retired_sketch_engine_field_restores(self, tmp_path):
        """Snapshots written while the config still had the result-neutral
        ``acd_sketch_engine`` knob restore exactly; any other unknown
        field is still refused."""
        path, old_cfg = self.restore_with_fields(
            tmp_path, acd_sketch_engine="unpacked"
        )
        self.rewrite_config(path, dict(old_cfg, not_a_knob=1))
        with pytest.raises(ValueError, match="not_a_knob") as exc:
            load_snapshot(path)
        assert "acd_sketch_engine" not in str(exc.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("group_size_target", 2.0),
            ("record_trace", True),
            ("shard_repair_pool_min", 0),
            ("dynamic_shard_resketch", False),
            ("shard_reconcile_max_iters", 3),
            ("serve_retry_after_s", 0.5),
            ("obs_trace_buffer", 9),
            ("shard_worker_timeout_s", 1.5),
            ("shard_max_retries", 5),
            ("shard_retry_backoff_s", 0.1),
            ("shard_inline_fallback", False),
            ("shard_transport", "pickle"),
            ("shard_start_method", "spawn"),
            ("serve_queue_max", 4),
            ("serve_coalesce_max", 1),
            ("serve_snapshot_every", 3),
            ("serve_snapshot_keep", 5),
            ("serve_idle_timeout_s", 2.0),
            ("obs_trace", True),
            ("obs_metrics", True),
        ],
    )
    def test_retired_config_field_restores(self, tmp_path, field, value):
        """Snapshots written while the config still had a field this
        build retired restore exactly: the restored DynamicColoring reads
        none of them, so it continues as if it never crashed."""
        self.restore_with_fields(tmp_path, **{field: value})

    def test_retired_fields_are_not_config_fields(self):
        """A restore drops every retired field it finds, so none may be
        a live config field: its value would be lost silently."""
        import dataclasses

        from repro.serve.snapshot import _RETIRED_CONFIG_FIELDS

        live = {f.name for f in dataclasses.fields(ColoringConfig)}
        assert not live & _RETIRED_CONFIG_FIELDS

    @pytest.mark.parametrize(
        "field,constant,other",
        [
            ("max_cleanup_rounds", MAX_CLEANUP_ROUNDS, 5),
            ("dynamic_repair_multitrial_min", REPAIR_MULTITRIAL_MIN, 1),
            ("dynamic_repair_use_multitrial", True, False),
            ("acd_minhash_bits", acd.MINHASH_BITS, 4),
            ("acd_friend_slack", acd.FRIEND_SLACK, 2.0),
            ("acd_repair_iterations", acd.REPAIR_PASSES, 2),
            ("matching_round_factor", matching.ROUND_FACTOR, 3.0),
            ("sct_extra_trycolor_rounds", sct.EXTRA_TRYCOLOR_ROUNDS, 1),
            ("multitrial_initial", multitrial.INITIAL_TRIES, 4),
            ("multitrial_growth", multitrial.TRY_GROWTH, 1.5),
            ("multitrial_cap", multitrial.TRY_CAP, 8),
            ("multitrial_max_iters", multitrial.MAX_ITERATIONS, 12),
        ],
    )
    def test_constant_config_field_restores_only_at_its_value(
        self, tmp_path, field, constant, other
    ):
        """A snapshot written while these were config fields restores
        exactly when it holds the value that is now a constant.  Any other
        value changes what the engine computes, so the restore fails,
        naming the field."""
        path, old_cfg = self.restore_with_fields(tmp_path, **{field: constant})
        self.rewrite_config(path, dict(old_cfg, **{field: other}))
        with pytest.raises(ValueError, match=field):
            restore_engine(path, fallback=False)

    def test_removed_sampler_refused_naming_field(self, tmp_path):
        """A snapshot written with the removed "prg" sampler fails to
        load, naming the field: its color stream no longer exists, so no
        restore could continue it."""
        import dataclasses

        schedule, cfg = self.make_run()
        path = tmp_path / "state.npz"
        save_snapshot(DynamicColoring(schedule.initial, cfg), path)
        self.rewrite_config(
            path, dict(dataclasses.asdict(cfg), multitrial_sampler="prg")
        )
        with pytest.raises(ValueError, match="multitrial_sampler"):
            load_snapshot(path)


class TestReadPath:
    """``query_colors`` answers ``proper`` with the engine's last audited
    verdict, so a read costs no O(m) scan; the bits still equal a full
    scan's, also after a batch that broke the coloring."""

    def test_read_after_batch_skips_full_scan(self, tmp_path):
        schedule = make_churn("gnp-churn", 200, 8.0, 3, batches=3)
        server = ColoringServer(socket_path=str(tmp_path / "unused.sock"))
        engine = server.engine = DynamicColoring(
            schedule.initial, ColoringConfig.practical(seed=3)
        )
        batches = list(schedule)
        planted = []
        for t, batch in enumerate(batches):
            repair = (
                planting_repair(planted) if t == len(batches) - 1
                else engine_module.conflict_repair
            )
            with mock.patch.object(engine_module, "conflict_repair", repair):
                engine.apply_batch(batch)
            with mock.patch.object(
                DynamicColoring, "is_proper",
                side_effect=AssertionError("full scan on the read path"),
            ):
                reply = server._handle_query_colors(wire.QueryColors(id=t))
            assert reply.proper == engine.is_proper()
            assert reply.complete == engine.is_complete()
        assert planted and not reply.proper


class TestServerSettings:
    """The daemon's settings are ColoringServer's own arguments, checked
    where they are taken: a value the server cannot run is refused,
    naming it, instead of being clamped or acted on."""

    @pytest.mark.parametrize(
        "name,value",
        [
            ("queue_max", 0),
            ("queue_max", 2.0),
            ("queue_max", True),
            ("coalesce_max", 0),
            ("snapshot_every", -1),
            ("snapshot_keep", 0),
            ("idle_timeout_s", -1.0),
            ("idle_timeout_s", float("nan")),
            ("idle_timeout_s", float("inf")),
            ("idle_timeout_s", "5"),
        ],
    )
    def test_rejects_bad_setting(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=name):
            ColoringServer(socket_path=str(tmp_path / "s.sock"), **{name: value})
        server = ColoringServer(
            socket_path=str(tmp_path / "s.sock"), queue_max=1, coalesce_max=1,
            snapshot_every=0, snapshot_keep=1, idle_timeout_s=0,
        )
        assert server.stats()["queue_max"] == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--queue-max", "0"),
            ("--coalesce-max", "0"),
            ("--snapshot-every", "-1"),
            ("--snapshot-keep", "0"),
            ("--idle-timeout", "-1"),
            ("--idle-timeout", "nan"),
        ],
    )
    def test_serve_refuses_bad_flag_before_binding(self, tmp_path, flag, value):
        """``repro serve`` exits non-zero naming the flag, before it
        binds: ``--idle-timeout -1`` used to print its ready line and
        then close the connection on the first request."""
        from repro.cli import main

        sock = tmp_path / "s.sock"
        serving = AssertionError("repro serve started serving")
        with mock.patch("asyncio.run", side_effect=serving):
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--socket", str(sock), flag, value])
        assert isinstance(exc.value.code, str) and flag in exc.value.code
        assert not sock.exists()


# ----------------------------------------------------------------------
# Live daemon tests (subprocess behind a unix socket)
# ----------------------------------------------------------------------
def spawn_server(tmp_path, *extra):
    socket_path = str(tmp_path / "serve.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path, *extra],
        env={**os.environ},
        stderr=subprocess.PIPE,
    )
    return proc, socket_path


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.stderr.close()
    proc.wait(timeout=10)


def send_raw(client, payload: dict) -> None:
    """Send ``payload`` as one frame, bypassing the frame classes (which
    cannot build a malformed field)."""
    body = json.dumps(payload).encode() + b"\n"
    client.fp.write(struct.pack(">I", len(body)) + body)
    client.fp.flush()


class TestClientConnect:
    def test_failed_connects_leave_no_socket_open(self, tmp_path):
        """Each failed connect attempt closes its socket: the client used
        to leave one open per attempt (a ResourceWarning under
        ``python -X dev``)."""
        made = []
        real = socket.socket

        def tracking(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        with mock.patch.object(socket, "socket", tracking):
            with pytest.raises(ConnectionError, match="3 attempt"):
                ServeClient(socket_path=str(tmp_path / "none.sock"),
                            retries=3, retry_delay=0.001)
        assert len(made) == 3
        assert all(sock.fileno() == -1 for sock in made)


class TestLiveServer:
    def test_end_to_end_matches_in_process(self, tmp_path):
        seed = 2
        schedule = make_churn("mobile", 250, 8.0, seed, batches=5,
                              churn_fraction=0.2)
        n, edges = schedule.initial
        proc, sock = spawn_server(tmp_path, "--coalesce-max", "1")
        try:
            with ServeClient(socket_path=sock) as client:
                assert client.welcome.v == wire.PROTOCOL_VERSION
                loaded = client.load_graph(n, edges, seed=seed)
                assert loaded.n == n and loaded.initial == "pipeline"
                for batch in schedule:
                    report = client.update_batch(batch)
                    assert report.coalesced == 1
                    assert report.report["proper"]
                final = client.query_colors()
                stats = client.stats()
                client.shutdown()
            proc.wait(timeout=20)
            assert proc.returncode == 0
        finally:
            stop(proc)

        engine = DynamicColoring(schedule.initial,
                                 ColoringConfig.practical(seed=seed))
        for batch in schedule:
            engine.apply_batch(batch)
        assert np.array_equal(final.colors, engine.colors)
        assert final.proper and final.complete
        assert stats["batches_applied"] == schedule.num_batches
        assert stats["batch_index"] == schedule.num_batches

    def test_kill_then_restore_from_snapshot(self, tmp_path):
        seed = 4
        schedule = make_churn("gnp-churn", 200, 8.0, seed, batches=6,
                              churn_fraction=0.06)
        n, edges = schedule.initial
        batches = list(schedule)
        cut = 3
        snap = str(tmp_path / "serve.npz")

        proc, sock = spawn_server(tmp_path, "--coalesce-max", "1",
                                  "--snapshot-path", snap)
        try:
            with ServeClient(socket_path=sock) as client:
                client.load_graph(n, edges, seed=seed)
                for batch in batches[:cut]:
                    client.update_batch(batch)
                saved = client.snapshot()
                assert saved.batch_index == cut
                os.kill(proc.pid, signal.SIGKILL)  # no goodbye, no flush
            proc.wait(timeout=10)
        finally:
            stop(proc)

        proc, sock = spawn_server(tmp_path, "--coalesce-max", "1",
                                  "--restore", snap)
        try:
            with ServeClient(socket_path=sock) as client:
                stats = client.stats()
                assert stats["graph_loaded"] and stats["initial"] == "restored"
                assert stats["batch_index"] == cut
                for batch in batches[cut:]:
                    client.update_batch(batch)
                final = client.query_colors()
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)

        reference = DynamicColoring(schedule.initial,
                                    ColoringConfig.practical(seed=seed))
        for batch in batches:
            reference.apply_batch(batch)
        assert np.array_equal(final.colors, reference.colors)

    def test_backpressure_queue_full_with_retry_after(self, tmp_path):
        seed = 5
        n, edges = make_graph("gnp", 400, 12.0, seed)
        rng = np.random.default_rng(seed)
        proc, sock = spawn_server(tmp_path, "--queue-max", "2",
                                  "--coalesce-max", "1")
        try:
            with ServeClient(socket_path=sock) as client:
                client.load_graph(n, edges, seed=seed)
                batches = random_batches(n, edges, rng, count=60, events=30)
                ids = [client.submit_batch(b) for b in batches]  # flood
                rejected, reported = [], set()
                deadline = time.monotonic() + 60
                while len(rejected) + len(reported) < len(ids):
                    assert time.monotonic() < deadline, "flood never resolved"
                    frame = client.recv()
                    assert frame is not None
                    if isinstance(frame, wire.ErrorFrame):
                        assert frame.code == "queue-full"
                        assert frame.retry_after and frame.retry_after > 0
                        rejected.append(frame.id)
                    else:
                        assert isinstance(frame, wire.BatchReportFrame)
                        reported |= set(frame.ids)
                assert rejected, "queue never overflowed — no backpressure seen"
                # Accepted work still finished properly under the flood.
                final = client.query_colors()
                assert final.proper and final.complete
                stats = client.stats()
                assert stats["rejected_batches"] == len(rejected)
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)

    def test_hello_rules_and_errors(self, tmp_path):
        proc, sock = spawn_server(tmp_path)
        try:
            # No hello → everything but hello is rejected.
            client = ServeClient(socket_path=sock)
            client.send(wire.StatsRequest(id=1))
            reply = client.recv()
            assert isinstance(reply, wire.ErrorFrame)
            assert reply.code == "hello-required"
            client.close()

            # Unknown version, or version 1's unpacked lists → bad-version.
            for versions in ([999], [1]):
                client = ServeClient(socket_path=sock)
                client.send(wire.Hello(id=1, versions=versions))
                reply = client.recv()
                assert isinstance(reply, wire.ErrorFrame)
                assert reply.code == "bad-version"
                client.close()

            with ServeClient(socket_path=sock) as client:
                # Queries before load_graph → no-graph.
                with pytest.raises(wire.ProtocolError) as err:
                    client.query_colors()
                assert err.value.code == "no-graph"
                # Malformed payload survives the connection.
                client.send(wire.LoadGraph(id=9, n=4, edges=[[0, 9]]))
                reply = client.recv()
                assert isinstance(reply, wire.ErrorFrame)
                assert reply.code == "bad-payload" and reply.id == 9
                # Connection still usable afterwards.
                loaded = client.load_graph(4, [[0, 1], [2, 3]], seed=1)
                assert loaded.m == 2
                # Regression (ISSUE 10 satellite): a self-loop in a raw
                # update_batch frame must map to bad-payload at admission
                # (UpdateBatch construction), not slip through the
                # single-batch coalesce fast path into apply_delta.
                client.send(wire.UpdateBatchFrame(id=11, insert_edges=[[2, 2]]))
                reply = client.recv()
                assert isinstance(reply, wire.ErrorFrame)
                assert reply.code == "bad-payload" and reply.id == 11
                assert "self-loop" in reply.message
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)

    def test_wire_edge_refuses_out_of_range_input(self, tmp_path):
        """Regression: an id outside int64 decoded, then overflowed the
        daemon's int64 arrays and came back ``internal``; an integer
        literal past the interpreter's int-string limit escaped the
        decoder and dropped the session without an error frame.  A packed
        field cannot hold such an id, so what reaches it is a version-1
        list or a corrupt string: each is ``bad-payload`` echoing the
        request's id, as is a scalar id outside int64, the literal is
        ``bad-frame``, and the daemon keeps serving."""
        proc, sock = spawn_server(tmp_path)
        try:
            with ServeClient(socket_path=sock) as client:
                client.load_graph(4, [[0, 1], [2, 3]], seed=1)
                huge = 2**70
                for payload in (
                    {"type": "load_graph", "id": 30, "n": 4, "edges": [[0, huge]]},
                    {"type": "update_batch", "id": 31, "insert_edges": [[0, 1]]},
                    {"type": "update_batch", "id": 32, "arrivals": "AAAA!AAAAAA="},
                    {"type": "query_colors", "id": 33, "nodes": "AAAAAAAAAA=="},
                    {"type": "query_palette", "id": 34, "node": huge},
                ):
                    send_raw(client, payload)
                    reply = client.recv()
                    assert isinstance(reply, wire.ErrorFrame)
                    assert (reply.code, reply.id) == ("bad-payload", payload["id"])
                assert client.query_colors().complete
                body = b'{"type": "stats", "id": ' + b"9" * 5000 + b"}\n"
                client.fp.write(struct.pack(">I", len(body)) + body)
                client.fp.flush()
                reply = client.recv()
                assert isinstance(reply, wire.ErrorFrame)
                assert reply.code == "bad-frame"
                assert client.recv() is None  # framing lost: the server hangs up
            with ServeClient(socket_path=sock) as client:
                assert client.stats()["n"] == 4
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)

    def test_load_graph_refuses_n_beyond_key_range(self, tmp_path):
        """Regression: a load_graph with n = 2⁴⁰ decoded (an int64) and
        came back ``internal`` from a failed O(n) allocation.  An n above
        MAX_NODES, whose pair keys u·n + v would overflow int64, is
        ``bad-payload`` naming ``n`` and echoing the request's id, and the
        engine loaded before it keeps serving."""
        proc, sock = spawn_server(tmp_path)
        try:
            with ServeClient(socket_path=sock) as client:
                client.load_graph(4, [[0, 1], [2, 3]], seed=1)
                before = client.query_colors()
                client.send(wire.LoadGraph(id=40, n=2**40, edges=[[0, 1]]))
                reply = client.recv()
                assert isinstance(reply, wire.ErrorFrame)
                assert (reply.code, reply.id) == ("bad-payload", 40)
                assert "n must be at most" in reply.message
                assert client.stats()["n"] == 4
                assert np.array_equal(client.query_colors().colors, before.colors)
                report = client.update_batch(UpdateBatch(insert_edges=[(1, 2)]))
                assert report.report["proper"]
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)

    def test_invalid_sketch_config_keeps_engine(self, tmp_path):
        """A load_graph whose config overrides ColoringConfig refuses
        (a value out of its field's range or not of its field's type),
        or that names a key which is no field (such as the removed
        ``backend``, or a daemon, supervisor or telemetry setting, which
        the constructor that reads it takes) is a bad-payload error
        naming it, not an internal one, and the engine loaded before it
        keeps serving."""
        seed = 3
        n, edges = make_graph("gnp", 150, 8.0, seed)
        proc, sock = spawn_server(tmp_path, "--coalesce-max", "1")
        try:
            with ServeClient(socket_path=sock) as client:
                loaded = client.load_graph(n, edges, seed=seed)
                before = client.query_colors()
                bad = [("acd_minhash_samples", 0), ("acd_minhash_samples", -1),
                       ("acd_minhash_bits", 17), ("eps", 0), ("eps", 1.5),
                       ("compress_try_colors", -4), ("compress_try_repeats", 0),
                       ("conflict_victim", "bogus"), ("multitrial_sampler", "prg"),
                       ("multitrial_cap", 0), ("multitrial_initial", 0),
                       ("multitrial_growth", 0.5), ("multitrial_max_iters", -1),
                       ("group_size_target", 2.0), ("record_trace", True),
                       ("shard_repair_pool_min", 0),
                       ("dynamic_shard_resketch", False),
                       ("shard_k", 0), ("shard_strategy", "bogus"),
                       ("shard_transport", "carrier-pigeon"),
                       ("shard_start_method", "bogus"),
                       ("backend", "sharded"),
                       ("shard_reconcile_max_iters", 3),
                       ("serve_retry_after_s", 0.5),
                       ("obs_trace_buffer", 5),
                       ("max_cleanup_rounds", MAX_CLEANUP_ROUNDS),
                       ("dynamic_repair_multitrial_min", REPAIR_MULTITRIAL_MIN),
                       ("serve_queue_max", 1), ("serve_coalesce_max", 99),
                       ("obs_trace", True), ("obs_metrics", True),
                       ("serve_snapshot_every", 1), ("serve_snapshot_keep", 3),
                       ("serve_idle_timeout_s", 1.0),
                       ("shard_worker_timeout_s", 1.0), ("shard_max_retries", 5),
                       ("shard_retry_backoff_s", 0.1),
                       ("shard_inline_fallback", False),
                       ("seed", "x"), ("seed", 1.5), ("seed", True),
                       ("shard_k", 2**70), ("bandwidth_factor", "big"),
                       ("enable_matching", "no"),
                       ("bandwidth_factor", float("inf")),
                       ("slack_probability", float("nan"))]
                for request_id, (field, value) in enumerate(bad, start=20):
                    client.send(wire.LoadGraph(
                        id=request_id, n=4, edges=[[0, 1]], config={field: value}
                    ))
                    reply = client.recv()
                    assert isinstance(reply, wire.ErrorFrame)
                    assert reply.code == "bad-payload" and reply.id == request_id
                    assert field in reply.message
                stats = client.stats()
                assert stats["graph_loaded"] and stats["n"] == loaded.n
                assert np.array_equal(client.query_colors().colors, before.colors)
                present = {tuple(sorted(e)) for e in edges.tolist()}
                new_edge = next(
                    (u, v) for u in range(n) for v in range(u + 1, n)
                    if (u, v) not in present
                )
                report = client.update_batch(UpdateBatch(insert_edges=[new_edge]))
                assert report.report["proper"]
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)

    def test_sharded_initial_and_palette(self, tmp_path):
        seed = 6
        n, edges = make_graph("gnp", 300, 10.0, seed)
        proc, sock = spawn_server(tmp_path)
        try:
            with ServeClient(socket_path=sock) as client:
                loaded = client.load_graph(
                    n, edges, seed=seed, initial="sharded", shard_k=3
                )
                assert loaded.initial == "sharded"
                assert loaded.colors_used <= loaded.delta + 1
                colors = client.query_colors()
                assert colors.proper and colors.complete
                pal = client.query_palette(0)
                assert pal.num_colors == loaded.delta + 1
                # free = not held by any neighbor, so in a proper coloring
                # the node's own color is always free.
                assert pal.color in pal.free
                subset = client.query_colors(nodes=[0])
                assert subset.colors.tolist() == [pal.color]
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)
