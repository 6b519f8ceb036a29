"""The fault plane and the supervision it exercises (`repro.faults`).

Four layers, in test-speed order:

* **the plan**: seeded, content-hashable, TOML-round-tripping fault
  schedules whose coins (``prob``) and caps (``max_fires``) are
  deterministic; the disarmed :func:`~repro.faults.inject` hook is a
  no-op.
* **shard supervision**: crashing, hanging and repeatedly-failing shard
  workers are retried (with deterministic backoff), demoted to inline
  execution, or surfaced as :class:`~repro.shard.ShardWorkerError` — and
  every recovery converges on **byte-identical** colors.
* **snapshot hardening**: rotated generations, torn-write fallback,
  corrupt-file normalization to ``ValueError``, stale-tmp sweeping —
  plus the serve client's capped deterministic backoff and typed
  retry-exhaustion, and error-frame round-trips for every code.
* **the live daemon**: ping, idle-timeout disconnects, startup tmp
  sweep, and client reconnect across a kill -9 + ``--restore`` restart.

The chaos campaigns (`repro chaos`) tie it together: workload + armed
plan + recovery must equal the never-failed run, byte for byte.
"""

import io
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.config import ColoringConfig
from repro.dynamic import DynamicColoring
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    chaos_dynamic,
    chaos_shard,
    plan as fplan,
)
from repro.graphs.families import make_churn, make_graph
from repro.runner.runner import ParallelRunner
from repro.runner.spec import TrialResult, TrialSpec
from repro.runner.execute import run_trial
from repro.serve import protocol as wire
from repro.serve.client import RetriesExhausted, ServeClient, _backoff_delay
from repro.serve.snapshot import (
    load_snapshot,
    restore_engine,
    save_snapshot,
    snapshot_generations,
    sweep_stale_tmp,
)
from repro.shard.engine import START_METHODS, ShardedColoring, ShardWorkerError


@pytest.fixture(autouse=True)
def always_disarmed():
    """No test may leak an armed plan into the rest of the suite."""
    fplan.disarm()
    yield
    fplan.disarm()


def crash_rule(**match):
    return FaultRule(site="shard.worker", kind="crash", match=match)


# ----------------------------------------------------------------------
# Layer 1: the plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_dict_round_trip(self):
        plan = FaultPlan(
            name="p", seed=4,
            rules=(
                FaultRule(site="shard.worker", kind="hang", seconds=0.5,
                          match={"shard": 1}, prob=0.25, max_fires=3),
                FaultRule(site="serve.snapshot.write", kind="torn-write",
                          hard=True),
            ),
        )
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_toml_round_trip_and_key_stability(self, tmp_path):
        plan = FaultPlan(
            name="p", seed=9,
            rules=(crash_rule(shard=2, attempt=1),
                   FaultRule(site="runner.trial", kind="slow",
                             seconds=0.1, factor=3.0, prob=0.5)),
        )
        path = tmp_path / "plan.toml"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert loaded.key == plan.key
        # Any edit must miss: same rules, different seed.
        assert FaultPlan(name="p", seed=10, rules=plan.rules).key != plan.key

    def test_match_accepts_mapping_and_pairs(self):
        a = FaultRule(site="shard.worker", kind="crash",
                      match={"shard": 1, "attempt": 2})
        b = FaultRule(site="shard.worker", kind="crash",
                      match=(("attempt", 2), ("shard", 1)))
        assert a == b
        assert a.matches({"shard": 1, "attempt": 2, "extra": "x"})
        assert not a.matches({"shard": 1, "attempt": 3})
        assert not a.matches({"shard": 1})  # missing key ≠ wildcard

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule(site="nope", kind="crash")
        with pytest.raises(ValueError):
            FaultRule(site="shard.worker", kind="nope")
        with pytest.raises(ValueError):
            FaultRule(site="shard.worker", kind="crash", prob=1.5)

    def test_fault_injected_pickle_round_trip(self):
        """A soft crash crosses the process-pool result pipe as a pickle;
        an exception that cannot unpickle escalates into a
        BrokenProcessPool for every in-flight shard (regression)."""
        import pickle

        exc = FaultInjected("shard.worker", "crash", "boom")
        again = pickle.loads(pickle.dumps(exc))
        assert again.site == "shard.worker"
        assert again.kind == "crash"
        assert str(again) == str(exc)

    def test_disarmed_inject_is_none(self):
        assert fplan.armed_plan() is None
        assert fplan.inject("shard.worker", shard=0, attempt=1) is None
        assert fplan.fault_events() == []

    def test_soft_crash_raises_and_logs(self):
        plan = FaultPlan(name="p", rules=(crash_rule(shard=1),))
        fplan.arm(plan)
        assert fplan.inject("shard.worker", shard=0, attempt=1) is None
        with pytest.raises(FaultInjected) as err:
            fplan.inject("shard.worker", shard=1, attempt=1)
        assert err.value.site == "shard.worker"
        assert err.value.kind == "crash"
        events = fplan.fault_events()
        assert len(events) == 1
        assert events[0]["context"] == {"shard": 1, "attempt": 1}

    def test_max_fires_caps(self):
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="runner.trial", kind="torn-write",
                             max_fires=2),),
        )
        fplan.arm(plan)
        fired = sum(
            fplan.inject("runner.trial", algorithm="x", seed=i) is not None
            for i in range(10)
        )
        assert fired == 2

    def test_prob_is_deterministic_thinning(self):
        plan = FaultPlan(
            name="p", seed=21,
            rules=(FaultRule(site="runner.trial", kind="torn-write",
                             prob=0.5, max_fires=0),),
        )

        def campaign():
            fplan.arm(plan)
            hits = [
                fplan.inject("runner.trial", seed=i) is not None
                for i in range(200)
            ]
            fplan.disarm()
            return hits

        first, second = campaign(), campaign()
        assert first == second  # same seed → same coins
        assert 40 < sum(first) < 160  # actually thinning, not constant

    def test_suppressed_restores(self):
        plan = FaultPlan(name="p", rules=(crash_rule(),))
        fplan.arm(plan)
        with fplan.suppressed():
            assert fplan.inject("shard.worker", shard=0, attempt=1) is None
        with pytest.raises(FaultInjected):
            fplan.inject("shard.worker", shard=0, attempt=1)

    def test_hang_and_slow_sleep(self):
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="serve.connection", kind="hang",
                             seconds=0.05, max_fires=1),
                   FaultRule(site="serve.connection", kind="slow",
                             seconds=0.02, factor=2.0, max_fires=1)),
        )
        fplan.arm(plan)
        t0 = time.perf_counter()
        fault = fplan.inject("serve.connection", session=1)
        assert fault is not None and fault.kind == "hang"
        fault = fplan.inject("serve.connection", session=1)
        assert fault is not None and fault.kind == "slow"
        assert time.perf_counter() - t0 >= 0.05 + 0.04


# ----------------------------------------------------------------------
# Layer 2: shard supervision
# ----------------------------------------------------------------------
def shard_setup(seed=5, n=600, retries=2, **settings):
    """A geometric graph, its config and supervisor settings, and the
    fault-free reference run."""
    cfg = ColoringConfig.practical(seed=seed, shard_k=4)
    settings = dict(retry_backoff_s=0.01, max_retries=retries, **settings)
    graph = make_graph("geometric", n, 10.0, seed)
    with fplan.suppressed():
        reference = ShardedColoring(graph, cfg, workers=1, **settings).run()
    return graph, cfg, settings, reference


class TestShardSupervision:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_soft_crash_retry_is_byte_identical(self, workers):
        graph, cfg, settings, reference = shard_setup()
        plan = FaultPlan(name="p", rules=(crash_rule(shard=1, attempt=1),))
        fplan.arm(plan)
        try:
            res = ShardedColoring(graph, cfg, workers=workers, **settings).run()
        finally:
            fplan.disarm()
        assert res.faults["worker_crashes"] >= 1
        assert res.faults["retries"] >= 1
        assert res.faults["inline_fallbacks"] == 0
        np.testing.assert_array_equal(res.colors, reference.colors)
        assert res.proper and res.complete

    @pytest.mark.parametrize("workers", [1, 2])
    def test_persistent_crash_degrades_inline(self, workers):
        graph, cfg, settings, reference = shard_setup(retries=1)
        # max_fires=0: crash shard 1 on *every* attempt.
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="shard.worker", kind="crash",
                             match={"shard": 1}, max_fires=0),),
        )
        fplan.arm(plan)
        try:
            res = ShardedColoring(graph, cfg, workers=workers, **settings).run()
        finally:
            fplan.disarm()
        assert res.faults["inline_fallbacks"] == 1
        np.testing.assert_array_equal(res.colors, reference.colors)

    def test_fallback_disabled_raises_worker_error(self):
        graph, cfg, settings, _ = shard_setup(retries=1, inline_fallback=False)
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="shard.worker", kind="crash",
                             match={"shard": 1}, max_fires=0),),
        )
        fplan.arm(plan)
        try:
            with pytest.raises(ShardWorkerError) as err:
                ShardedColoring(graph, cfg, workers=1, **settings).run()
        finally:
            fplan.disarm()
        assert err.value.shard == 1
        assert err.value.attempts == 2  # 1 + max_retries

    def test_hard_crash_breaks_pool_and_recovers(self):
        """A hard crash (`os._exit`) kills a real pool worker: the
        supervisor must survive BrokenProcessPool, rebuild the pool and
        still converge byte-identically (satellite: BrokenProcessPool
        propagation)."""
        graph, cfg, settings, reference = shard_setup()
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="shard.worker", kind="crash", hard=True,
                             match={"shard": 2, "attempt": 1}),),
        )
        fplan.arm(plan)
        try:
            res = ShardedColoring(graph, cfg, workers=2, **settings).run()
        finally:
            fplan.disarm()
        assert res.faults["worker_crashes"] >= 1
        np.testing.assert_array_equal(res.colors, reference.colors)

    def test_hung_worker_times_out_and_recovers(self):
        graph, cfg, settings, reference = shard_setup(worker_timeout_s=0.3)
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="shard.worker", kind="hang", seconds=5.0,
                             match={"shard": 0, "attempt": 1}),),
        )
        fplan.arm(plan)
        t0 = time.perf_counter()
        try:
            res = ShardedColoring(graph, cfg, workers=2, **settings).run()
        finally:
            fplan.disarm()
        assert time.perf_counter() - t0 < 5.0  # did not wait out the hang
        assert res.faults["worker_timeouts"] >= 1
        np.testing.assert_array_equal(res.colors, reference.colors)

    def test_fault_account_rides_result_dict(self):
        graph, cfg, settings, _ = shard_setup()
        plan = FaultPlan(name="p", rules=(crash_rule(shard=1, attempt=1),))
        fplan.arm(plan)
        try:
            res = ShardedColoring(graph, cfg, workers=1, **settings).run()
        finally:
            fplan.disarm()
        d = res.as_dict()
        assert d["faults"]["retries"] >= 1
        assert d["faults"]["time_lost_s"] >= 0.0

    @pytest.mark.parametrize(
        "case,workers,setup,rule,key",
        [
            ("crash", 1, {}, crash_rule(shard=1, attempt=1), "worker_crashes"),
            (
                "timeout", 2, {"worker_timeout_s": 0.3},
                FaultRule(site="shard.worker", kind="hang", seconds=5.0,
                          match={"shard": 0, "attempt": 1}),
                "worker_timeouts",
            ),
            (
                "fallback", 1, {"retries": 1},
                FaultRule(site="shard.worker", kind="crash",
                          match={"shard": 1}, max_fires=0),
                "inline_fallbacks",
            ),
        ],
        ids=["crash", "timeout", "fallback"],
    )
    def test_fault_account_is_the_metrics_delta(self, case, workers, setup, rule, key):
        """The supervisor counts each event once, straight into the run's
        ShardedResult.faults under the same five keys, and as the
        ``repro_fault_events_total{kind}`` counter: the account is the
        run's delta of that counter.  It also matches what the armed plan
        fired: every crash the plan fired in this process (an inline run)
        is one worker crash, and every failed attempt is either one retry
        or one inline fallback."""
        graph, cfg, settings, _ = shard_setup(**setup)
        kinds = {
            "retries": "retry",
            "worker_crashes": "worker_crash",
            "worker_timeouts": "worker_timeout",
            "inline_fallbacks": "inline_fallback",
        }
        state = obs.enable(tracing=False, metrics=True)

        def counted(kind):
            return state.registry.counter("repro_fault_events_total", kind=kind).value

        try:
            obs.count("repro_fault_events_total", kind="retry")  # before the run
            before = {name: counted(kind) for name, kind in kinds.items()}
            fplan.arm(FaultPlan(name=case, rules=(rule,)))
            try:
                res = ShardedColoring(graph, cfg, workers=workers, **settings).run()
                fired = fplan.fault_events()
            finally:
                fplan.disarm()
            delta = {name: counted(kind) - before[name] for name, kind in kinds.items()}
        finally:
            obs.disable()
        assert list(res.faults) == [*kinds, "time_lost_s"]
        assert {name: res.faults[name] for name in kinds} == delta
        failed = res.faults["worker_crashes"] + res.faults["worker_timeouts"]
        assert res.faults["retries"] + res.faults["inline_fallbacks"] == failed
        if workers == 1:
            crashes = [e for e in fired if e["kind"] == "crash"]
            assert res.faults["worker_crashes"] == len(crashes) >= 1
        assert res.faults[key] >= 1
        assert res.faults["time_lost_s"] >= 0.0

    @pytest.mark.parametrize(
        "name,value",
        [
            ("start_method", "bogus"),
            ("start_method", None),
            ("worker_timeout_s", -1.0),
            ("worker_timeout_s", float("nan")),
            ("worker_timeout_s", float("inf")),
            ("worker_timeout_s", "1"),
            ("max_retries", -1),
            ("max_retries", 1.5),
            ("max_retries", True),
            ("retry_backoff_s", -0.05),
            ("retry_backoff_s", float("inf")),
            ("inline_fallback", 1),
            ("inline_fallback", "yes"),
            ("workers", 0),
            ("workers", -3),
            ("workers", True),
            ("workers", 2.7),
        ],
    )
    def test_rejects_bad_setting(self, name, value):
        """ShardedColoring checks each supervisor setting it takes,
        naming it, before any run: a negative deadline would time out
        every shard of a fault-free pooled run, and a negative retry
        count or back-off used to be clamped silently, as 0, −3 and True
        workers ran inline and 2.7 was truncated to 2.  The edges of the
        valid ranges still build."""
        with pytest.raises(ValueError, match=name):
            ShardedColoring((4, [(0, 1)]), **{"workers": 2, name: value})
        for method in START_METHODS:
            ShardedColoring(
                (4, [(0, 1)]), start_method=method, worker_timeout_s=0,
                max_retries=0, retry_backoff_s=0, inline_fallback=False,
            )


# ----------------------------------------------------------------------
# Layer 3a: snapshot hardening
# ----------------------------------------------------------------------
def churn_engine(seed=3, n=200, batches=6):
    cfg = ColoringConfig.practical(seed=seed)
    schedule = make_churn("gnp-churn", n, 6.0, seed, batches=batches,
                          churn_fraction=0.1)
    return DynamicColoring(schedule.initial, cfg), list(schedule)


class TestSnapshotHardening:
    def test_rotation_keeps_generations(self, tmp_path):
        engine, batches = churn_engine()
        snap = tmp_path / "s.npz"
        for batch in batches[:4]:
            engine.apply_batch(batch)
            save_snapshot(engine, snap, keep=3)
        gens = snapshot_generations(snap)
        assert [p.name for p in gens] == ["s.npz", "s.npz.1", "s.npz.2"]
        indices = [load_snapshot(p)[0].batch_index for p in gens]
        assert indices == [4, 3, 2]  # newest first

    def test_keep_one_rotates_nothing(self, tmp_path):
        engine, batches = churn_engine()
        snap = tmp_path / "s.npz"
        for batch in batches[:3]:
            engine.apply_batch(batch)
            save_snapshot(engine, snap, keep=1)
        assert snapshot_generations(snap) == [snap]

    def test_truncated_npz_is_value_error(self, tmp_path):
        engine, _ = churn_engine()
        snap = tmp_path / "s.npz"
        save_snapshot(engine, snap)
        payload = snap.read_bytes()
        snap.write_bytes(payload[: len(payload) // 3])
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            load_snapshot(snap)

    def test_garbage_bytes_is_value_error(self, tmp_path):
        snap = tmp_path / "s.npz"
        snap.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ValueError):
            load_snapshot(snap)
        # Missing file stays FileNotFoundError (a different operator story).
        with pytest.raises(FileNotFoundError):
            load_snapshot(tmp_path / "missing.npz")

    def test_restore_falls_back_a_generation(self, tmp_path):
        engine, batches = churn_engine()
        snap = tmp_path / "s.npz"
        for batch in batches[:3]:
            engine.apply_batch(batch)
            save_snapshot(engine, snap, keep=2)
        # Corrupt the current generation; .1 (batch_index=2) survives.
        snap.write_bytes(snap.read_bytes()[:100])
        restored = restore_engine(snap)
        assert restored.batch_index == 2
        # Replaying the missing suffix reproduces the exact colors.
        for batch in batches[2:3]:
            restored.apply_batch(batch)
        np.testing.assert_array_equal(restored.colors, engine.colors)

    def test_restore_all_bad_reraises_first_error(self, tmp_path):
        engine, batches = churn_engine()
        snap = tmp_path / "s.npz"
        for batch in batches[:2]:
            engine.apply_batch(batch)
            save_snapshot(engine, snap, keep=2)
        snap.write_bytes(b"junk-current")
        (tmp_path / "s.npz.1").write_bytes(b"junk-previous")
        with pytest.raises(ValueError, match=r"s\.npz "):
            restore_engine(snap)

    def test_restore_no_fallback_uses_only_current(self, tmp_path):
        engine, batches = churn_engine()
        snap = tmp_path / "s.npz"
        for batch in batches[:2]:
            engine.apply_batch(batch)
            save_snapshot(engine, snap, keep=2)
        snap.write_bytes(b"junk")
        with pytest.raises(ValueError):
            restore_engine(snap, fallback=False)

    def test_torn_write_fault_promotes_and_falls_back(self, tmp_path):
        engine, batches = churn_engine()
        snap = tmp_path / "s.npz"
        engine.apply_batch(batches[0])
        save_snapshot(engine, snap, keep=2)
        engine.apply_batch(batches[1])
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="serve.snapshot.write", kind="torn-write",
                             match={"batch_index": 2}),),
        )
        fplan.arm(plan)
        try:
            with pytest.raises(FaultInjected):
                save_snapshot(engine, snap, keep=2)
        finally:
            fplan.disarm()
        # Current generation is torn bytes; restore falls back to gen 1.
        with pytest.raises(ValueError):
            load_snapshot(snap)
        assert restore_engine(snap).batch_index == 1

    def test_sweep_stale_tmp(self, tmp_path):
        snap = tmp_path / "s.npz"
        engine, _ = churn_engine()
        save_snapshot(engine, snap)
        stale = [tmp_path / "s.npz.tmp", tmp_path / "s.npz.1.tmp"]
        for p in stale:
            p.write_bytes(b"dead write")
        (tmp_path / "unrelated.tmp").write_bytes(b"not ours")
        removed = sweep_stale_tmp(snap)
        assert sorted(removed) == sorted(str(p) for p in stale)
        assert not any(p.exists() for p in stale)
        assert (tmp_path / "unrelated.tmp").exists()
        assert snap.exists()


# ----------------------------------------------------------------------
# Layer 3b: client backoff + error frames
# ----------------------------------------------------------------------
class TestClientBackoff:
    def test_delay_is_deterministic_and_jittered(self):
        a = _backoff_delay(0.05, 2.0, 3, "queue-full", 17)
        b = _backoff_delay(0.05, 2.0, 3, "queue-full", 17)
        assert a == b
        # Jitter in [0.5, 1.0) of the exponential step.
        assert 0.5 * 0.4 <= a < 0.4
        # Distinct keys decorrelate.
        assert a != _backoff_delay(0.05, 2.0, 3, "queue-full", 18)

    def test_delay_grows_then_caps(self):
        delays = [_backoff_delay(0.05, 0.4, k, "x") for k in range(12)]
        assert all(d < 0.4 for d in delays)
        # Far past the cap the un-jittered step is constant at the cap.
        assert all(0.2 <= d < 0.4 for d in delays[5:])

    def test_retries_exhausted_is_protocol_error(self):
        exc = RetriesExhausted("queue-full", "gave up", attempts=7,
                               total_wait=1.25)
        assert isinstance(exc, wire.ProtocolError)
        assert exc.code == "queue-full"
        assert exc.attempts == 7 and exc.total_wait == 1.25

    @pytest.mark.parametrize("code", wire.ERROR_CODES)
    def test_every_error_code_round_trips(self, code):
        retry = 0.5 if code == "queue-full" else None
        frame = wire.ErrorFrame(id=3, code=code, message="boom",
                                retry_after=retry)
        raw = wire.encode_frame(frame)
        decoded = wire.read_frame(io.BytesIO(raw))
        assert decoded == frame
        exc = decoded.to_exception()
        assert isinstance(exc, wire.ProtocolError)
        assert exc.code == code and exc.id == 3
        assert exc.retry_after == retry


# ----------------------------------------------------------------------
# Layer 3c: runner guard surfacing
# ----------------------------------------------------------------------
class TestRunnerGuard:
    def test_sigalrm_guard_reported_inline(self):
        spec = TrialSpec(family="gnp", n=64, avg_degree=4.0,
                         algorithm="greedy", seed=0)
        res = run_trial(spec, timeout_s=30.0)
        assert res.ok and res.guard == "sigalrm"
        assert run_trial(spec).guard == "none"  # no budget → no guard

    def test_guard_survives_record_round_trip(self):
        spec = TrialSpec(family="gnp", n=64, avg_degree=4.0,
                         algorithm="greedy", seed=0)
        res = run_trial(spec, timeout_s=30.0)
        again = TrialResult.from_record(res.record())
        assert again.guard == "sigalrm"
        # Legacy records (no guard key) default to "none".
        rec = res.record()
        del rec["guard"]
        assert TrialResult.from_record(rec).guard == "none"

    def test_pool_wallclock_backstop_catches_hung_trial(self):
        """A trial hanging *before* the SIGALRM guard arms (the
        `runner.trial` site fires first) must be abandoned by the pool
        driver's wall-clock deadline, not wedge the run (the satellite
        fix: the old guard was a silent no-op off the main thread)."""
        hang_seed = 424242
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(site="runner.trial", kind="hang", seconds=8.0,
                             match={"seed": hang_seed}),),
        )
        specs = [
            TrialSpec(family="gnp", n=64, avg_degree=4.0,
                      algorithm="greedy", seed=hang_seed),
            TrialSpec(family="gnp", n=64, avg_degree=4.0,
                      algorithm="greedy", seed=1),
        ]
        # Linux forks pool workers, so arming in the parent arms them.
        fplan.arm(plan)
        t0 = time.perf_counter()
        try:
            report = ParallelRunner(workers=2, timeout_s=0.5).run(specs)
        finally:
            fplan.disarm()
        by_seed = {r.spec.seed: r for r in report.results}
        hung = by_seed[hang_seed]
        assert hung.status == "timeout" and hung.guard == "wallclock"
        assert "abandoned" in hung.error
        assert by_seed[1].ok
        # Abandonment happened at the ~1.75s grace, long before the 8s
        # hang (pool teardown then waits for the worker to die off).
        assert hung.elapsed_s < 4.0


# ----------------------------------------------------------------------
# Layer 4: the live daemon
# ----------------------------------------------------------------------
def spawn_server(tmp_path, *extra):
    socket_path = str(tmp_path / "serve.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         *extra],
        env={**os.environ},
        stderr=subprocess.PIPE,
    )
    return proc, socket_path


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.stderr.close()
    proc.wait(timeout=10)


class TestLiveDaemon:
    def test_ping(self, tmp_path):
        proc, sock = spawn_server(tmp_path)
        try:
            with ServeClient(socket_path=sock) as client:
                pong = client.ping()
                assert pong.TYPE == "pong"
                client.shutdown()
            proc.wait(timeout=20)
            assert proc.returncode == 0
        finally:
            stop(proc)

    def test_idle_timeout_disconnects_session(self, tmp_path):
        proc, sock = spawn_server(tmp_path, "--idle-timeout", "0.3")
        try:
            with ServeClient(socket_path=sock) as client:
                client.ping()  # activity refreshes the window
                time.sleep(1.0)  # exceed the idle budget
                with pytest.raises((ConnectionError, OSError,
                                    wire.ProtocolError)):
                    client.stats()
            # The daemon itself is still alive and accepts new sessions.
            with ServeClient(socket_path=sock) as client:
                assert client.stats()["idle_disconnects"] >= 1
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)

    def test_startup_sweeps_stale_tmp(self, tmp_path):
        snap = tmp_path / "serve.npz"
        stale = tmp_path / "serve.npz.tmp"
        stale.write_bytes(b"dead write")
        proc, sock = spawn_server(tmp_path, "--snapshot-path", str(snap))
        try:
            with ServeClient(socket_path=sock) as client:
                client.shutdown()
            proc.wait(timeout=20)
            assert not stale.exists()
            stderr = proc.stderr.read().decode()
            assert "swept 1 stale snapshot tmp file" in stderr
        finally:
            stop(proc)

    def test_client_reconnects_after_daemon_restart(self, tmp_path):
        seed = 6
        schedule = make_churn("gnp-churn", 200, 6.0, seed, batches=6,
                              churn_fraction=0.1)
        n, edges = schedule.initial
        batches = list(schedule)
        reference = DynamicColoring(schedule.initial,
                                    ColoringConfig.practical(seed=seed))
        for batch in batches:
            reference.apply_batch(batch)

        snap = tmp_path / "serve.npz"
        proc, sock = spawn_server(
            tmp_path, "--coalesce-max", "1", "--seed", str(seed),
            "--snapshot-path", str(snap), "--snapshot-every", "1",
        )
        try:
            with ServeClient(socket_path=sock) as client:
                client.load_graph(n, edges, seed=seed)
                for batch in batches[:3]:
                    client.update_batch(batch)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            stop(proc)

        proc, sock = spawn_server(
            tmp_path, "--coalesce-max", "1", "--seed", str(seed),
            "--restore", str(snap),
        )
        try:
            # connect() retries with backoff while the daemon boots.
            with ServeClient(socket_path=sock) as client:
                resumed = int(client.stats()["batch_index"])
                for batch in batches[resumed:]:
                    client.update_batch(batch)
                final = client.query_colors()
                client.shutdown()
            proc.wait(timeout=20)
        finally:
            stop(proc)
        assert np.array_equal(final.colors, reference.colors)


# ----------------------------------------------------------------------
# The chaos campaigns (the oracle the CI smoke job gates on)
# ----------------------------------------------------------------------
class TestChaosCampaigns:
    def test_shard_campaign(self):
        plan = FaultPlan(
            name="crash-and-burn", seed=7,
            rules=(crash_rule(shard=1, attempt=1),
                   FaultRule(site="shard.worker", kind="crash", hard=True,
                             match={"shard": 2, "attempt": 1})),
        )
        report = chaos_shard(plan, n=600, workers=2)
        assert report["oracle_ok"], report
        assert report["colors_equal"]
        assert report["faults"]["worker_crashes"] >= 2

    def test_dynamic_campaign(self):
        plan = FaultPlan(
            name="torn-twice", seed=13,
            rules=(FaultRule(site="serve.snapshot.write", kind="torn-write",
                             match={"batch_index": 2}, max_fires=1),
                   FaultRule(site="serve.snapshot.write", kind="torn-write",
                             match={"batch_index": 4}, max_fires=1)),
        )
        report = chaos_dynamic(plan, n=300, batches=6)
        assert report["oracle_ok"], report
        assert report["restores"] == 2
        assert report["snapshot_faults"] == 2

    def test_serve_campaign_survives_hard_kill(self):
        from repro.faults import chaos_serve

        plan = FaultPlan(
            name="kill-mid-snapshot", seed=11,
            rules=(FaultRule(site="serve.snapshot.write", kind="torn-write",
                             hard=True, match={"batch_index": 2},
                             max_fires=1),),
        )
        report = chaos_serve(plan, n=200, batches=5)
        assert report["oracle_ok"], report
        assert report["daemon_crashed"]
        assert report["daemon_exit_code"] == fplan._EXIT_CODE
        assert report["resumed_from_batch"] is not None
