"""Chaos campaigns: real workloads under a fault plan, checked against
the byte-equality oracle (``repro chaos``).

Every engine in this repo is a pure function of ``(graph, config,
seed)`` — that is the determinism contract the whole test suite leans
on.  The chaos harness turns it into a *recovery* oracle: run a workload
twice, once clean and once under an armed
:class:`~repro.faults.FaultPlan`, and require the post-recovery colors
to be **byte-identical** to the never-failed run (plus the standing
invariants: proper, complete, ≤ Δ+1 colors).  Any supervision bug that
loses, duplicates or re-randomizes work shows up as a diff, not a
flake.

Three campaign drivers, one per supervised subsystem:

* :func:`chaos_shard` — partitioned coloring with crashing / hanging
  shard workers (``shard.worker`` site, supervised by
  :meth:`~repro.shard.ShardedColoring._run_interiors`);
* :func:`chaos_dynamic` — churn with snapshot-per-batch persistence and
  torn snapshot writes (``serve.snapshot.write`` site), recovering via
  :func:`~repro.serve.snapshot.restore_engine`'s generation fallback;
* :func:`chaos_serve` — the live daemon as a subprocess, killed mid-
  snapshot by a *hard* fault and restarted with ``--restore``.

Each returns a JSON-safe report dict whose ``oracle_ok`` is the
pass/fail bit the CLI (and the CI ``chaos-smoke`` job) gates on.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.config import ColoringConfig
from repro.core.state import count_distinct_colors
from repro.dynamic.engine import DynamicColoring
from repro.faults import plan as faults
from repro.graphs.families import make_churn, make_graph

__all__ = ["chaos_shard", "chaos_dynamic", "chaos_serve"]


def _oracle(report: dict, chaos_colors, ref_colors, proper: bool,
            complete: bool, num_colors: int, budget: int) -> dict:
    """Fold the shared oracle checks into ``report`` and set
    ``oracle_ok``: byte-equal colors vs the fault-free reference, a
    proper and complete coloring, and ≤ Δ_t+1 colors."""
    chaos_colors = np.asarray(chaos_colors)
    ref_colors = np.asarray(ref_colors)
    colors_equal = bool(
        chaos_colors.shape == ref_colors.shape
        and (chaos_colors == ref_colors).all()
    )
    report.update(
        colors_equal=colors_equal,
        proper=bool(proper),
        complete=bool(complete),
        num_colors_used=int(num_colors),
        color_budget=int(budget),
        within_budget=bool(num_colors <= budget),
    )
    report["oracle_ok"] = bool(
        colors_equal and proper and complete and num_colors <= budget
    )
    return report


def chaos_shard(
    plan: faults.FaultPlan,
    *,
    family: str = "geometric",
    n: int = 2000,
    avg_degree: float = 12.0,
    seed: int = 7,
    k: int = 4,
    workers: int = 2,
    strategy: str = "contiguous",
) -> dict:
    """Partitioned coloring under crashing/hanging shard workers.

    The reference run executes with the plan suppressed (``workers`` is
    irrelevant to the result — sharded runs are worker-count-invariant);
    the chaos run arms ``plan`` and lets the supervisor retry, rebuild
    pools and degrade to inline execution.  The oracle then demands the
    recovered coloring be byte-identical to the clean one — and, because
    the shm transport owns kernel-named ``/dev/shm`` segments, that no
    arena survived the faults (``leaked_shm_segments`` must be empty).
    """
    from repro.shard.engine import ShardedColoring
    from repro.shard.shm import leaked_segments

    cfg = ColoringConfig.practical(
        seed=seed, shard_k=k, shard_strategy=strategy
    )
    graph = make_graph(family, n, avg_degree, seed)
    # Built first, so a bad ``workers`` is refused before the reference run.
    engine = ShardedColoring(graph, cfg, workers=workers)

    with faults.suppressed():
        reference = ShardedColoring(graph, cfg, workers=1).run()

    faults.arm(plan)
    try:
        chaos = engine.run()
        events = list(faults.fault_events())
    finally:
        faults.disarm()

    report = {
        "target": "shard",
        "plan": plan.name,
        "plan_key": plan.key,
        "family": family,
        "n": int(chaos.n),
        "k": int(chaos.k),
        "workers": int(workers),
        "seed": int(seed),
        "faults": dict(chaos.faults),
        "driver_fault_events": events,
        "unresolved_conflicts": int(chaos.unresolved_conflicts),
        "seconds_reference": round(float(reference.seconds), 6),
        "seconds_chaos": round(float(chaos.seconds), 6),
        "leaked_shm_segments": leaked_segments(),
    }
    report = _oracle(
        report,
        chaos.colors,
        reference.colors,
        chaos.proper,
        chaos.complete,
        chaos.num_colors_used,
        chaos.delta + 1,
    )
    report["oracle_ok"] = bool(
        report["oracle_ok"]
        and chaos.unresolved_conflicts == 0
        and not report["leaked_shm_segments"]
    )
    return report


def chaos_dynamic(
    plan: faults.FaultPlan,
    *,
    family: str = "gnp-churn",
    n: int = 800,
    avg_degree: float = 8.0,
    seed: int = 3,
    batches: int = 8,
    churn_fraction: float = 0.08,
    snapshot_keep: int = 2,
    workdir: str | os.PathLike | None = None,
) -> dict:
    """Churn with snapshot-per-batch persistence under torn writes.

    The chaos loop snapshots after every applied batch; when the armed
    ``serve.snapshot.write`` fault tears (or fails) a write, the engine
    is *thrown away* and rebuilt from the newest readable snapshot
    generation, then replays from that ``batch_index``.  Because the
    per-batch seed streams are pure in ``(seed, batch_index)``, replay
    converges on exactly the never-failed colors.
    """
    from repro.serve.snapshot import restore_engine, save_snapshot

    cfg = ColoringConfig.practical(seed=seed)
    schedule = make_churn(
        family, n, avg_degree, seed, batches=batches,
        churn_fraction=churn_fraction,
    )
    batch_list = list(schedule)

    reference = DynamicColoring(schedule.initial, cfg)
    with faults.suppressed():
        for batch in batch_list:
            reference.apply_batch(batch)

    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(workdir or tmp) / "chaos-dynamic.npz"
        engine = DynamicColoring(schedule.initial, cfg)
        with faults.suppressed():
            # Seed generation 0 so even a first-write tear has somewhere
            # to fall back to.
            save_snapshot(engine, snap, keep=snapshot_keep)
        restores = 0
        snapshot_faults = 0
        faults.arm(plan)
        try:
            while engine.batch_index < len(batch_list):
                try:
                    engine.apply_batch(batch_list[engine.batch_index])
                    save_snapshot(engine, snap, keep=snapshot_keep)
                except faults.FaultInjected:
                    snapshot_faults += 1
                    with faults.suppressed():
                        engine = restore_engine(snap)
                    restores += 1
            events = list(faults.fault_events())
        finally:
            faults.disarm()
        final = engine

    report = {
        "target": "dynamic",
        "plan": plan.name,
        "plan_key": plan.key,
        "family": family,
        "n": int(final.n),
        "batches": len(batch_list),
        "seed": int(seed),
        "snapshot_keep": int(snapshot_keep),
        "snapshot_faults": snapshot_faults,
        "restores": restores,
        "driver_fault_events": events,
    }
    return _oracle(
        report,
        final.colors,
        reference.colors,
        final.is_proper() and reference.is_proper(),
        final.is_complete(),
        final.colors_used(),
        int(final.net.delta) + 1,
    )


def chaos_serve(
    plan: faults.FaultPlan,
    *,
    family: str = "gnp-churn",
    n: int = 300,
    avg_degree: float = 8.0,
    seed: int = 5,
    batches: int = 8,
    churn_fraction: float = 0.08,
    workdir: str | os.PathLike | None = None,
) -> dict:
    """The live daemon under a plan, restarted from its snapshot.

    Spawns ``repro serve`` as a real subprocess with ``--fault-plan``
    and snapshot-every-batch; streams churn at it until a *hard* fault
    (e.g. torn-write ``hard=true`` — the SIGKILL-mid-snapshot
    simulation) kills the process mid-conversation.  The daemon is then
    restarted **without** the plan, ``--restore``\\ d from the surviving
    snapshot, and the unacknowledged batch suffix is resubmitted.  The
    oracle compares the final streamed colors against an in-process
    engine that never crashed.
    """
    from repro.serve import protocol as wire
    from repro.serve.client import ServeClient

    cfg = ColoringConfig.practical(seed=seed)
    schedule = make_churn(
        family, n, avg_degree, seed, batches=batches,
        churn_fraction=churn_fraction,
    )
    n0, edges0 = schedule.initial
    batch_list = list(schedule)

    reference = DynamicColoring(schedule.initial, cfg)
    with faults.suppressed():
        for batch in batch_list:
            reference.apply_batch(batch)

    def spawn(tmp: Path, *extra: str) -> tuple[subprocess.Popen, str]:
        sock = str(tmp / "chaos.sock")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", sock,
                "--snapshot-path", str(tmp / "chaos.npz"),
                "--snapshot-every", "1",
                "--coalesce-max", "1",
                "--seed", str(seed),
                *extra,
            ],
            env={**os.environ},
            stderr=subprocess.PIPE,
        )
        return proc, sock

    with tempfile.TemporaryDirectory() as tmpname:
        tmp = Path(workdir or tmpname)
        plan_path = tmp / "chaos-plan.toml"
        plan.save(plan_path)

        crashed = False
        exit_code = None
        acked = 0
        proc, sock = spawn(tmp, "--fault-plan", str(plan_path))
        try:
            try:
                with ServeClient(socket_path=sock) as client:
                    client.load_graph(n0, edges0, seed=seed)
                    for batch in batch_list:
                        client.update_batch(batch)
                        acked += 1
                    reply = client.query_colors()
                    final_colors = reply.colors
                    final_proper = reply.proper
                    final_complete = reply.complete
                    client.shutdown()
            except (ConnectionError, OSError, wire.ProtocolError):
                crashed = True
            proc.wait(timeout=60)
            exit_code = proc.returncode
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()
            proc.wait(timeout=30)

        resumed_from = None
        if crashed:
            # Restart clean (no plan), warm-started from the snapshot
            # that survived the kill, and replay the unacked suffix.
            proc, sock = spawn(tmp, "--restore", str(tmp / "chaos.npz"))
            try:
                with ServeClient(socket_path=sock) as client:
                    stats = client.stats()
                    resumed_from = int(stats["batch_index"])
                    for batch in batch_list[resumed_from:]:
                        client.update_batch(batch)
                    reply = client.query_colors()
                    final_colors = reply.colors
                    final_proper = reply.proper
                    final_complete = reply.complete
                    client.shutdown()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.stderr.close()
                proc.wait(timeout=30)

    report = {
        "target": "serve",
        "plan": plan.name,
        "plan_key": plan.key,
        "family": family,
        "n": int(n0),
        "batches": len(batch_list),
        "seed": int(seed),
        "daemon_crashed": crashed,
        "daemon_exit_code": exit_code,
        "acked_before_crash": acked,
        "resumed_from_batch": resumed_from,
    }
    final_colors = np.asarray(final_colors, dtype=np.int64)
    return _oracle(
        report,
        final_colors,
        reference.colors,
        bool(final_proper),
        bool(final_complete),
        count_distinct_colors(final_colors),
        int(reference.net.delta) + 1,
    )
