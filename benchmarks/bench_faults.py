"""E17 — fault-injection overhead and recovery cost.

Two claims `repro.faults` makes (DESIGN.md §9):

1. **Disarmed is free.**  The :func:`repro.faults.inject` hook sits on
   the hot path of every shard worker, snapshot write and trial; with no
   plan armed it must cost one global load + ``is None`` test.  We
   measure ns/call in a tight loop and gate it at a generous bound.
2. **Recovery is determinism-preserving, and its cost is bounded.**  A
   seeded crash campaign (``faults_shard_crash.toml``: one soft worker
   crash + one hard pool kill) must converge on byte-identical colors;
   the chaos run's wall-clock overhead over the fault-free reference is
   printed beside the fault account (retries, crashes).

Quick mode: ``REPRO_BENCH_FAULTS_N`` shrinks the graph for CI smoke
runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from _common import DISARMED_NS_BOUND, disarmed_ns_per_call
from repro.faults import FaultPlan, chaos_shard, plan as faults

REPO_ROOT = Path(__file__).resolve().parent.parent
SHARD_PLAN = REPO_ROOT / "benchmarks" / "plans" / "faults_shard_crash.toml"


@pytest.mark.benchmark(group="E17-faults")
def test_e17_fault_overhead_tracked():
    """Hook cost + recovery cost.

    Gates: disarmed ``inject()`` under :data:`DISARMED_NS_BOUND` ns, and
    the crash campaign's oracle (byte-equal colors, proper, complete,
    within the Δ+1 budget).
    """
    n = int(os.environ.get("REPRO_BENCH_FAULTS_N", "2000"))

    assert faults.armed_plan() is None, "a plan is armed; benchmark invalid"
    disarmed_ns = disarmed_ns_per_call(
        lambda: faults.inject("shard.worker", shard=0, attempt=1)
    )
    assert disarmed_ns < DISARMED_NS_BOUND, (
        f"disarmed inject() costs {disarmed_ns:.0f} ns/call "
        f"(bound {DISARMED_NS_BOUND:.0f})"
    )

    plan = FaultPlan.load(SHARD_PLAN)
    report = chaos_shard(plan, n=n, workers=2)
    assert report["oracle_ok"], f"chaos oracle failed: {report}"

    ref_s = report["seconds_reference"]
    chaos_s = report["seconds_chaos"]
    overhead = chaos_s / max(ref_s, 1e-9)

    print("\nE17 fault-injection overhead")
    print(f"  disarmed inject : {disarmed_ns:8.1f} ns/call")
    print(f"  reference run   : {ref_s:8.4f} s")
    print(f"  chaos run       : {chaos_s:8.4f} s  (×{overhead:.2f}, "
          f"{report['faults']['worker_crashes']} crashes, "
          f"{report['faults']['retries']} retries)")
