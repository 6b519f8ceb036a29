"""E16 — streaming service throughput: through-socket vs in-process.

The claim `repro.serve` makes (DESIGN.md §8): putting the dynamic
engine behind the wire protocol costs framing + admission control, not
correctness — the served run produces the *same final coloring* as the
in-process engine with the same seed, and the per-batch overhead stays
a small constant factor at demo scale.  Coalescing is the recovery
lever: a flooded burst applied with ``--coalesce-max k`` pays fewer
engine batches than requests.

Printed measurements (n = 2000, 8 batches):

* in-process batches/s (engine only, same schedule);
* through-socket batches/s with ``--coalesce-max 1`` and a per-batch
  wait (the bit-exact configuration) + the overhead ratio;
* burst mode: all batches pipelined against a coalescing server —
  engine batches applied vs requests sent.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.config import ColoringConfig
from repro.dynamic import DynamicColoring
from repro.graphs.families import make_churn
from repro.serve.client import ServeClient


def _spawn(tmp_path, *extra):
    sock = str(tmp_path / "bench.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock, *extra],
        env={**os.environ},
        stderr=subprocess.DEVNULL,
    )
    return proc, sock


@pytest.mark.benchmark(group="E16-serve")
def test_e16_throughput_tracked(tmp_path):
    """One schedule, three execution modes.

    Gates: the served (coalesce-max 1, per-batch wait) final coloring
    must equal the in-process engine's — the service is the engine, the
    socket must not change results.
    """
    n, batches = 2000, 8
    seed = 11
    schedule = make_churn("gnp-churn", n, 20.0, seed, batches=batches,
                          churn_fraction=0.03)

    # -- in-process reference ------------------------------------------
    engine = DynamicColoring(schedule.initial, ColoringConfig.practical(seed=seed))
    t0 = time.perf_counter()
    for batch in schedule:
        engine.apply_batch(batch)
    inproc_s = time.perf_counter() - t0
    inproc_bps = batches / max(inproc_s, 1e-9)

    # -- through the socket, bit-exact configuration -------------------
    proc, sock = _spawn(tmp_path, "--coalesce-max", "1")
    try:
        with ServeClient(socket_path=sock) as client:
            client.load_graph(n, schedule.initial[1], seed=seed)
            t0 = time.perf_counter()
            for batch in schedule:
                client.update_batch(batch)
            served_s = time.perf_counter() - t0
            final = client.query_colors()
            client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    served_bps = batches / max(served_s, 1e-9)
    assert np.array_equal(final.colors, engine.colors), (
        "served run diverged from the in-process engine"
    )

    # -- burst mode: pipelined requests, coalescing on ------------------
    proc, sock = _spawn(tmp_path, "--coalesce-max", "8",
                        "--queue-max", str(max(batches, 8)))
    try:
        with ServeClient(socket_path=sock) as client:
            client.load_graph(n, schedule.initial[1], seed=seed)
            t0 = time.perf_counter()
            ids = [client.submit_batch(b) for b in schedule]
            client.collect(ids)
            burst_s = time.perf_counter() - t0
            stats = client.stats()
            client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    overhead = served_s / max(inproc_s, 1e-9)

    print("\nE16 service throughput")
    print(f"  in-process : {inproc_bps:8.1f} batches/s")
    print(f"  via socket : {served_bps:8.1f} batches/s  "
          f"(overhead ×{overhead:.2f})")
    print(f"  burst      : {batches} requests → "
          f"{stats['batches_applied']} engine batches "
          f"({stats['coalesced_batches']} coalesced) in {burst_s:.3f}s")
