#!/usr/bin/env python3
"""Streaming a mobility workload at a live ``repro serve`` daemon.

The frequency-assignment scenario (see examples/frequency_assignment.py)
run as a *service*: this process plays the network controller, the
coloring engine lives in a separate daemon behind the docs/PROTOCOL.md
wire protocol.  The demo

1. boots ``repro serve`` as a subprocess on a unix socket,
2. loads the initial interference graph over the wire,
3. streams the mobile-churn batches (transmitters drift, a few hand
   off) and prints each streamed-back per-batch repair report,
4. reads the final channel plan + a palette query + server stats, and
5. shuts the daemon down cleanly, checking the plan matches what an
   in-process engine with the same seed produces.

Run:  python examples/streaming_demo.py [num_aps] [radius] [seed] [steps]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import numpy as np

from repro import ColoringConfig, DynamicColoring
from repro.graphs.churn import mobile_geometric_churn
from repro.serve.client import ServeClient


def main() -> None:
    num_aps = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    radius = float(sys.argv[2]) if len(sys.argv) > 2 else 0.06
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    steps = int(sys.argv[4]) if len(sys.argv) > 4 else 6

    schedule = mobile_geometric_churn(
        num_aps, radius, steps, step=0.25 * radius, seed=seed,
        handoff_fraction=0.01,
    )
    n, edges = schedule.initial

    socket_path = tempfile.mktemp(prefix="repro-serve-", suffix=".sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--coalesce-max", "1"],
        env={**os.environ},
    )
    try:
        with ServeClient(socket_path=socket_path) as client:
            print(f"connected: {client.welcome.server} "
                  f"(protocol v{client.welcome.v})")

            loaded = client.load_graph(n, edges, seed=seed)
            print(
                f"loaded deployment over the wire: {loaded.n} access points, "
                f"{loaded.m} interference links, Δ={loaded.delta}; initial "
                f"plan uses {loaded.colors_used} channels "
                f"({loaded.initial_rounds} rounds, {loaded.seconds:.2f}s)"
            )

            print("\nstreaming mobility batches:")
            print("batch  mode      conflicts  recolored  colors  rounds")
            for i, batch in enumerate(schedule):
                rf = client.update_batch(batch)
                r = rf.report
                print(
                    f"{i:5d}  {r['mode']:8s}  {r['conflicts']:9d}  "
                    f"{r['recolored']:9d}  {r['colors_used']:6d}  "
                    f"{r['rounds']:6d}"
                )

            final = client.query_colors()
            assert final.proper and final.complete, "service lost the invariant"
            pal = client.query_palette(0)
            print(
                f"\nfinal plan: proper={final.proper} complete={final.complete}; "
                f"AP 0 holds channel {pal.color}, "
                f"{len(pal.free)} of {pal.num_colors} channels free around it"
            )

            stats = client.stats()
            print(
                f"server stats: {stats['batches_applied']} batches applied, "
                f"{stats['rejected_batches']} rejected, "
                f"{stats['fallbacks']} fallbacks, "
                f"{stats['rounds_total']} simulated rounds total"
            )

            client.shutdown()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()

    # The service is the same engine behind a socket: same seed, same plan.
    engine = DynamicColoring(schedule.initial, ColoringConfig.practical(seed=seed))
    for batch in schedule:
        engine.apply_batch(batch)
    assert np.array_equal(final.colors, engine.colors), "service diverged from engine"
    print("\nserved plan is bit-identical to the in-process engine; "
          "clean shutdown")


if __name__ == "__main__":
    main()
