"""The four benchmark workloads.

Each workload runs a fixed list of ops derived from its seed and the run
length (never time-boxed, never dependent on timing), so its op count and
the program's round and bit counts repeat exactly; only wall-clock varies.
Inputs are generated outside every timed region and outside set-up.  The
output of every op is checked against the benchmark's own copy of the
topology; a failed check or a raised exception counts the op as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import select
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import ChurnMirror, geometric_graph, planted_graph

from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.dynamic.engine import DynamicColoring
from repro.dynamic.events import UpdateBatch
from repro.serve import protocol as wire
from repro.serve.client import ServeClient
from repro.simulator.network import BroadcastNetwork

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
RECIPES = json.loads((Path(__file__).parent / "provenance.json").read_text())["workloads"]

__all__ = ["RECIPES", "Outcome", "op_count", "run_workload", "churn_inputs", "check_coloring"]


def op_count(recipe: dict, seconds: float) -> int:
    """Ops in a run: the run length over the nominal op cost, a pure
    function of the arguments so every run at one length does the same
    work."""
    return max(int(recipe["min_ops"]), int(round(seconds * 1000.0 / recipe["op_ms_nominal"])))


@dataclass
class Outcome:
    """What a workload run measured."""

    ops: int = 0
    op_ms: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)
    bits: list[int] = field(default_factory=list)
    phase_rounds: dict[str, int] = field(default_factory=dict)
    phase_bits: dict[str, int] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    digest: str = ""
    serve: dict[str, float] = field(default_factory=dict)


def check_coloring(
    colors: np.ndarray, keys: np.ndarray, n: int, alive: np.ndarray | None = None
) -> str | None:
    """Why ``colors`` is wrong for the topology ``keys`` (sorted
    ``lo·n + hi``), or None: improper, an active node uncolored, or more
    than Δ+1 colors."""
    lo, hi = keys // n, keys % n
    if ((colors[lo] >= 0) & (colors[lo] == colors[hi])).any():
        return "improper"
    active = colors if alive is None else colors[alive]
    if (active < 0).any():
        return "active node uncolored"
    delta = int(np.bincount(np.concatenate([lo, hi]), minlength=n).max()) if keys.size else 0
    used = np.unique(active).size
    if used > delta + 1:
        return f"{used} colors > delta+1 = {delta + 1}"
    return None


def _phase_account(metrics) -> dict[str, tuple[int, int]]:
    return {name: (s.rounds, s.total_bits) for name, s in metrics.phases.items() if name != "total"}


def _add_phase_delta(out: Outcome, before: dict, after: dict) -> None:
    for name, (r, b) in after.items():
        r0, b0 = before.get(name, (0, 0))
        out.phase_rounds[name] = out.phase_rounds.get(name, 0) + r - r0
        out.phase_bits[name] = out.phase_bits.get(name, 0) + b - b0


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _root(tracer, name: str, traced: bool, **attrs):
    """A traced root span, or nothing when this call is not traced."""
    return tracer.root(name, **attrs) if tracer is not None and traced else nullcontext()


def _op_seeds(seed: int, count: int) -> list[int]:
    return np.random.default_rng((seed, 7)).integers(0, 2**31, size=count).tolist()


# ---------------------------------------------------------------------------
# static-*: recolor a fixed network from scratch with a fresh seed per op
# ---------------------------------------------------------------------------
def _static_instance(recipe: dict, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    if recipe["family"] == "geometric":
        return recipe["n"], geometric_graph(recipe["n"], recipe["avg_degree"], rng)
    return planted_graph(
        recipe["cliques"],
        recipe["clique_size"],
        recipe["sparse_nodes"],
        rng,
        eps=recipe["eps"],
        sparse_degree=recipe["sparse_degree"],
    )


def run_static(recipe: dict, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome(ops=op_count(recipe, seconds))
    k = int(recipe["instances"])
    graphs = [_static_instance(recipe, np.random.default_rng((seed, i))) for i in range(k)]
    seeds = _op_seeds(seed, out.ops + k)
    cfg = ColoringConfig.practical()
    digest = hashlib.sha256()
    block = -1
    for i in range(out.ops):
        if i * k // out.ops != block:
            # Instance ``block`` serves one contiguous block of ops, so its
            # set-up (ingest, then one coloring to fill lazy state such as
            # the adjacency sets the matching phase builds on first use) is
            # measured at its own point of the run, beside the ops.
            block = i * k // out.ops
            n, edges = graphs[block]
            keys = edges[:, 0] * n + edges[:, 1]  # generators emit sorted lo < hi
            with _root(tracer, "setup", tracer is not None, instance=block):
                t0 = time.perf_counter()
                net = BroadcastNetwork((n, edges))
                # A network passed in keeps bandwidth_bits=None: set the cap
                # so BCONGEST enforcement stays on.
                net.bandwidth_bits = cfg.bandwidth_bits(n)
                warm = BroadcastColoring(net, cfg.with_seed(seeds[out.ops + block])).run()
                out.setup_s.append(time.perf_counter() - t0)
            err = check_coloring(warm.colors, keys, n)
            if err:
                raise RuntimeError(f"set-up coloring of instance {block}: {err}")
        m = net.metrics
        before = _phase_account(m)
        r0, b0 = m.total_rounds, m.total_bits
        traced = tracer is not None and i % 2 == 1
        try:
            with _root(tracer, "op", traced, index=i):
                t0 = time.perf_counter()
                result = BroadcastColoring(net, cfg.with_seed(seeds[i])).run()
                dt = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            out.failures.append(f"op {i}: {exc!r}")
            continue
        err = check_coloring(result.colors, keys, n)
        if m.max_message_bits > net.bandwidth_bits:
            err = f"message of {m.max_message_bits} bits > cap {net.bandwidth_bits}"
        if err:
            out.failures.append(f"op {i}: {err}")
        out.op_ms.append(dt * 1e3)
        out.traced.append(traced)
        out.rounds.append(m.total_rounds - r0)
        out.bits.append(m.total_bits - b0)
        _add_phase_delta(out, before, _phase_account(m))
        digest.update(result.colors.tobytes())
    out.digest = digest.hexdigest()
    out.peak_rss_mb = _own_peak_rss_mb()
    return out


# ---------------------------------------------------------------------------
# churn-geo: incremental repair under a seeded churn schedule
# ---------------------------------------------------------------------------
def churn_inputs(recipe: dict, seed: int) -> tuple[int, np.ndarray, ChurnMirror, int]:
    """The initial graph, the schedule mirror and the engine seed of a
    churn workload — everything the program is fed, from the seed alone."""
    n = recipe["n"]
    edges = geometric_graph(n, recipe["avg_degree"], np.random.default_rng((seed, 0)))
    mirror = ChurnMirror(
        n,
        edges,
        recipe["churn_fraction"],
        recipe["handoff_fraction"],
        recipe["handoff_return_batches"],
        np.random.default_rng((seed, 1)),
    )
    return n, edges, mirror, _op_seeds(seed, 1)[0]


def run_churn(recipe: dict, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome(ops=op_count(recipe, seconds))
    n, edges, mirror, cfg_seed = churn_inputs(recipe, seed)
    cfg = ColoringConfig.practical(seed=cfg_seed)
    cap = cfg.bandwidth_bits(n)
    initial_keys = mirror.keys
    setups = int(recipe["setups"])
    # Set-ups are spread over the run, beside the ops: the first engine
    # serves the schedule, the later ones are built and dropped.
    setup_at = {s * out.ops // setups for s in range(setups)}
    engine = None
    digest = hashlib.sha256()
    for i in range(out.ops):
        if i in setup_at:
            with _root(tracer, "setup", tracer is not None, instance=i):
                t0 = time.perf_counter()
                fresh = DynamicColoring((n, edges), cfg)
                out.setup_s.append(time.perf_counter() - t0)
            err = check_coloring(fresh.colors, initial_keys, n)
            if err:
                raise RuntimeError(f"initial coloring: {err}")
            if engine is None:
                engine, m = fresh, fresh.net.metrics
            del fresh
        batch = UpdateBatch(**mirror.next_batch())
        before = _phase_account(m)
        r0, b0 = m.total_rounds, m.total_bits
        traced = tracer is not None and i % 2 == 1
        try:
            with _root(tracer, "op", traced, index=i):
                t0 = time.perf_counter()
                engine.apply_batch(batch)
                dt = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a failed op
            out.failures.append(f"op {i}: {exc!r}")
            continue
        err = check_coloring(engine.colors, mirror.keys, n, mirror.alive)
        if engine.net.m != mirror.keys.size:
            err = f"engine holds {engine.net.m} edges, schedule {mirror.keys.size}"
        if m.max_message_bits > cap:
            err = f"message of {m.max_message_bits} bits > cap {cap}"
        if err:
            out.failures.append(f"op {i}: {err}")
        out.op_ms.append(dt * 1e3)
        out.traced.append(traced)
        out.rounds.append(m.total_rounds - r0)
        out.bits.append(m.total_bits - b0)
        _add_phase_delta(out, before, _phase_account(m))
        digest.update(engine.colors.tobytes())
    out.digest = digest.hexdigest()
    out.peak_rss_mb = _own_peak_rss_mb()
    return out


# ---------------------------------------------------------------------------
# serve-stream: the churn recipe through a repro serve daemon, closed loop
# ---------------------------------------------------------------------------
# Update-frame ids live far above the client's own request counter.
_UPDATE_IDS = 1 << 40
_HISTOGRAMS = {"repro_serve_apply_us": "apply", "repro_dynamic_batch_us": "engine", "repro_phase_us": "phase"}
_SUM_LINE = re.compile(r'^(\w+)_sum(?:\{phase="([^"]*)"\})? (\S+)$')


def _daemon_sums(client: ServeClient) -> dict[str, float]:
    """Daemon-side latency totals in µs: the ``_sum`` of its apply, engine
    and per-phase histograms, keyed ``apply``, ``engine``, ``phase:<name>``."""
    sums: dict[str, float] = {}
    for line in client.metrics().splitlines():
        hit = _SUM_LINE.match(line)
        if hit and hit.group(1) in _HISTOGRAMS:
            key = _HISTOGRAMS[hit.group(1)] + (f":{hit.group(2)}" if hit.group(2) else "")
            sums[key] = float(hit.group(3))
    return sums


def _start_daemon(sock: str) -> tuple[subprocess.Popen, float]:
    """Spawn ``repro serve`` on ``sock``; returns it once its ready line
    arrived, with the time that line was read."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60.0
    seen = b""
    while b"listening on" not in seen:
        left = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stderr], [], [], max(left, 0.0))
        chunk = proc.stderr.read1(4096) if ready else b""
        if not chunk:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"daemon did not start: {seen.decode(errors='replace')}")
        seen += chunk
    return proc, time.perf_counter()


def _update(client: ServeClient, batch: UpdateBatch, request_id: int, tracer, traced: bool):
    """One write: encode, send, wait for the covering batch_report."""
    enc = tracer.open("serve.encode") if traced else None
    data = wire.encode_frame(wire.UpdateBatchFrame.from_batch(batch, id=request_id))
    if enc is not None:
        tracer.close(enc)
    trip = tracer.open("serve.roundtrip") if traced else None
    client.fp.write(data)
    client.fp.flush()
    while True:
        frame = client.recv()
        if frame is None:
            raise ConnectionError("daemon closed the connection")
        if isinstance(frame, wire.ErrorFrame):
            raise frame.to_exception()
        if isinstance(frame, wire.BatchReportFrame) and request_id in frame.ids:
            break
    if trip is not None:
        tracer.close(trip)
    return frame


def run_serve(recipe: dict, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome(ops=op_count(recipe, seconds))
    n, edges, mirror, cfg_seed = churn_inputs(recipe, seed)
    OUT.mkdir(exist_ok=True)
    sock = os.path.relpath(OUT / f"serve-{os.getpid()}.sock", ROOT)
    proc, ready_at = _start_daemon(sock)
    client, stopped = None, False
    try:
        t0 = ready_at
        for i in range(int(recipe["setups"])):
            if client is not None:
                client.close()
                t0 = time.perf_counter()
            client = ServeClient(socket_path=sock)
            client.hello("perfbench")
            client.load_graph(n, edges, seed=cfg_seed)
            out.setup_s.append(time.perf_counter() - t0)
        before = _daemon_sums(client)
        for i in range(out.ops):
            batch = UpdateBatch(**mirror.next_batch())
            touched = np.unique(
                np.concatenate(
                    [batch.insert_edges.ravel(), batch.delete_edges.ravel(), batch.arrivals, batch.departures]
                )
            )
            traced = tracer is not None and i % 2 == 1
            try:
                with _root(tracer, "op", traced, index=i):
                    t0 = time.perf_counter()
                    frame = _update(client, batch, _UPDATE_IDS + i, tracer, traced)
                    dt = time.perf_counter() - t0
                with _root(tracer, "read", traced, index=i):
                    t0 = time.perf_counter()
                    reply = client.query_colors(touched)
                    dr = time.perf_counter() - t0
            except (wire.ProtocolError, ConnectionError, OSError) as exc:
                out.failures.append(f"op {i}: {exc!r}")
                continue
            rep = frame.report
            got = np.asarray(reply.colors, dtype=np.int64)
            err = None
            if not (rep["proper"] and rep["complete"] and rep["colors_used"] <= rep["delta"] + 1):
                err = f"batch report {rep}"
            elif (got[mirror.alive[touched]] < 0).any():
                err = "touched active node uncolored"
            elif batch.insert_edges.size:
                ends = np.searchsorted(touched, batch.insert_edges)
                if (got[ends[:, 0]] == got[ends[:, 1]]).any():
                    err = "inserted edge monochromatic"
            if err:
                out.failures.append(f"op {i}: {err}")
            out.op_ms.append(dt * 1e3)
            out.read_ms.append(dr * 1e3)
            out.traced.append(traced)
            out.rounds.append(int(rep["rounds"]))
            out.bits.append(int(rep["total_bits"]))
        after = _daemon_sums(client)
        stats = client.stats()
        final = np.asarray(client.query_colors().colors, dtype=np.int64)
        err = check_coloring(final, mirror.keys, n, mirror.alive)
        if err:
            out.failures.append(f"final coloring: {err}")
        out.digest = hashlib.sha256(final.tobytes()).hexdigest()
        ops = max(len(out.op_ms), 1)
        out.serve = {key: (after[key] - before.get(key, 0.0)) / 1e3 / ops for key in after}
        out.serve["coalesce_ratio"] = float(stats.get("coalesce_ratio") or 0.0)
        out.serve["queue_high_water"] = float(stats["queue_depth_high_water"])
        out.serve["rejected"] = float(stats["rejected_batches"])
        client.shutdown()
        stopped = True
    finally:
        if client is not None:
            client.close()
        if not stopped:
            proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stderr.close()
        Path(ROOT / sock).unlink(missing_ok=True)
    # The daemon is the largest child this process has waited for.
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return out


RUNNERS = {
    "static-geo": run_static,
    "static-planted": run_static,
    "churn-geo": run_churn,
    "serve-stream": run_serve,
}


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> Outcome:
    return RUNNERS[name](RECIPES[name], seed, seconds, tracer)
