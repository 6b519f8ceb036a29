"""Benchmark entry point: run one named workload from its seed.

    python3 perfbench/run.py --workload static-geo --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every layer wrapper off.
``--trace 1`` is a separate run that alternates untraced and traced ops,
reports the per-layer table from the traced ones, and writes their spans
to ``perfbench/out/``.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the recipe, host, op count, tail percentile and a digest of the
colorings.  The exit code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from tracer import SETUP_LAYERS, Tracer, op_layer_names

# One thread per process, set before numpy is imported (the serve daemon
# inherits it).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rounds_per_op": "rounds",
    "bits_per_op": "bits",
    "peak_rss_mb": "MiB",
}

# RoundMetrics phases the four workloads charge; anything else lands in
# ``other`` so the per-phase rows always sum to the per-op totals.
PHASES = (
    "acd/sketch",
    "acd/cluster",
    "acd/repair",
    "setup/aggregate",
    "slack",
    "putaside-select",
    "sparse",
    "sct/learn-palette",
    "sct/permute",
    "sct/trial",
    "inliers",
    "putaside",
    "dynamic/delta",
    "dynamic/detect",
    "dynamic/repair",
)
SERVE_PHASES = ("dynamic/delta", "dynamic/detect", "dynamic/repair")


def _import_program():
    """Put this checkout's ``src/`` first on the path and refuse to run
    against any other copy of the program."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not this checkout")


def tail_percentile(count: int) -> int:
    """The highest integer percentile with at least ten samples beyond it
    (nearest rank); 100 (the maximum) when there are ten samples or fewer."""
    if count <= 10:
        return 100
    return (100 * (count - 10)) // count


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of :func:`tail_percentile` over ``samples``."""
    p = tail_percentile(len(samples))
    rank = max(1, -(-p * len(samples) // 100))
    return sorted(samples)[rank - 1], p


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in table order."""
    spec: list[tuple[str, str, str]] = []
    for name in op_layer_names():
        spec += [(f"{name}.ms", "ms", "lower"), (f"{name}.calls", "calls", "lower")]
    for name in SETUP_LAYERS:
        spec += [(f"{name}.ms", "ms", "lower"), (f"{name}.calls", "calls", "lower")]
    spec += [
        ("setup.coloring.ms", "ms", "lower"),
        ("network.delta_edges_per_op", "edges", "lower"),
        ("fingerprints.gather_mb", "MB", "lower"),
        ("acd.cliques", "cliques", "higher"),
        ("multitrial.colored_frac", "ratio", "higher"),
        ("trycolor.colored_frac", "ratio", "higher"),
        ("dynamic.conflicts_per_op", "nodes", "lower"),
        ("dynamic.recolored_per_op", "nodes", "lower"),
        ("dynamic.fallbacks", "count", "lower"),
        ("serve.encode.ms", "ms", "lower"),
        ("serve.apply.ms", "ms", "lower"),
        ("serve.engine.ms", "ms", "lower"),
        ("serve.wire_queue.ms", "ms", "lower"),
        ("serve.read.ms", "ms", "lower"),
        ("read_p50_ms", "ms", "lower"),
        ("read_tail_ms", "ms", "lower"),
    ]
    spec += [(f"serve.phase.{p.replace('/', '-')}.ms", "ms", "lower") for p in SERVE_PHASES]
    spec += [
        ("serve.coalesce_ratio", "ratio", "lower"),
        ("serve.queue_high_water", "frames", "lower"),
        ("serve.rejected", "count", "lower"),
        ("unattributed.ms", "ms", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    for p in PHASES + ("other",):
        spec += [(f"rounds.{p.replace('/', '-')}", "rounds", "lower"), (f"bits.{p.replace('/', '-')}", "bits", "lower")]
    return spec


def end_to_end(out) -> tuple[dict[str, float], dict]:
    values = {
        "setup_s": statistics.median(out.setup_s),
        "op_p50_ms": statistics.median(out.op_ms),
        "rounds_per_op": sum(out.rounds) / len(out.rounds),
        "bits_per_op": sum(out.bits) / len(out.bits),
        "peak_rss_mb": out.peak_rss_mb,
    }
    op_tail, op_p = tail(out.op_ms)
    info = {"op_tail_ms": op_tail, "op_tail_percentile": op_p, "op_samples": len(out.op_ms)}
    if out.read_ms:
        read_tail, read_p = tail(out.read_ms)
        info.update(
            read_p50_ms=statistics.median(out.read_ms),
            read_tail_ms=read_tail,
            read_tail_percentile=read_p,
            read_samples=len(out.read_ms),
        )
    return values, info


def per_layer(out, tracer) -> dict[str, float]:
    agg = tracer.aggregate()
    ops = agg.get("op", {"roots": 0, "layers": {}})
    setups = agg.get("setup", {"roots": 0, "layers": {}})
    n_ops, n_setups = max(ops["roots"], 1), max(setups["roots"], 1)
    empty = {"self_ns": 0, "incl_ns": 0, "calls": 0, "attrs": {}}

    def row(table, name):
        return table["layers"].get(name, empty)

    def attr(name, key):
        return row(ops, name)["attrs"].get(key, 0)

    values = {name: 0.0 for name, _, _ in per_layer_spec()}
    for name in op_layer_names():
        values[f"{name}.ms"] = row(ops, name)["self_ns"] / 1e6 / n_ops
        values[f"{name}.calls"] = row(ops, name)["calls"] / n_ops
    for name in SETUP_LAYERS:
        values[f"{name}.ms"] = row(setups, name)["self_ns"] / 1e6 / n_setups
        values[f"{name}.calls"] = row(setups, name)["calls"] / n_setups
    values["setup.coloring.ms"] = row(setups, "algorithm.run")["incl_ns"] / 1e6 / n_setups
    values["network.delta_edges_per_op"] = attr("network.apply_delta", "edges") / n_ops
    values["fingerprints.gather_mb"] = attr("fingerprints.minwise", "gather_bytes") / 1e6 / n_ops
    values["acd.cliques"] = attr("acd.decompose", "cliques") / n_ops
    for name, key in (("multitrial.run", "multitrial"), ("trycolor.round", "trycolor")):
        tries = attr(name, "attempts")
        values[f"{key}.colored_frac"] = attr(name, "colored") / tries if tries else 0.0
    values["dynamic.conflicts_per_op"] = attr("dynamic.apply_batch", "conflicts") / n_ops
    values["dynamic.recolored_per_op"] = attr("dynamic.apply_batch", "recolored") / n_ops
    values["dynamic.fallbacks"] = attr("dynamic.apply_batch", "fallbacks")
    values["unattributed.ms"] = row(ops, "op")["self_ns"] / 1e6 / n_ops
    traced = [ms for ms, t in zip(out.op_ms, out.traced) if t]
    plain = [ms for ms, t in zip(out.op_ms, out.traced) if not t]
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    if out.serve:
        apply_ms = out.serve["apply"]
        encode_ms = row(ops, "serve.encode")["self_ns"] / 1e6 / n_ops
        values["serve.encode.ms"] = encode_ms
        values["serve.apply.ms"] = apply_ms
        values["serve.engine.ms"] = out.serve["engine"]
        values["serve.wire_queue.ms"] = row(ops, "op")["incl_ns"] / 1e6 / n_ops - encode_ms - apply_ms
        reads = agg.get("read", {"roots": 0, "layers": {}})
        values["serve.read.ms"] = row(reads, "read")["incl_ns"] / 1e6 / max(reads["roots"], 1)
        values["read_p50_ms"] = statistics.median(out.read_ms)
        values["read_tail_ms"] = tail(out.read_ms)[0]
        for p in SERVE_PHASES:
            values[f"serve.phase.{p.replace('/', '-')}.ms"] = out.serve.get(f"phase:{p}", 0.0)
        values["serve.coalesce_ratio"] = out.serve["coalesce_ratio"]
        values["serve.queue_high_water"] = out.serve["queue_high_water"]
        values["serve.rejected"] = out.serve["rejected"]
    n_all = max(len(out.op_ms), 1)
    for phase, rounds in out.phase_rounds.items():
        key = phase.replace("/", "-") if phase in PHASES else "other"
        values[f"rounds.{key}"] += rounds / n_all
        values[f"bits.{key}"] += out.phase_bits[phase] / n_all
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    os.chdir(ROOT)
    from repro.runner.benchtrack import host_info
    from workloads import OUT, RECIPES, run_workload

    if args.workload not in RECIPES:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(RECIPES)})")
    tracer = Tracer() if args.trace else None
    out = run_workload(args.workload, args.seed, args.seconds, tracer)
    values, info = end_to_end(out)
    units = dict(END_TO_END)
    if tracer is not None:
        units = {name: unit for name, unit, _ in per_layer_spec()}
        values = per_layer(out, tracer)
        OUT.mkdir(exist_ok=True)
        from repro.obs.export import write_jsonl

        spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with spans.open("w", encoding="utf-8") as fp:
            write_jsonl(tracer.spans, fp)
        info["spans"] = str(spans.relative_to(ROOT))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "recipe": RECIPES[args.workload],
        "host": host_info(),
        "ops": out.ops,
        **info,
        "setup_samples_s": out.setup_s,
        "coloring_digest": out.digest,
        "failures": out.failures[:10],
    }
    attempted = out.ops + (1 if out.serve else 0)  # serve also checks the final coloring
    failed = len(out.failures)
    report["failed_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
