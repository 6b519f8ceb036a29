"""Command-line interface: run the algorithm and its experiments without
writing Python.

    python -m repro color --family gnp --n 2000 --avg-degree 40
    python -m repro compare --family blobs --n 4096 --seeds 3
    python -m repro decompose --cliques 8 --size 56
    python -m repro churn --family mobile --n 2000 --batches 12 --churn 0.05
    python -m repro shard --family geometric --n 20000 --k 4 --strategy greedy
    python -m repro sweep --family blobs --min-exp 8 --max-exp 12 --workers 4
    python -m repro bench benchmarks/specs/quick.toml --workers 4 --out out.jsonl
    python -m repro serve --socket /tmp/repro.sock --snapshot-path /tmp/repro.npz
    python -m repro shard --n 20000 --k 4 --workers 4 --trace trace.json
    python -m repro trace export trace.jsonl --format perfetto
    python -m repro top --socket /tmp/repro.sock

Every subcommand prints a compact report; ``--json`` switches to
machine-readable output.  ``compare``, ``sweep`` and ``bench`` execute
through :mod:`repro.runner`: ``--workers`` shards trials over processes,
``--out`` persists per-trial results to a JSONL store, and re-runs
against the same store skip every already-computed trial (disable with
``--no-resume``, which truncates the store first).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import numpy as np

from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.decomposition.acd import decompose_distributed
from repro.decomposition.validation import validate_decomposition
from repro.dynamic import DynamicColoring
from repro.graphs.families import CHURN_FAMILIES, FAMILIES, make_churn, make_graph
from repro.graphs.generators import planted_acd_graph
from repro.runner import (
    ParallelRunner,
    ResultStore,
    RunReport,
    TrialSpec,
    append_entry,
    fit_rounds,
    load_matrix,
    mean_by,
    mean_timings,
    summarize_payloads,
)
from repro.shard import (
    STRATEGIES,
    TRANSPORTS,
    ShardedColoring,
    ShardedDynamicColoring,
)
from repro.simulator.network import BroadcastNetwork

__all__ = ["main", "build_parser", "make_graph"]


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats with None so --json output stays strict
    RFC 8259 (json.dumps would otherwise emit the literal ``NaN``)."""
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(_json_safe(report), indent=2, default=str))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        else:
            print(f"{key}: {value}")


def _finish_trace(path: str | None) -> None:
    """Drain the armed tracer into the file ``--trace`` named: span
    JSONL when the path ends in ``.jsonl`` (re-exportable via ``repro
    trace export``), Chrome/Perfetto trace_event JSON otherwise."""
    if not path:
        return
    from repro import obs

    spans = obs.drain_spans()
    with open(path, "w", encoding="utf-8") as fp:
        if path.endswith(".jsonl"):
            obs.write_jsonl(spans, fp)
        else:
            obs.write_perfetto(spans, fp)
    print(f"trace: {len(spans)} span(s) -> {path}", file=sys.stderr)


def cmd_color(args: argparse.Namespace) -> int:
    graph = make_graph(args.family, args.n, args.avg_degree, args.seed)
    preset = (
        ColoringConfig.paper if args.paper_constants else ColoringConfig.practical
    )
    cfg = preset(seed=args.seed, obs_trace=bool(args.trace))
    result = BroadcastColoring(graph, cfg).run()
    _finish_trace(args.trace)
    report = result.as_dict()
    report["clique_summary"] = result.clique_summary
    _emit(report, args.json)
    return 0 if (result.proper and result.complete) else 1


def cmd_churn(args: argparse.Namespace) -> int:
    cfg = ColoringConfig.practical(
        seed=args.seed,
        dynamic_batches=args.batches,
        dynamic_churn_fraction=args.churn,
        dynamic_fallback_fraction=args.fallback_fraction,
        shard_k=args.k,
        shard_strategy=args.strategy,
        obs_trace=bool(args.trace),
    )
    schedule = make_churn(
        args.family,
        args.n,
        args.avg_degree,
        args.seed,
        batches=cfg.dynamic_batches,
        churn_fraction=cfg.dynamic_churn_fraction,
    )
    if args.k > 1:
        engine: DynamicColoring = ShardedDynamicColoring(schedule, cfg)
    else:
        engine = DynamicColoring(schedule, cfg)
    result = engine.run(schedule)
    _finish_trace(args.trace)
    summary = result.summary()
    report: dict[str, Any] = {
        "family": schedule.family,
        "n": engine.n,
        "batches": [r.as_dict() for r in result.reports],
        "summary": summary,
    }
    if isinstance(engine, ShardedDynamicColoring):
        report["routes"] = engine.route_summary()
    if not args.json:
        # Compact per-batch table instead of nested dict dumping.
        print(f"family: {schedule.family}  n: {engine.n}  "
              f"initial rounds: {result.initial_rounds}")
        print("batch  mode      conflicts  recolored  frac     delta  colors  rounds")
        for r in result.reports:
            print(
                f"{r.index:5d}  {r.mode:8s}  {r.conflicts:9d}  {r.recolored:9d}  "
                f"{r.recolored_fraction:7.4f}  {r.delta:5d}  {r.colors_used:6d}  "
                f"{r.rounds:6d}"
            )
        if "routes" in report:
            routes = report["routes"]
            print(
                f"sharded: k={routes['k']} strategy={routes['strategy']}  "
                f"shards/batch: {routes['mean_shards_touched']:.2f} mean "
                f"(max {routes['max_shards_touched']})  "
                f"reconcile: {routes['reconcile_touched']} nodes, "
                f"{routes['mean_sweeps']:.2f} sweeps/batch"
            )
        _emit({"summary": summary}, False)
    else:
        _emit(report, True)
    ok = (
        summary["proper_all"]
        and summary["complete_all"]
        and summary["colors_within_budget"]
    )
    return 0 if ok else 1


def cmd_shard(args: argparse.Namespace) -> int:
    cfg = ColoringConfig.practical(
        seed=args.seed,
        shard_k=args.k,
        shard_strategy=args.strategy,
        shard_transport=args.transport,
        conflict_victim=args.victim,
        obs_trace=bool(args.trace),
    )
    graph = make_graph(args.family, args.n, args.avg_degree, args.seed)
    result = ShardedColoring(graph, cfg, workers=args.workers).run()
    _finish_trace(args.trace)
    report = result.as_dict()
    if args.json:
        _emit(report, True)
    else:
        print(
            f"family: {args.family}  n: {result.n}  k: {result.k}  "
            f"strategy: {result.strategy}  delta: {result.delta}"
        )
        print("shard  interior     m_int  cut_edges  delta_i  colors  rounds")
        for r in result.shard_reports:
            print(
                f"{r.shard:5d}  {r.n_interior:8d}  {r.m_interior:8d}  "
                f"{r.cut_edges:9d}  {r.delta_interior:7d}  {r.colors_used:6d}  "
                f"{r.rounds:6d}"
            )
        if args.verbose:
            rows = [
                (r.shard, row)
                for r in result.shard_reports
                for row in r.reconcile_sweeps
            ]
            if rows:
                print("reconcile sweeps:")
                print("shard  sweep  victims  halo_nodes  repair_rounds   seconds")
                for shard, row in sorted(
                    rows, key=lambda item: (item[1]["sweep"], item[0])
                ):
                    print(
                        f"{shard:5d}  {row['sweep']:5d}  {row['victims']:7d}  "
                        f"{row['halo_nodes']:10d}  {row['repair_rounds']:13d}  "
                        f"{row['seconds']:8.4f}"
                    )
            else:
                print("reconcile sweeps: none (clean cut or k=1)")
        summary = {k: v for k, v in report.items() if k != "shards"}
        _emit(summary, False)
    ok = (
        result.proper
        and result.complete
        and result.unresolved_conflicts == 0
        and result.num_colors_used <= result.delta + 1
    )
    return 0 if ok else 1


def _make_runner(args: argparse.Namespace) -> ParallelRunner:
    """Build the trial runner from the shared --workers/--out/--resume flags."""
    store = None
    if args.out:
        store = ResultStore(args.out, resume=args.resume)

    def progress(done: int, total: int, result) -> None:
        tag = "cache" if result.cached else result.status
        print(
            f"[{done}/{total}] {tag:7s} {result.spec.algorithm:9s} "
            f"{result.spec.family} n={result.spec.n} seed={result.spec.seed}",
            file=sys.stderr,
        )

    return ParallelRunner(
        workers=args.workers,
        store=store,
        timeout_s=args.timeout,
        progress=progress if args.progress else None,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    algorithms = ("broadcast", "johansson", "luby")
    specs = [
        TrialSpec(
            family=args.family, n=args.n, avg_degree=args.avg_degree,
            seed=seed, algorithm=algo,
        )
        for seed in range(args.seeds)
        for algo in algorithms
    ]
    run = _make_runner(args).run(specs)
    if run.failed:
        _report_failures(run)
        return 1
    by = {(p["seed"], p["algorithm"]): p for p in run.payloads()}
    rows = [
        {
            "seed": seed,
            "ours_rounds": by[(seed, "broadcast")]["rounds"],
            "johansson_rounds": by[(seed, "johansson")]["rounds"],
            "luby_rounds": by[(seed, "luby")]["rounds"],
            "ours_bits_per_node": round(by[(seed, "broadcast")]["bits_per_node"]),
        }
        for seed in range(args.seeds)
    ]
    report = {
        "family": args.family,
        "n": args.n,
        "runs": rows,
        "mean_ours": float(np.mean([r["ours_rounds"] for r in rows])),
        "mean_johansson": float(np.mean([r["johansson_rounds"] for r in rows])),
        "mean_luby": float(np.mean([r["luby_rounds"] for r in rows])),
        "trials": run.summary(),
    }
    _emit(report, args.json)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = ColoringConfig.practical(seed=args.seed)
    g = planted_acd_graph(
        args.cliques, args.size, cfg.eps, sparse_nodes=args.sparse, seed=args.seed
    )
    net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
    acd = decompose_distributed(net, cfg)
    rep = validate_decomposition(net, acd)
    report = {
        "n": net.n,
        "delta": net.delta,
        "cliques_found": acd.num_cliques,
        "cliques_planted": args.cliques,
        "sparse_nodes": int(acd.sparse_nodes.size),
        "rounds": acd.rounds_used,
        "sketch_seconds": round(net.metrics.phase_seconds.get("acd/sketch", 0.0), 4),
        "validator": rep.as_dict(),
    }
    _emit(report, args.json)
    return 0 if rep.ok else 1


def _report_failures(run: RunReport) -> None:
    for r in run.failed:
        detail = (r.error or "").strip().splitlines()
        tail = detail[-1] if detail else "unknown failure"
        print(
            f"trial failed ({r.status}): {r.spec.as_dict()}: {tail}",
            file=sys.stderr,
        )


def cmd_sweep(args: argparse.Namespace) -> int:
    ns = [2**k for k in range(args.min_exp, args.max_exp + 1)]
    specs = [
        TrialSpec(
            family=args.family, n=n, avg_degree=args.avg_degree,
            seed=seed, algorithm=algo,
        )
        for n in ns
        for seed in range(args.seeds)
        for algo in ("broadcast", "johansson")
    ]
    run = _make_runner(args).run(specs)
    if run.failed:
        _report_failures(run)
        return 1
    payloads = run.payloads()
    ours = mean_by([p for p in payloads if p["algorithm"] == "broadcast"], ["n"])
    base = mean_by([p for p in payloads if p["algorithm"] == "johansson"], ["n"])
    rows = [{"n": n, "ours": ours[(n,)], "johansson": base[(n,)]} for n in ns]
    report: dict[str, Any] = {"family": args.family, "rows": rows}
    if len(ns) >= 2:
        report["fit_ours"] = fit_rounds(payloads, where={"algorithm": "broadcast"}).best
        report["fit_johansson"] = fit_rounds(
            payloads, where={"algorithm": "johansson"}
        ).best
    report["trials"] = run.summary()
    _emit(report, args.json)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        specs = load_matrix(args.specfile)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load spec matrix: {exc}")
    run = _make_runner(args).run(specs)
    if run.failed:
        _report_failures(run)
    payloads = run.payloads()
    groups = mean_by(payloads, ["family", "algorithm", "n"], value="rounds")
    rows = [
        {"family": fam, "algorithm": algo, "n": n, "mean_rounds": rounds}
        for (fam, algo, n), rounds in groups.items()
    ]
    fits = {}
    for fam in sorted({p["family"] for p in payloads}):
        for algo in sorted({p["algorithm"] for p in payloads}):
            fit = fit_rounds(payloads, where={"family": fam, "algorithm": algo})
            if fit is not None:
                fits[f"{fam}/{algo}"] = fit.best
    report: dict[str, Any] = {
        "specfile": str(args.specfile),
        "rows": rows,
        "summary": summarize_payloads(payloads),
        "trials": run.summary(),
    }
    if fits:
        report["fits"] = fits
    if args.track:
        timing_rows = [
            {"family": fam, "algorithm": algo, "n": n, "phase_seconds": phases}
            for (fam, algo, n), phases in mean_timings(run.results).items()
        ]
        entry = {
            "specfile": str(args.specfile),
            "trials": run.summary(),
            "timings": timing_rows,
        }
        append_entry(args.track, entry, label=args.track_label or "repro-bench")
        report["track"] = str(args.track)
    _emit(report, args.json)
    return 0 if not run.failed else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import ColoringServer

    if (args.socket is None) == (args.port is None):
        raise SystemExit("repro serve: pass exactly one of --socket / --port")
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro serve: cannot load --fault-plan: {exc}")
    cfg = ColoringConfig.practical(
        seed=args.seed,
        serve_queue_max=args.queue_max,
        serve_coalesce_max=args.coalesce_max,
        serve_snapshot_every=args.snapshot_every,
        serve_snapshot_keep=args.snapshot_keep,
        serve_idle_timeout_s=args.idle_timeout,
    )
    server = ColoringServer(
        cfg,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        snapshot_path=args.snapshot_path,
        restore=args.restore,
        fault_plan=fault_plan,
        metrics_port=args.metrics_port,
    )
    asyncio.run(server.run_until_stopped())
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """One-shot Prometheus metrics: scrape a live daemon's registry over
    the framed protocol, or (no endpoint given) run a small local
    coloring with metrics armed and print what it measured."""
    if (args.socket is not None) and (args.port is not None):
        raise SystemExit("repro top: pass at most one of --socket / --port")
    if args.socket is not None or args.port is not None:
        from repro.serve.client import ServeClient

        with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port, retries=3
        ) as client:
            text = client.metrics()
        sys.stdout.write(text)
        return 0
    from repro import obs

    obs.enable(tracing=False, metrics=True)
    graph = make_graph(args.family, args.n, args.avg_degree, args.seed)
    cfg = ColoringConfig.practical(seed=args.seed, obs_metrics=True)
    result = BroadcastColoring(graph, cfg).run()
    sys.stdout.write(obs.render_metrics())
    return 0 if (result.proper and result.complete) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace export``: convert a span JSONL (captured with
    ``--trace path.jsonl``) to Perfetto trace_event JSON for
    https://ui.perfetto.dev, or re-emit normalized JSONL."""
    from repro import obs

    try:
        with open(args.input, "r", encoding="utf-8") as fp:
            spans = obs.read_jsonl(fp)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"repro trace export: cannot read {args.input}: {exc}")
    out = args.out
    if out is None:
        base = args.input
        if base.endswith(".jsonl"):
            base = base[: -len(".jsonl")]
        out = base + (".perfetto.json" if args.format == "perfetto" else ".out.jsonl")
    with open(out, "w", encoding="utf-8") as fp:
        if args.format == "perfetto":
            obs.write_perfetto(spans, fp)
        else:
            obs.write_jsonl(spans, fp)
    print(f"{len(spans)} span(s) -> {out}", file=sys.stderr)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, chaos_dynamic, chaos_serve, chaos_shard

    try:
        plan = FaultPlan.load(args.plan)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro chaos: cannot load --plan: {exc}")
    # Per-target defaults mirror the chaos_* signatures; explicit flags win.
    defaults = {
        "shard": ("geometric", 2000, 12.0, 7),
        "dynamic": ("gnp-churn", 800, 8.0, 3),
        "serve": ("gnp-churn", 300, 8.0, 5),
    }[args.target]
    family = args.family if args.family is not None else defaults[0]
    n = args.n if args.n is not None else defaults[1]
    avg_degree = args.avg_degree if args.avg_degree is not None else defaults[2]
    seed = args.seed if args.seed is not None else defaults[3]
    if args.target == "shard":
        report = chaos_shard(
            plan, family=family, n=n, avg_degree=avg_degree,
            seed=seed, k=args.k, workers=args.workers,
        )
    elif args.target == "dynamic":
        report = chaos_dynamic(
            plan, family=family, n=n, avg_degree=avg_degree,
            seed=seed, batches=args.batches,
        )
    else:
        report = chaos_serve(
            plan, family=family, n=n, avg_degree=avg_degree,
            seed=seed, batches=args.batches,
        )
    _emit(report, args.json)
    return 0 if report["oracle_ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Coloring Fast with Broadcasts (SPAA 2023) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_arg(allowed: tuple[str, ...]):
        """Argparse type validating the family's *base* name, so
        'edgelist:PATH' passes while typos still get a clean usage
        error instead of a traceback (choices= can't express this)."""

        def check(value: str) -> str:
            from repro.graphs.families import split_family

            base, arg = split_family(value)
            if base not in allowed:
                raise argparse.ArgumentTypeError(
                    f"invalid family {value!r} (choose a base from {allowed})"
                )
            if base == "edgelist" and not arg:
                raise argparse.ArgumentTypeError(
                    "edgelist family needs a path: 'edgelist:/path/to/file'"
                )
            if base != "edgelist" and arg is not None:
                raise argparse.ArgumentTypeError(
                    f"family {base!r} takes no ':' argument (got {value!r})"
                )
            return value

        return check

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", default="gnp", type=family_arg(FAMILIES),
                       help=f"one of {FAMILIES}; 'edgelist:PATH' loads a "
                            "whitespace/CSV edge-list file")
        p.add_argument("--n", type=int, default=2000)
        p.add_argument("--avg-degree", type=float, default=40.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")

    def runner_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="process-pool size (1 = run inline, the default)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="JSONL result store; cached trials are skipped on re-runs")
        p.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                       help="reuse results already in --out "
                            "(--no-resume truncates the store first)")
        p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-trial wall-clock budget")
        p.add_argument("--progress", action=argparse.BooleanOptionalAction, default=False,
                       help="per-trial progress lines on stderr")

    def trace_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record a span trace of the run: Perfetto "
                            "trace_event JSON (load at ui.perfetto.dev), "
                            "or span JSONL when PATH ends in .jsonl")

    p_color = sub.add_parser("color", help="run the full pipeline on one graph")
    common(p_color)
    trace_flag(p_color)
    p_color.add_argument("--paper-constants", action="store_true",
                         help="use the published constants instead of the practical preset")
    p_color.set_defaults(fn=cmd_color)

    p_cmp = sub.add_parser("compare", help="ours vs Johansson vs Luby across seeds")
    common(p_cmp)
    runner_flags(p_cmp)
    p_cmp.add_argument("--seeds", type=int, default=3)
    p_cmp.set_defaults(fn=cmd_compare)

    p_dec = sub.add_parser("decompose", help="run + validate the ε-ACD on a planted graph")
    p_dec.add_argument("--cliques", type=int, default=6)
    p_dec.add_argument("--size", type=int, default=56)
    p_dec.add_argument("--sparse", type=int, default=100)
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(fn=cmd_decompose)

    p_churn = sub.add_parser(
        "churn", help="maintain a coloring across a stream of topology updates"
    )
    p_churn.add_argument(
        "--family", default="gnp-churn",
        type=family_arg(CHURN_FAMILIES + FAMILIES),
        help=f"churn family {CHURN_FAMILIES} or any static family "
             f"{FAMILIES} (sliding-window churn over its initial graph)")
    p_churn.add_argument("--n", type=int, default=2000)
    p_churn.add_argument("--avg-degree", type=float, default=40.0)
    p_churn.add_argument("--seed", type=int, default=0)
    p_churn.add_argument("--batches", type=int, default=8,
                         help="number of update batches")
    p_churn.add_argument("--churn", type=float, default=0.05, metavar="FRACTION",
                         help="per-batch churn intensity (edge fraction / step scale)")
    p_churn.add_argument("--k", type=int, default=1,
                         help="shard count: 1 = single dynamic engine, >1 = "
                              "delta-routed sharded maintenance "
                              "(repro.shard.dynamic)")
    p_churn.add_argument("--strategy", default="contiguous",
                         choices=list(STRATEGIES),
                         help="partition strategy when --k > 1")
    p_churn.add_argument("--fallback-fraction", type=float, default=0.25,
                         help="conflicted fraction above which the engine "
                              "recolors from scratch (>=1 never, <0 always)")
    p_churn.add_argument("--json", action="store_true")
    trace_flag(p_churn)
    p_churn.set_defaults(fn=cmd_churn)

    p_shard = sub.add_parser(
        "shard", help="partitioned coloring: k shard workers + cut reconciliation"
    )
    common(p_shard)
    p_shard.add_argument("--k", type=int, default=4,
                         help="number of shards (1 = the single-process pipeline)")
    p_shard.add_argument("--strategy", default="contiguous", choices=list(STRATEGIES),
                         help="partition strategy (greedy = METIS-like balanced cut)")
    p_shard.add_argument("--workers", type=int, default=1,
                         help="process-pool size for shard interiors "
                              "(1 = color shards inline, same results)")
    p_shard.add_argument("--transport", default="shm", choices=list(TRANSPORTS),
                         help="how workers receive their shard: 'shm' attaches a "
                              "zero-copy shared-memory arena, 'pickle' ships the "
                              "view arrays through the pool pipe (same results)")
    p_shard.add_argument("--victim", default="id", choices=["id", "slack"],
                         help="conflict victim selection during reconciliation")
    p_shard.add_argument("--verbose", action="store_true",
                         help="also print the per-sweep reconcile table "
                              "(victims / halo / repair rounds / seconds per shard)")
    trace_flag(p_shard)
    p_shard.set_defaults(fn=cmd_shard)

    p_sweep = sub.add_parser("sweep", help="rounds vs n with growth-shape fits")
    common(p_sweep)
    runner_flags(p_sweep)
    p_sweep.add_argument("--min-exp", type=int, default=8)
    p_sweep.add_argument("--max-exp", type=int, default=12)
    p_sweep.add_argument("--seeds", type=int, default=2)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bench = sub.add_parser(
        "bench", help="replay a TOML/JSON spec matrix through the trial runner"
    )
    p_bench.add_argument("specfile", help="spec matrix file (see EXPERIMENTS.md)")
    p_bench.add_argument("--json", action="store_true")
    p_bench.add_argument("--track", default=None, metavar="PATH",
                         help="append mean per-phase wall-clock timings to the "
                              "BENCH_*.json trajectory at PATH (see EXPERIMENTS.md)")
    p_bench.add_argument("--track-label", default=None, metavar="LABEL",
                         help="entry label for --track (default: repro-bench)")
    runner_flags(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the streaming coloring daemon (wire spec: docs/PROTOCOL.md, "
             "operations: docs/RUNBOOK.md)",
    )
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="listen on a unix socket at PATH")
    p_serve.add_argument("--port", type=int, default=None,
                         help="listen on TCP PORT instead of a unix socket")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address for --port (default 127.0.0.1; "
                              "the protocol has no auth — see the runbook)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="base config seed (load_graph can override)")
    p_serve.add_argument("--queue-max", type=int, default=64,
                         help="ingest-queue depth before update_batch "
                              "is rejected with queue-full")
    p_serve.add_argument("--coalesce-max", type=int, default=8,
                         help="max queued batches merged into one apply "
                              "(1 disables coalescing)")
    p_serve.add_argument("--snapshot-every", type=int, default=0,
                         help="snapshot every N applied batches "
                              "(0 = only on shutdown/request)")
    p_serve.add_argument("--snapshot-path", default=None, metavar="PATH",
                         help="where periodic/final snapshots go")
    p_serve.add_argument("--restore", default=None, metavar="PATH",
                         help="warm-start the engine from a snapshot")
    p_serve.add_argument("--snapshot-keep", type=int, default=2,
                         help="rotated snapshot generations kept on disk "
                              "(.1, .2, ... — restore falls back through them)")
    p_serve.add_argument("--idle-timeout", type=float, default=0.0,
                         metavar="SECONDS",
                         help="disconnect sessions idle for this long "
                              "(0 = never)")
    p_serve.add_argument("--fault-plan", default=None, metavar="PATH",
                         help="arm a TOML fault plan (chaos testing only; "
                              "see docs/RUNBOOK.md)")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="also serve the Prometheus text exposition "
                              "over HTTP on this loopback port "
                              "(GET /metrics; same text as the "
                              "'metrics' protocol verb)")
    p_serve.set_defaults(fn=cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="one-shot Prometheus metrics: from a live daemon "
             "(--socket/--port) or a small local sample run",
    )
    p_top.add_argument("--socket", default=None, metavar="PATH",
                       help="scrape the daemon on this unix socket")
    p_top.add_argument("--port", type=int, default=None,
                       help="scrape the daemon on this TCP port")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--family", default="gnp", type=family_arg(FAMILIES),
                       help="local-run graph family (no daemon endpoint)")
    p_top.add_argument("--n", type=int, default=1000)
    p_top.add_argument("--avg-degree", type=float, default=20.0)
    p_top.add_argument("--seed", type=int, default=0)
    p_top.set_defaults(fn=cmd_top)

    p_trace = sub.add_parser(
        "trace", help="work with span traces captured via --trace"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_cmd", required=True)
    p_texp = trace_sub.add_parser(
        "export",
        help="convert a span JSONL to Perfetto trace_event JSON "
             "(load at ui.perfetto.dev)",
    )
    p_texp.add_argument("input", help="span JSONL written by --trace path.jsonl")
    p_texp.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: derived from the input)")
    p_texp.add_argument("--format", default="perfetto",
                        choices=["perfetto", "jsonl"])
    p_texp.set_defaults(fn=cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a workload under a fault plan and check the recovery "
             "oracle (byte-equal colors vs a fault-free run)",
    )
    p_chaos.add_argument("target", choices=["shard", "dynamic", "serve"],
                         help="which supervised subsystem to attack")
    p_chaos.add_argument("--plan", required=True, metavar="PATH",
                         help="TOML fault plan (see benchmarks/plans/faults_*.toml)")
    p_chaos.add_argument("--family", default=None,
                         help="graph family (default: geometric for shard, "
                              "gnp-churn for dynamic/serve)")
    p_chaos.add_argument("--n", type=int, default=None)
    p_chaos.add_argument("--avg-degree", type=float, default=None)
    p_chaos.add_argument("--seed", type=int, default=None)
    p_chaos.add_argument("--k", type=int, default=4,
                         help="shards (target=shard)")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="shard worker pool size (target=shard)")
    p_chaos.add_argument("--batches", type=int, default=8,
                         help="churn batches (target=dynamic/serve)")
    p_chaos.add_argument("--json", action="store_true")
    p_chaos.set_defaults(fn=cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
