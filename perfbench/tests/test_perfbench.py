"""The benchmark's own tests: run them with ``python3 -m pytest perfbench/tests``.

The end-to-end tests launch ``perfbench/run.py`` in a fresh interpreter per
run, from the repository root, at the shortest run length (each workload's
``min_ops``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from inputs import ChurnMirror, edge_keys, geometric_graph, planted_graph
from run import END_TO_END, end_to_end, per_layer_spec, tail, tail_percentile
from workloads import RECIPES, check_coloring, churn_inputs, op_count

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SHORT = "0.1"  # seconds: every workload runs its min_ops


def _run(workload: str, seed: int, cwd: Path = ROOT, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SHORT, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


# ---------------------------------------------------------------------------
# tail-percentile rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("count", [11, 19, 20, 21, 25, 40, 99, 100, 101, 280, 400, 1000, 2000])
def test_tail_is_highest_percentile_with_ten_beyond(count):
    samples = list(np.random.default_rng(count).permutation(count).astype(float))
    value, p = tail(samples)
    assert p == tail_percentile(count)
    assert sum(s > value for s in samples) >= 10
    # One percentile higher would leave fewer than ten samples beyond.
    assert count - -(-(p + 1) * count // 100) < 10


@pytest.mark.parametrize("count", [1, 5, 10])
def test_tail_without_ten_samples_is_the_maximum(count):
    samples = [float(x) for x in range(count)]
    assert tail(samples) == (count - 1.0, 100)


def test_output_records_tail_percentile_and_sample_count():
    out = SimpleNamespace(
        op_ms=[float(x) for x in range(40)],
        read_ms=[float(x) for x in range(400)],
        setup_s=[1.0, 2.0, 3.0],
        rounds=[3] * 40,
        bits=[10] * 40,
        peak_rss_mb=1.0,
    )
    values, info = end_to_end(out)
    assert info["op_tail_percentile"] == 75 and info["op_samples"] == 40
    assert info["op_tail_ms"] == 29.0  # nearest rank 30 of 40: ten beyond
    assert info["read_tail_percentile"] == 97 and info["read_samples"] == 400
    assert info["read_tail_ms"] == 387.0  # rank 388 of 400: twelve beyond
    assert values["setup_s"] == 2.0


# ---------------------------------------------------------------------------
# inputs and checks
# ---------------------------------------------------------------------------
def test_geometric_graph_matches_brute_force():
    n = 600
    edges = geometric_graph(n, 10, np.random.default_rng(3))
    pts = np.random.default_rng(3).random((n, 2))
    radius2 = 10 / (np.pi * n)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    iu, jv = np.triu_indices(n, 1)
    near = d2[iu, jv] <= radius2
    assert np.array_equal(edge_keys(edges, n), iu[near] * n + jv[near])


def test_churn_mirror_batches_are_valid_for_the_network():
    from repro.dynamic.events import UpdateBatch
    from repro.simulator.network import BroadcastNetwork

    n = 3000
    edges = geometric_graph(n, 10, np.random.default_rng(1))
    mirror = ChurnMirror(n, edges, 0.01, 0.002, 2, np.random.default_rng(2))
    net = BroadcastNetwork((n, edges))
    for _ in range(8):
        batch = UpdateBatch(**mirror.next_batch())
        gone = np.zeros(n, dtype=bool)
        gone[batch.departures] = True
        und = net.undirected_edges()
        incident = und[gone[und[:, 0]] | gone[und[:, 1]]]
        report = net.apply_delta(batch.insert_edges, np.concatenate([batch.delete_edges, incident]))
        assert report.ignored == 0  # no insert of a live edge, no delete of an absent one
        assert np.array_equal(edge_keys(net.undirected_edges(), n), mirror.keys)
        assert not mirror.alive[batch.departures].any()


def test_check_coloring_catches_each_failure_kind():
    n, edges = planted_graph(2, 5, 4, np.random.default_rng(0))
    keys = edge_keys(edges, n)
    from repro.core.algorithm import BroadcastColoring

    colors = BroadcastColoring((n, edges)).run().colors
    assert check_coloring(colors, keys, n) is None
    bad = colors.copy()
    bad[edges[0, 1]] = bad[edges[0, 0]]
    assert check_coloring(bad, keys, n) == "improper"
    bad = colors.copy()
    bad[0] = -1
    assert check_coloring(bad, keys, n) == "active node uncolored"
    alive = np.ones(n, dtype=bool)
    alive[0] = False
    assert check_coloring(bad, keys, n, alive) is None
    bad = np.arange(n, dtype=np.int64)  # proper, but n colors
    assert "delta+1" in check_coloring(bad, keys, n)


# ---------------------------------------------------------------------------
# the declared contract
# ---------------------------------------------------------------------------
def test_benchmark_json_declares_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(RECIPES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_op_count_depends_only_on_run_length():
    for recipe in RECIPES.values():
        assert op_count(recipe, 0.1) == recipe["min_ops"]
        assert op_count(recipe, 600) > recipe["min_ops"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("static-planted", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# counts repeat exactly; every op checks out
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", list(RECIPES))
def test_counts_repeat_exactly_at_one_seed(workload):
    first = _parse(_run(workload, 5))
    second = _parse(_run(workload, 5))
    for report, result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert report["ops"] == RECIPES[workload]["min_ops"]
    (rep1, res1), (rep2, res2) = first, second
    assert rep1["ops"] == rep2["ops"]
    assert rep1["coloring_digest"] == rep2["coloring_digest"]
    for name in ("rounds_per_op", "bits_per_op"):
        assert res1["metrics"][name]["value"] == res2["metrics"][name]["value"]


def test_served_colors_equal_in_process_replay():
    from repro.config import ColoringConfig
    from repro.dynamic.engine import DynamicColoring
    from repro.dynamic.events import UpdateBatch

    report, result = _parse(_run("serve-stream", 9))
    n, edges, mirror, cfg_seed = churn_inputs(RECIPES["serve-stream"], 9)
    engine = DynamicColoring((n, edges), ColoringConfig.practical(seed=cfg_seed))
    for _ in range(report["ops"]):
        engine.apply_batch(UpdateBatch(**mirror.next_batch()))
    assert hashlib.sha256(engine.colors.tobytes()).hexdigest() == report["coloring_digest"]


def test_traced_run_emits_every_per_layer_metric():
    report, result = _parse(_run("churn-geo", 2, trace=1))
    assert [name for name in result["metrics"]] == [name for name, _, _ in per_layer_spec()]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fingerprints.minwise.calls"] == 0
    assert metrics["dynamic.apply_batch.calls"] == 1
    assert (ROOT / report["spans"]).is_file()
