"""Tests for the parallel experiment runner (repro.runner).

The three properties the subsystem promises (DESIGN.md, "Experiment
runner"): determinism across worker counts, resume from a partial store,
and failure isolation (errors/timeouts become records, not crashes).
"""

from __future__ import annotations

import json

import pytest

from repro.runner import (
    ParallelRunner,
    ResultStore,
    TrialResult,
    TrialSpec,
    expand_matrix,
    fit_rounds,
    load_matrix,
    mean_by,
    run_trial,
    series,
    spec_key,
)

TINY_MATRIX = {
    "family": "gnp",
    "n": [96, 128],
    "avg_degree": 10,
    "seeds": 2,
    "algorithm": ["broadcast", "johansson"],
}


def tiny_specs() -> list[TrialSpec]:
    return expand_matrix(TINY_MATRIX)


def payload_bytes(report) -> bytes:
    return json.dumps(report.payloads(), sort_keys=True).encode()


class TestSpec:
    def test_key_is_stable_and_content_addressed(self):
        a = TrialSpec(family="gnp", n=100, seed=1)
        b = TrialSpec(family="gnp", n=100, seed=1)
        c = TrialSpec(family="gnp", n=100, seed=2)
        assert a.key == b.key == spec_key(a)
        assert a.key != c.key

    def test_overrides_are_canonicalised(self):
        a = TrialSpec(overrides=(("eps", 0.2), ("beta", 3.0)))
        b = TrialSpec(overrides=(("beta", 3.0), ("eps", 0.2)))
        assert a.key == b.key

    def test_round_trips_through_dict(self):
        spec = TrialSpec(family="blobs", n=64, avg_degree=16.0, seed=7,
                         algorithm="luby", overrides=(("eps", 0.2),))
        assert TrialSpec.from_dict(spec.as_dict()) == spec

    def test_rejects_unknown_algorithm_and_family(self):
        with pytest.raises(ValueError):
            TrialSpec(algorithm="magic")
        with pytest.raises(ValueError):
            TrialSpec(family="nope")

    def test_graph_seed_shared_across_algorithms(self):
        ours = TrialSpec(n=100, seed=3, algorithm="broadcast")
        base = TrialSpec(n=100, seed=3, algorithm="johansson")
        assert ours.graph_seed() == base.graph_seed()
        assert ours.algo_seed() != base.algo_seed()

    def test_expand_matrix_cross_product(self):
        specs = tiny_specs()
        assert len(specs) == 2 * 2 * 2  # n × seeds × algorithms
        assert len({s.key for s in specs}) == len(specs)

    def test_expand_matrix_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            expand_matrix({"family": "gnp", "banana": 1})
        with pytest.raises(ValueError):
            expand_matrix({"seed": [1], "seeds": 2})


class TestMatrixFiles:
    def test_toml_matrix(self, tmp_path):
        f = tmp_path / "m.toml"
        f.write_text(
            '[matrix]\nfamily = "gnp"\nn = [64, 96]\nseeds = 2\n'
            'algorithm = ["broadcast", "johansson"]\n'
        )
        specs = load_matrix(f)
        assert len(specs) == 8

    def test_json_matrix_with_explicit_trials(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "matrix": {"family": "gnp", "n": 64, "seeds": 1},
            "trial": [{"family": "blobs", "n": 128, "algorithm": "luby"}],
        }))
        specs = load_matrix(f)
        assert len(specs) == 2
        assert specs[1].family == "blobs" and specs[1].algorithm == "luby"

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("{}")
        with pytest.raises(ValueError):
            load_matrix(f)

    def test_repo_spec_files_load(self):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "specs"
        for spec_file in sorted(specs_dir.glob("*.toml")):
            assert load_matrix(spec_file), spec_file


class TestRunTrial:
    def test_broadcast_payload(self):
        res = run_trial(TrialSpec(family="gnp", n=80, avg_degree=8, seed=1))
        assert res.ok
        assert res.payload["proper"] and res.payload["complete"]
        assert res.payload["rounds"] >= 0
        assert res.payload["n"] == 80

    @pytest.mark.parametrize("algo", ["johansson", "luby", "greedy"])
    def test_baseline_payloads(self, algo):
        res = run_trial(TrialSpec(family="gnp", n=80, avg_degree=8,
                                  seed=1, algorithm=algo))
        assert res.ok and res.payload["proper"]
        assert res.payload["num_colors_used"] >= 1

    def test_pure_function_of_spec(self):
        spec = TrialSpec(family="blobs", n=96, avg_degree=16, seed=5)
        assert run_trial(spec).payload == run_trial(spec).payload

    def test_timeout_becomes_record(self):
        spec = TrialSpec(family="gnp", n=4096, avg_degree=32, seed=0)
        res = run_trial(spec, timeout_s=0.001)
        assert res.status == "timeout"
        assert not res.ok and res.payload == {}


class TestStore:
    def test_add_and_lookup(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        spec = TrialSpec(family="gnp", n=96, avg_degree=10, seed=0)
        result = run_trial(spec)
        store.add(result)
        reloaded = ResultStore(tmp_path / "s.jsonl")
        hit = reloaded.lookup(spec)
        assert hit is not None and hit.cached
        assert hit.payload == result.payload

    def test_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.add(run_trial(TrialSpec(family="gnp", n=96, avg_degree=10, seed=0)))
        with path.open("a") as fh:
            fh.write('{"key": "deadbeef", "spec": {"fam')  # simulated crash
        assert len(ResultStore(path)) == 1

    def test_no_resume_truncates(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.add(run_trial(TrialSpec(family="gnp", n=96, avg_degree=10, seed=0)))
        assert len(ResultStore(path, resume=False)) == 0
        assert path.read_text() == ""


class TestParallelRunner:
    def test_workers_4_byte_identical_to_workers_1(self):
        specs = tiny_specs()
        serial = ParallelRunner(workers=1).run(specs)
        parallel = ParallelRunner(workers=4).run(specs)
        assert payload_bytes(serial) == payload_bytes(parallel)
        assert [r.key for r in serial.results] == [r.key for r in parallel.results]

    def test_duplicate_specs_run_once(self):
        specs = tiny_specs()
        report = ParallelRunner(workers=1).run(specs + specs)
        assert len(report.results) == len(specs)

    def test_store_caches_everything_on_second_run(self, tmp_path):
        specs = tiny_specs()
        path = tmp_path / "s.jsonl"
        first = ParallelRunner(workers=2, store=ResultStore(path)).run(specs)
        assert first.summary()["computed"] == len(specs)
        lines_after_first = path.read_text().count("\n")
        second = ParallelRunner(workers=2, store=ResultStore(path)).run(specs)
        assert second.summary() == {
            "trials": len(specs), "ok": len(specs), "failed": 0,
            "cached": len(specs), "computed": 0,
        }
        assert path.read_text().count("\n") == lines_after_first  # nothing re-written
        assert payload_bytes(first) == payload_bytes(second)

    def test_same_store_object_reused_in_process(self, tmp_path):
        specs = tiny_specs()
        store = ResultStore(tmp_path / "s.jsonl")  # one live object, two runs
        first = ParallelRunner(workers=1, store=store).run(specs)
        second = ParallelRunner(workers=1, store=store).run(specs)
        assert first.computed_count == len(specs) and first.cached_count == 0
        assert second.cached_count == len(specs) and second.computed_count == 0
        assert payload_bytes(first) == payload_bytes(second)

    def test_resume_from_partial_store(self, tmp_path):
        specs = tiny_specs()
        path = tmp_path / "s.jsonl"
        half = specs[: len(specs) // 2]
        ParallelRunner(workers=1, store=ResultStore(path)).run(half)
        resumed = ParallelRunner(workers=2, store=ResultStore(path)).run(specs)
        assert resumed.cached_count == len(half)
        assert resumed.computed_count == len(specs) - len(half)
        fresh = ParallelRunner(workers=1).run(specs)
        assert payload_bytes(resumed) == payload_bytes(fresh)

    def test_failures_are_isolated_and_not_stored(self, tmp_path, monkeypatch):
        import repro.runner.execute as execute

        def boom(spec):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(execute, "_measure", boom)
        path = tmp_path / "s.jsonl"
        specs = tiny_specs()[:2]
        report = ParallelRunner(workers=1, store=ResultStore(path)).run(specs)
        assert len(report.failed) == 2
        assert all(r.status == "error" and "kaboom" in r.error for r in report.failed)
        assert len(ResultStore(path)) == 0  # failures retry on resume

    def test_progress_callback_sees_every_trial(self):
        seen = []
        runner = ParallelRunner(
            workers=1, progress=lambda done, total, r: seen.append((done, total))
        )
        specs = tiny_specs()
        runner.run(specs)
        assert seen == [(i + 1, len(specs)) for i in range(len(specs))]

    @pytest.mark.parametrize(
        "setting,value",
        [
            ("workers", 0), ("workers", -3), ("workers", 2.7), ("workers", True),
            ("timeout_s", -1.0), ("timeout_s", 0), ("timeout_s", float("nan")),
            ("timeout_s", float("inf")), ("timeout_s", "5"),
        ],
    )
    def test_refuses_bad_settings(self, setting, value):
        """A worker count below 1 or not an int, and a timeout that is not
        a finite number > 0, are refused by name: ``workers=0`` used to
        run inline, and a negative timeout timed out pooled trials that
        an inline run completed."""
        with pytest.raises(ValueError, match=f"^{setting} "):
            ParallelRunner(**{setting: value})


class TestAggregate:
    @pytest.fixture(scope="class")
    def payloads(self):
        return ParallelRunner(workers=1).run(tiny_specs()).payloads()

    def test_mean_by_groups_sorted(self, payloads):
        means = mean_by(payloads, ["algorithm", "n"])
        # sorted by algorithm name, then *numerically* by n (96 before 128)
        assert list(means) == [
            ("broadcast", 96), ("broadcast", 128),
            ("johansson", 96), ("johansson", 128),
        ]

    def test_series_filters_and_sorts(self, payloads):
        xs, ys = series(payloads, where={"algorithm": "johansson"})
        assert xs == [96, 128]
        assert all(y >= 0 for y in ys)

    def test_fit_rounds(self, payloads):
        fit = fit_rounds(payloads, where={"algorithm": "broadcast"})
        assert fit is not None and fit.best in (
            "constant", "log* n", "log log n", "log^3 log n", "log n"
        )
        assert fit_rounds([], where=None) is None


class TestResultRecord:
    def test_record_round_trip_drops_runtime_flags(self):
        result = run_trial(TrialSpec(family="gnp", n=96, avg_degree=10, seed=0))
        result.cached = True
        rec = result.record()
        assert "cached" not in rec
        back = TrialResult.from_record(rec)
        assert not back.cached
        assert back.payload == result.payload and back.spec == result.spec
