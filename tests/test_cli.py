"""Tests for the CLI (python -m repro ...)."""

import json

import pytest

from repro.cli import build_parser, main, make_graph
from repro.simulator.network import BroadcastNetwork


class TestMakeGraph:
    @pytest.mark.parametrize(
        "family", ["gnp", "blobs", "geometric", "hardmix", "planted"]
    )
    def test_families_produce_valid_graphs(self, family):
        g = make_graph(family, 300, 24.0, seed=1)
        net = BroadcastNetwork(g)
        assert net.n >= 200
        assert net.m > 0

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            make_graph("nope", 100, 10.0, 0)

    def test_deterministic(self):
        import numpy as np

        a = make_graph("gnp", 200, 20.0, seed=3)[1]
        b = make_graph("gnp", 200, 20.0, seed=3)[1]
        assert np.array_equal(a, b)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_color_defaults(self):
        args = build_parser().parse_args(["color"])
        assert args.family == "gnp"
        assert args.n == 2000

    def test_sweep_args(self):
        args = build_parser().parse_args(
            ["sweep", "--min-exp", "8", "--max-exp", "9", "--seeds", "1"]
        )
        assert args.min_exp == 8 and args.max_exp == 9

    def test_typoed_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["color", "--family", "bogus"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "invalid family" in capsys.readouterr().err

    def test_edgelist_family_passes_parser(self):
        args = build_parser().parse_args(["color", "--family", "edgelist:x.txt"])
        assert args.family == "edgelist:x.txt"

    def test_churn_parser_accepts_churn_and_static_families(self):
        assert build_parser().parse_args(["churn"]).family == "gnp-churn"
        args = build_parser().parse_args(["churn", "--family", "geometric"])
        assert args.family == "geometric"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--family", "bogus"])


class TestCommands:
    def test_color_runs_and_succeeds(self, capsys):
        rc = main(["color", "--n", "300", "--avg-degree", "20", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds_total" in out

    def test_color_json_output(self, capsys):
        rc = main(["color", "--n", "200", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["proper"] and data["complete"]

    @staticmethod
    def assert_fill_rows(rows, metrics, cap):
        """Each phase's JSON row is its RoundMetrics account plus fill =
        payload bits / (messages × cap)."""
        assert set(rows) == set(metrics.phases)
        for name, stats in metrics.phases.items():
            row = rows[name]
            assert row["rounds"] == stats.rounds
            assert row["messages"] == stats.messages
            assert row["total_bits"] == stats.total_bits
            assert row["max_message_bits"] == stats.max_message_bits <= cap
            if stats.messages:
                fill = stats.total_bits / (stats.messages * cap)
                assert row["fill"] == pytest.approx(fill, abs=1e-4)
                assert 0 < row["fill"] <= 1
            else:
                assert row["fill"] is None

    def test_color_json_reports_phase_fill(self, capsys):
        from repro.config import ColoringConfig
        from repro.core.algorithm import BroadcastColoring

        assert main(["color", "--n", "300", "--avg-degree", "20", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["phases"]
        algo = BroadcastColoring(make_graph("gnp", 300, 20.0, 0), ColoringConfig.practical())
        metrics = algo.run().metrics
        self.assert_fill_rows(rows, metrics, algo.net.bandwidth_bits)

    def test_churn_json_reports_phase_fill(self, capsys):
        from repro.config import ColoringConfig
        from repro.dynamic import DynamicColoring
        from repro.graphs.families import make_churn

        argv = ["churn", "--n", "300", "--avg-degree", "12", "--batches", "3", "--json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["phases"]
        cfg = ColoringConfig.practical(seed=0, dynamic_batches=3)
        schedule = make_churn(
            "gnp-churn", 300, 12.0, 0, batches=3,
            churn_fraction=cfg.dynamic_churn_fraction,
        )
        engine = DynamicColoring(schedule, cfg)
        engine.run(schedule)
        self.assert_fill_rows(rows, engine.net.metrics, engine.net.bandwidth_bits)
        assert rows["dynamic/delta"]["messages"] > 0

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_shard_refuses_bad_workers(self, value):
        """``repro shard`` exits non-zero naming ``--workers``, as
        ``repro serve`` names its flags: 0 and −3 used to run inline."""
        with pytest.raises(SystemExit) as exc:
            main(["shard", "--n", "200", "--k", "2", "--workers", value])
        assert isinstance(exc.value.code, str) and "--workers" in exc.value.code

    def test_color_paper_constants(self, capsys):
        rc = main(["color", "--n", "200", "--paper-constants", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["complete"]

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--family", "blobs", "--n", "256", "--avg-degree", "32",
             "--seeds", "2", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["runs"]) == 2
        assert data["mean_johansson"] > 0

    def test_decompose(self, capsys):
        rc = main(["decompose", "--cliques", "3", "--size", "40", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cliques_found"] == 3
        assert data["validator"]["ok"]

    def test_decompose_json_reports_who_spoke(self, capsys):
        """``phases`` shows the flag round and the sketch's senders: all n
        nodes send a flag, then only the endpoints of the candidates'
        edges send, in each sketch round."""
        import numpy as np

        from repro.config import ColoringConfig
        from repro.decomposition.acd import MINHASH_BITS, decompose_distributed
        from repro.graphs.generators import planted_acd_graph

        assert main(["decompose", "--cliques", "3", "--size", "40", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["phases"]
        cfg = ColoringConfig.practical(seed=0)
        g = planted_acd_graph(3, 40, cfg.eps, sparse_nodes=100, seed=0)
        net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
        candidate = net.degrees >= (1.0 - 2.0 * cfg.eps) * net.delta
        edges = net.undirected_edges()
        senders = np.unique(edges[candidate[edges[:, 0]] | candidate[edges[:, 1]]]).size
        per_message = net.bandwidth_bits // MINHASH_BITS
        sketch_rounds = -(-cfg.acd_minhash_samples // per_message)
        assert 0 < senders < net.n
        assert rows["acd/sketch"]["rounds"] == 1 + sketch_rounds
        assert rows["acd/sketch"]["messages"] == net.n + senders * sketch_rounds
        decompose_distributed(net, cfg)
        self.assert_fill_rows(rows, net.metrics, net.bandwidth_bits)

    def test_sweep(self, capsys):
        rc = main(
            ["sweep", "--family", "gnp", "--avg-degree", "16",
             "--min-exp", "8", "--max-exp", "9", "--seeds", "1", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 2
        assert "fit_ours" in data


SWEEP_ARGS = ["sweep", "--family", "gnp", "--avg-degree", "12",
              "--min-exp", "7", "--max-exp", "8", "--seeds", "1", "--json"]


class TestRunnerBackedCommands:
    """compare/sweep/bench now execute through repro.runner; the CLI
    contract is that worker count and caching never change the output."""

    def test_sweep_workers_byte_identical(self, capsys):
        assert main(SWEEP_ARGS + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(SWEEP_ARGS + ["--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert json.loads(serial)["trials"]["computed"] == 4

    def test_sweep_out_store_resumes(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        assert main(SWEEP_ARGS + ["--workers", "2", "--out", store]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["trials"]["cached"] == 0
        assert main(SWEEP_ARGS + ["--workers", "2", "--out", store]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["trials"]["computed"] == 0
        assert second["trials"]["cached"] == second["trials"]["trials"]
        assert first["rows"] == second["rows"]

    def test_sweep_no_resume_recomputes(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        assert main(SWEEP_ARGS + ["--out", store]) == 0
        capsys.readouterr()
        assert main(SWEEP_ARGS + ["--out", store, "--no-resume"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trials"]["cached"] == 0

    def test_compare_json_through_runner(self, capsys):
        rc = main(["compare", "--family", "gnp", "--n", "128", "--avg-degree",
                   "10", "--seeds", "2", "--workers", "2", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["seed"] for r in data["runs"]] == [0, 1]
        assert data["trials"] == {"trials": 6, "ok": 6, "failed": 0,
                                  "cached": 0, "computed": 6}

    def test_bench_json_spec_file(self, capsys, tmp_path):
        specfile = tmp_path / "m.json"
        specfile.write_text(json.dumps({"matrix": {
            "family": "gnp", "n": [96, 128], "avg_degree": 10, "seeds": 1,
            "algorithm": ["broadcast", "johansson"],
        }}))
        rc = main(["bench", str(specfile), "--workers", "2", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trials"]["ok"] == 4
        assert len(data["rows"]) == 4
        assert "gnp/broadcast" in data["fits"]
        assert data["summary"]["rounds"]["count"] == 4

    def test_bench_toml_spec_file(self, capsys, tmp_path):
        specfile = tmp_path / "m.toml"
        specfile.write_text(
            '[matrix]\nfamily = "gnp"\nn = 96\navg_degree = 10\nseeds = 1\n'
        )
        rc = main(["bench", str(specfile), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["trials"]["ok"] == 1

    def test_bench_missing_file_exits(self):
        with pytest.raises(SystemExit):
            main(["bench", "/nonexistent/specs.toml", "--json"])

    def test_progress_lines_on_stderr(self, capsys):
        assert main(SWEEP_ARGS + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "[4/4]" in err
