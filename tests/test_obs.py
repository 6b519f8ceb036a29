"""The telemetry plane (`repro.obs`).

Four layers, in test-speed order:

* **the plane**: disarmed hooks are no-ops, spans nest per thread,
  buffers cap and count drops, enabling is idempotent and OR-ing.
* **the registry**: counter/gauge/histogram semantics, log2 bucket
  boundaries, Prometheus rendering.
* **export**: JSONL round-trip is lossless (property-tested), the
  parent/child forest reassembles identically, and the Perfetto
  document validates with the shard-lane layout.
* **integration**: spans cross the pool boundary from spawned shard
  workers (also under an injected ``shard.worker`` crash), and tracing
  never changes a coloring — byte-identical on vs off.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.config import ColoringConfig
from repro.faults import FaultPlan, FaultRule, plan as fplan
from repro.graphs.families import make_graph
from repro.obs.registry import NUM_BUCKETS, bucket_bounds, bucket_index
from repro.shard.engine import ShardedColoring
from repro.simulator.metrics import RoundMetrics


@pytest.fixture(autouse=True)
def always_disarmed():
    """No test may leak an armed plane (or fault plan) into the suite."""
    obs.disable()
    fplan.disarm()
    yield
    obs.disable()
    fplan.disarm()


# ----------------------------------------------------------------------
# Layer 1: the plane
# ----------------------------------------------------------------------
class TestPlane:
    def test_disarmed_hooks_are_noops(self):
        assert not obs.enabled()
        with obs.span("x", a=1):
            pass
        assert obs.start_span("x") is None
        obs.end_span(None)
        obs.count("c")
        obs.gauge_set("g", 1.0)
        obs.observe("h", 2.0)
        assert obs.drain_spans() == []
        assert obs.adopt_spans([{"name": "x"}]) == 0
        assert obs.registry() is None
        assert obs.render_metrics() == ""

    def test_span_nesting_parent_links(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner", shard=2):
                pass
            with obs.span("sibling"):
                pass
        spans = {s["name"]: s for s in obs.drain_spans()}
        assert spans["outer"]["parent"] == 0
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["sibling"]["parent"] == spans["outer"]["id"]
        assert spans["inner"]["attrs"] == {"shard": 2}
        assert all(s["dur"] >= 0 for s in spans.values())

    def test_unscoped_pairs_interleave(self):
        """start/end pairs may close out of order (RoundMetrics phase
        segments do under time_phase pause/resume) without corrupting
        the stack."""
        obs.enable()
        a = obs.start_span("a")
        b = obs.start_span("b")
        obs.end_span(a)  # out of order
        with obs.span("c"):
            pass
        obs.end_span(b)
        spans = {s["name"]: s for s in obs.drain_spans()}
        assert spans["b"]["parent"] == spans["a"]["id"]
        assert spans["c"]["parent"] == spans["b"]["id"]

    def test_buffer_cap_counts_drops(self):
        obs.enable(trace_buffer=2)
        for i in range(5):
            with obs.span(f"s{i}"):
                pass
        spans = obs.drain_spans()
        assert len(spans) == 2
        assert "repro_obs_spans_dropped_total 3" in obs.render_metrics()

    def test_adopted_spans_past_the_cap_are_counted(self):
        """Spans adopted from a worker into a full buffer count in
        ``repro_obs_spans_dropped_total`` as locally closed ones do."""
        state = obs.enable(trace_buffer=2)
        with obs.span("local"):
            pass
        foreign = [{"name": f"remote{i}", "ts": 1, "dur": 2, "pid": 999,
                    "tid": 1, "id": 70 + i, "parent": 0, "attrs": {}}
                   for i in range(4)]
        assert obs.adopt_spans(foreign) == 1
        assert state.dropped == 3
        assert "repro_obs_spans_dropped_total 3" in obs.render_metrics()

    def test_enable_is_idempotent_and_ors(self):
        state = obs.enable(tracing=False, metrics=True)
        obs.count("kept_total")
        assert obs.enable(tracing=True, metrics=False) is state
        assert obs.tracing_enabled() and obs.metrics_enabled()
        assert "kept_total 1" in obs.render_metrics()
        # Unless a caller asks for another cap, the buffer keeps the default.
        assert state.trace_buffer == obs.DEFAULT_TRACE_BUFFER

    def test_adopt_spans_merges(self):
        obs.enable()
        with obs.span("local"):
            pass
        foreign = [{"name": "remote", "ts": 1, "dur": 2, "pid": 999,
                    "tid": 1, "id": 77, "parent": 0, "attrs": {}}]
        assert obs.adopt_spans(foreign) == 1
        names = {s["name"] for s in obs.drain_spans()}
        assert names == {"local", "remote"}


# ----------------------------------------------------------------------
# Layer 2: the registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_bucket_boundaries(self):
        """log2 buckets: bucket i holds (2^(i-1), 2^i], bucket 0 holds
        everything ≤ 1, the last bucket absorbs the overflow tail."""
        assert bucket_index(0) == 0
        assert bucket_index(-5.0) == 0
        assert bucket_index(1.0) == 0
        assert bucket_index(1.5) == 1
        assert bucket_index(2.0) == 1
        assert bucket_index(2.0001) == 2
        assert bucket_index(4.0) == 2
        assert bucket_index(2.0**30) == 30
        assert bucket_index(2.0**31) == NUM_BUCKETS - 1
        assert bucket_index(float("inf")) == NUM_BUCKETS - 1
        bounds = bucket_bounds()
        assert len(bounds) == NUM_BUCKETS
        assert bounds[0] == 1.0 and bounds[-1] == float("inf")

    @given(st.floats(min_value=0.0, max_value=2.0**40, allow_nan=False))
    def test_bucket_index_consistent_with_bounds(self, value):
        idx = bucket_index(value)
        bounds = bucket_bounds()
        assert value <= bounds[idx]
        if idx > 0:
            assert value > bounds[idx - 1]

    def test_counter_gauge_histogram(self):
        obs.enable()
        reg = obs.registry()
        reg.counter("jobs_total", kind="a").inc()
        reg.counter("jobs_total", kind="a").inc(4)
        reg.counter("jobs_total", kind="b").inc()
        g = reg.gauge("depth")
        g.set(3.0)
        g.set(9.0)
        g.set(5.0)
        assert g.value == 5.0 and g.high_water == 9.0
        reg.histogram("lat_us").observe(1.0)
        reg.histogram("lat_us").observe(3.0)
        snap = reg.snapshot()
        assert snap["jobs_total"]["series"][0]["value"] == 5
        assert snap["lat_us"]["series"][0]["count"] == 2
        text = reg.render()
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{kind="a"} 5' in text
        assert 'lat_us_count 2' in text
        assert 'lat_us_sum 4' in text

    def test_drain_and_merge(self):
        """A drain hands over the counter and histogram increments and
        zeroes them; gauges stay.  Merging it twice adds it twice."""
        obs.enable()
        obs.count("jobs_total", 3, kind="a")
        obs.observe("lat_us", 5.0)
        obs.gauge_set("depth", 7.0)
        drained = obs.drain_metrics()
        assert set(drained) == {"jobs_total", "lat_us"}
        assert obs.drain_metrics() == {}
        assert obs.registry().snapshot()["depth"]["series"][0]["value"] == 7.0
        obs.adopt_metrics(drained)
        obs.adopt_metrics(drained)
        snap = obs.registry().snapshot()
        assert snap["jobs_total"]["series"][0] == {"labels": {"kind": "a"}, "value": 6.0}
        lat = snap["lat_us"]["series"][0]
        assert (lat["count"], lat["sum"], lat["buckets"][bucket_index(5.0)]) == (2, 10.0, 2)

    def test_kind_mismatch_raises(self):
        obs.enable()
        reg = obs.registry()
        reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")

    def test_prometheus_escaping(self):
        obs.enable()
        obs.count("odd_total", label='he said "hi"\\\n')
        text = obs.render_metrics()
        assert 'he said \\"hi\\"\\\\\\n' in text


# ----------------------------------------------------------------------
# Layer 3: export
# ----------------------------------------------------------------------
def _tree_shape(roots):
    """The comparable skeleton of a span forest."""
    return [
        (r["name"], r["id"], r["parent"], _tree_shape(r["children"]))
        for r in roots
    ]


@st.composite
def span_forests(draw):
    """Random well-formed span lists: ids 1..n, parent links acyclic
    (each span's parent has a smaller id or is 0)."""
    n = draw(st.integers(min_value=1, max_value=12))
    spans = []
    for sid in range(1, n + 1):
        parent = draw(st.integers(min_value=0, max_value=sid - 1))
        spans.append(
            {
                "name": draw(st.sampled_from(["a", "b", "c", "reconcile"])),
                "ts": draw(st.integers(min_value=0, max_value=10**9)),
                "dur": draw(st.integers(min_value=0, max_value=10**6)),
                "pid": draw(st.integers(min_value=1, max_value=4)),
                "tid": draw(st.integers(min_value=1, max_value=4)),
                "id": sid,
                "parent": parent,
                "attrs": draw(
                    st.dictionaries(
                        st.sampled_from(["shard", "sweep", "k"]),
                        st.integers(min_value=0, max_value=8),
                        max_size=2,
                    )
                ),
            }
        )
    return spans


class TestExport:
    @settings(max_examples=60, deadline=None)
    @given(span_forests())
    def test_jsonl_round_trip_identical_tree(self, spans):
        fp = io.StringIO()
        assert obs.write_jsonl(spans, fp) == len(spans)
        back = obs.read_jsonl(io.StringIO(fp.getvalue()))
        assert back == spans
        assert _tree_shape(obs.spans_to_tree(back)) == _tree_shape(
            obs.spans_to_tree(spans)
        )

    def test_read_jsonl_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            obs.read_jsonl(io.StringIO('{"name": "x"}\n'))

    def test_perfetto_lanes_and_validation(self):
        obs.enable()
        with obs.span("driver.step"):
            pass
        with obs.span("shard.color", shard=3):
            pass
        doc = obs.spans_to_perfetto(obs.drain_spans())
        assert obs.validate_perfetto(doc) == []
        lanes = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert lanes == {0, 4}  # driver lane 0, shard 3 on lane 4
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"driver", "shard 3"}

    def test_validate_perfetto_flags_problems(self):
        assert obs.validate_perfetto({}) == ["traceEvents is not a list"]
        bad = {"traceEvents": [{"ph": "X", "name": 3, "pid": 1, "tid": 1,
                                "ts": 0.0, "dur": -1}]}
        problems = obs.validate_perfetto(bad)
        assert any("missing name" in p for p in problems)
        assert any("bad dur" in p for p in problems)


# ----------------------------------------------------------------------
# Layer 4: integration with the engines
# ----------------------------------------------------------------------
def _shard_cfg():
    return ColoringConfig.practical(seed=7, shard_k=3)


GRAPH = make_graph("geometric", 900, 10.0, 7)


def _counts(snapshot):
    """Each counter's value and each histogram's count, by name and
    labels; histogram sums are wall-clock and gauges per-process."""
    out = {}
    for name, family in snapshot.items():
        field = {"counter": "value", "histogram": "count"}.get(family["kind"])
        if field:
            out[name] = {tuple(sorted(r["labels"].items())): r[field] for r in family["series"]}
    return out


class TestIntegration:
    def test_round_metrics_emits_phase_spans(self):
        obs.enable()
        m = RoundMetrics()
        m.begin_phase("setup")
        m.begin_phase("slack")
        m.stop_timer()
        names = [s["name"] for s in obs.drain_spans()]
        assert names == ["setup", "slack"]
        assert "repro_phase_us_count" in obs.render_metrics()

    def test_coloring_byte_identical_tracing_on_off(self):
        off = ShardedColoring(GRAPH, _shard_cfg(), workers=1).run()
        obs.disable()
        obs.enable(tracing=True, metrics=False)
        on = ShardedColoring(GRAPH, _shard_cfg(), workers=1).run()
        spans = obs.drain_spans()
        assert spans, "traced run recorded nothing"
        assert np.array_equal(off.colors, on.colors)
        assert off.rounds_total == on.rounds_total
        assert off.total_bits == on.total_bits

    def test_spawned_workers_ship_spans_back(self):
        """Cross-process reassembly: spawned shard workers arm from the
        telemetry flags riding each pool task and piggyback their span
        buffers on the result payloads; the merged trace must contain
        worker-pid spans for every shard."""
        import os

        obs.enable(tracing=True, metrics=False)
        result = ShardedColoring(
            GRAPH, _shard_cfg(), workers=2, start_method="spawn"
        ).run()
        assert result.proper and result.complete
        spans = obs.drain_spans()
        worker = [s for s in spans if s["pid"] != os.getpid()]
        assert worker, "no worker-side spans crossed the pool boundary"
        shards = {
            s["attrs"]["shard"] for s in worker if s["name"] == "shard.color"
        }
        assert shards == {0, 1, 2}
        # The merged trace still exports and validates.
        doc = obs.spans_to_perfetto(spans)
        assert obs.validate_perfetto(doc) == []

    def test_spawned_workers_ship_metrics_back(self):
        """Pooled shard work reaches the driver's registry: every counter
        and histogram count equals the inline run's.  Each pool task
        re-arms the driver's fault plan in its worker, and that is not
        counted again: the plan was armed once.  Under a plan that
        crashes one attempt, the soft-failed task ships its fired fault
        back with the failure."""
        graph = make_graph("gnp", 400, 20.0, 1)
        cfg = ColoringConfig.practical(seed=1, shard_k=4, shard_strategy="greedy")
        quiet = FaultPlan(
            name="quiet", seed=1,
            rules=(FaultRule(site="shard.worker", kind="crash",
                             match=(("shard", 99),)),),
        )
        firing = FaultPlan(
            name="firing", seed=1,
            rules=(FaultRule(site="shard.worker", kind="crash",
                             match=(("shard", 1), ("attempt", 1))),),
        )
        for plan, fired in ((quiet, None), (firing, 1.0)):
            readings = []
            for workers in (1, 2):
                obs.disable()
                obs.enable(tracing=False, metrics=True)
                fplan.arm(plan)
                ShardedColoring(
                    graph, cfg, workers=workers, start_method="spawn"
                ).run()
                readings.append(_counts(obs.registry().snapshot()))
            inline, pooled = readings
            assert pooled == inline, plan.name
            assert inline["repro_color_runs_total"] == {(): 4.0}
            assert pooled["repro_faults_armed_total"] == {
                (("plan", plan.name),): 1.0
            }
            crashes = pooled.get("repro_faults_fired_total", {})
            assert crashes.get((("kind", "crash"), ("site", "shard.worker"))) == fired

    def test_spans_survive_injected_worker_crash(self):
        """A seeded ``shard.worker`` crash kills one attempt; the retry
        succeeds, the run completes, and the reassembled trace still
        parses — dead attempts lose their spans, nothing else does."""
        fplan.arm(
            FaultPlan(
                name="obs-crash", seed=3,
                rules=(
                    FaultRule(site="shard.worker", kind="crash",
                              match=(("shard", 1), ("attempt", 1))),
                ),
            )
        )
        obs.enable(tracing=True, metrics=False)
        result = ShardedColoring(
            GRAPH, _shard_cfg(), workers=2, start_method="spawn"
        ).run()
        assert result.proper and result.complete
        spans = obs.drain_spans()
        fp = io.StringIO()
        obs.write_jsonl(spans, fp)
        back = obs.read_jsonl(io.StringIO(fp.getvalue()))
        assert {s["name"] for s in back} >= {"shard.color"}
        assert obs.validate_perfetto(obs.spans_to_perfetto(back)) == []

    def test_fault_metrics_from_armed_plan(self):
        obs.enable(tracing=False, metrics=True)
        plan = FaultPlan(
            name="metered", seed=1,
            rules=(FaultRule(site="shard.worker", kind="crash",
                             match=(("shard", 99),)),),
        )
        fplan.arm(plan)
        text = obs.render_metrics()
        assert 'repro_faults_armed_total{plan="metered"} 1' in text
        assert 'repro_faults_rules{plan="metered"} 1' in text
