"""The sharded dynamic engine (repro.shard.dynamic, ISSUE 10 tentpole).

Three load-bearing guarantees:

* **k=1 identity**: with one shard the engine *is* DynamicColoring —
  colors, reports (modulo wall-clock), rounds, and bits are byte-
  identical across the full churn_quick matrix.  This is the benchmark
  gate's correctness anchor.
* **k>1 invariants**: after every batch of every schedule the coloring
  is proper, complete on active nodes, and within the Δ_t+1 budget —
  same contract as the unsharded engine, now re-established by
  shard-local repair plus delta-scaled cut reconciliation.
* **delta-aware ACD**: the maintained fingerprint grid equals a fresh
  sketch of the current topology after every fallback — the refresh
  path may save broadcasts, never change results.
"""

import numpy as np
import pytest

from repro.config import ColoringConfig
from repro.dynamic import DynamicColoring
from repro.graphs.families import make_churn
from repro.hashing.fingerprints import minwise_fingerprints
from repro.shard import ShardedDynamicColoring

QUICK_FAMILIES = ("gnp-churn", "mobile", "blobs-churn")


def strip_seconds(d: dict) -> dict:
    return {k: v for k, v in d.items() if "seconds" not in k}


def run_engine(engine, schedule):
    reports = [strip_seconds(engine.apply_batch(b).as_dict()) for b in schedule]
    return engine, reports


class TestIdentityAtK1:
    """k == 1 must execute zero sharded code: every observable —
    colors, per-batch reports, total rounds, total bits — matches
    DynamicColoring exactly (only wall-clock may differ)."""

    @pytest.mark.parametrize("family", QUICK_FAMILIES)
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_churn_quick_matrix(self, family, n, seed):
        schedule = make_churn(family, n, 16.0, seed, batches=5,
                              churn_fraction=0.08)
        cfg = ColoringConfig.practical(seed=seed)
        ref, ref_reports = run_engine(
            DynamicColoring(schedule.initial, cfg), schedule
        )
        got, got_reports = run_engine(
            ShardedDynamicColoring(schedule.initial, cfg, k=1), schedule
        )
        assert got.colors.tolist() == ref.colors.tolist()
        assert got.active.tolist() == ref.active.tolist()
        assert got_reports == ref_reports
        assert got.initial_rounds == ref.initial_rounds
        assert got.net.metrics.total_rounds == ref.net.metrics.total_rounds
        assert got.net.metrics.total_bits == ref.net.metrics.total_bits

    def test_k1_runs_no_sharded_code(self):
        schedule = make_churn("gnp-churn", 200, 8.0, 3, batches=3)
        engine, _ = run_engine(
            ShardedDynamicColoring(schedule.initial, k=1), schedule
        )
        assert engine.routes == []  # the routing plane never engaged


class TestShardedInvariants:
    @pytest.mark.parametrize("family", QUICK_FAMILIES)
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_invariant_after_every_batch(self, family, k):
        schedule = make_churn(family, 400, 12.0, seed=k, batches=5,
                              churn_fraction=0.1)
        cfg = ColoringConfig.practical(seed=k)
        engine = ShardedDynamicColoring(schedule.initial, cfg, k=k)
        for batch in schedule:
            report = engine.apply_batch(batch)
            assert engine.is_proper()
            assert engine.is_complete()
            assert engine.colors_used() <= max(engine.net.delta, 0) + 1
            assert report.proper and report.complete
        routes = engine.route_summary()
        assert routes["k"] == k
        assert routes["batches_routed"] >= 1
        assert 0 <= routes["mean_shards_touched"] <= k
        assert routes["max_reconcile_touched_fraction"] <= 1.0

    def test_determinism(self):
        schedule = make_churn("mobile", 300, 10.0, seed=5, batches=4)
        cfg = ColoringConfig.practical(seed=5)
        a, ra = run_engine(ShardedDynamicColoring(schedule.initial, cfg, k=4),
                           schedule)
        b, rb = run_engine(ShardedDynamicColoring(schedule.initial, cfg, k=4),
                           schedule)
        assert a.colors.tolist() == b.colors.tolist()
        assert ra == rb
        assert a.net.metrics.total_bits == b.net.metrics.total_bits

    def test_run_surface_matches_parent(self):
        schedule = make_churn("gnp-churn", 250, 8.0, seed=2, batches=4)
        result = ShardedDynamicColoring(schedule, k=3).run(schedule)
        summary = result.summary()
        assert summary["proper_all"] and summary["complete_all"]
        assert summary["colors_within_budget"]
        assert summary["batches"] == schedule.num_batches

    def test_invalid_k_raises(self):
        schedule = make_churn("gnp-churn", 50, 4.0, seed=0, batches=1)
        with pytest.raises(ValueError):
            ShardedDynamicColoring(schedule, k=0)

    def test_warm_start_skips_initial_coloring(self):
        schedule = make_churn("gnp-churn", 200, 8.0, seed=7, batches=2)
        cold = ShardedDynamicColoring(schedule.initial, k=4)
        warm = ShardedDynamicColoring(
            schedule.initial, k=4, initial_colors=cold.colors.copy()
        )
        assert warm.initial_rounds == 0
        assert warm.colors.tolist() == cold.colors.tolist()
        for batch in schedule:
            warm.apply_batch(batch)
            assert warm.is_proper() and warm.is_complete()


class TestDeltaAwareACD:
    """Fallbacks at k > 1 route through the maintained sketch; the grid
    must equal a from-scratch sketch of the *current* topology after
    every batch, or the refresh path silently drifts."""

    def force_fallback_cfg(self, seed, **kw):
        # dynamic_fallback_fraction < 0 makes every batch a fallback.
        return ColoringConfig.practical(
            seed=seed, dynamic_fallback_fraction=-1.0, **kw
        )

    @pytest.mark.parametrize("family", ["gnp-churn", "mobile"])
    def test_maintained_sketch_equals_fresh(self, family):
        schedule = make_churn(family, 300, 10.0, seed=11, batches=4,
                              churn_fraction=0.1)
        cfg = self.force_fallback_cfg(11)
        engine = ShardedDynamicColoring(schedule.initial, cfg, k=4)
        for batch in schedule:
            report = engine.apply_batch(batch)
            assert report.mode == "fallback"
            assert engine.is_proper() and engine.is_complete()
            net = engine.net
            fresh = minwise_fingerprints(
                net.indptr, net.indices, net.n,
                cfg.acd_minhash_samples, cfg.acd_minhash_bits,
                engine._acd_salt,
            )
            assert np.array_equal(engine._acd_fps, fresh)
            assert not engine._acd_dirty.any()  # consumed by the fallback

    def test_fallback_cheaper_than_fresh_sketch_on_small_delta(self):
        """The broadcast-economy claim: with the sketch maintained, a
        fallback's acd/sketch phase charges rounds for the changed nodes
        only, so over the same schedule its bits are strictly below the
        unsharded engine's, whose every fallback sketches from scratch."""
        schedule = make_churn("gnp-churn", 400, 10.0, seed=17, batches=4,
                              churn_fraction=0.02)
        cfg = self.force_fallback_cfg(17)

        def fallback_sketch_bits(engine):
            sketch = engine.net.metrics.phases["acd/sketch"]
            before = sketch.total_bits  # the initial coloring's sketch
            for batch in schedule:
                assert engine.apply_batch(batch).mode == "fallback"
            return sketch.total_bits - before

        maintained = fallback_sketch_bits(
            ShardedDynamicColoring(schedule.initial, cfg, k=4)
        )
        fresh = fallback_sketch_bits(DynamicColoring(schedule.initial, cfg))
        assert 0 < maintained < fresh


class TestRunnerIntegration:
    def test_dynamic_shard_trial_payload(self):
        from repro.runner.execute import run_trial
        from repro.runner.spec import TrialSpec

        spec = TrialSpec(family="gnp-churn", n=200, avg_degree=8.0, seed=1,
                         algorithm="dynamic_shard",
                         overrides=(("shard_k", 4),))
        result = run_trial(spec)
        assert result.ok, result.error
        payload = result.payload
        assert payload["proper"] and payload["complete"]
        assert payload["k"] == 4
        assert 0.0 <= payload["max_reconcile_touched_fraction"] <= 1.0
        assert "mean_shards_touched" in payload

    def test_churn_family_accepts_both_dynamic_algorithms(self):
        from repro.runner.spec import TrialSpec

        TrialSpec(family="gnp-churn", algorithm="dynamic_shard")  # ok
        with pytest.raises(ValueError, match="dynamic"):
            TrialSpec(family="gnp-churn", algorithm="broadcast")
