"""Delta routing in the churn engine.

:class:`DynamicColoring` detects conflicts on the batch's inserted edges
only, and its node-set kernels read only their nodes' CSR rows
(``BroadcastNetwork.row_edges``).  Four guarantees pin that down:

* **golden digests** — the colors after every batch of the three churn
  families, under both victim policies, are the ones the whole-graph
  scans produced before delta routing;
* **detector differential** — after every batch of randomized
  schedules the delta-routed conflict mask equals the full-scan oracle
  (``tests/helpers.py:full_scan_conflicts``);
* **warm start** — a proper adopted coloring is kept unchanged, and an
  improper one is repaired by the first batch, even an empty one, so the
  detector's precondition holds;
* **batch audit** — ``BatchReport.proper``/``complete``/``colors_used``,
  whose propriety bit comes from a check scoped to the batch, equal full
  scans after every batch, also after a planted fault, which the next
  batch's full scan flags again;
* **m-independence** — the pairs a batch reads through ``row_edges``
  are bounded by the delta's rows, not by the graph: one small delta
  costs the same on rings of 10⁴ and 10⁵ nodes, and a repair-mode batch
  neither runs the full propriety scan nor builds ``edge_src``.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import ColoringConfig
from repro.dynamic import DynamicColoring, UpdateBatch
from repro.dynamic import engine as engine_module
from repro.graphs.families import make_churn
from repro.shard import ShardedColoring
from repro.simulator.network import BroadcastNetwork
from tests.helpers import brute_force_proper, full_scan_conflicts, planting_repair


def colors_digest(colors: np.ndarray) -> str:
    """First 16 hex digits of the sha256 of the little-endian int64 colors."""
    raw = np.ascontiguousarray(colors, dtype="<i8").tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# Recorded with the full-scan detector and whole-graph kernels; any
# deliberate re-baseline updates these and says so in CHANGES.md.
GOLDEN = {
    ("mobile", "id"): [
        "fc3c1765e30ac5c7", "457470754a57d91b", "b8a7f5307aa3d69e",
        "71dbc2de0da65748", "3b4d112ef94a6bc8",
    ],
    ("mobile", "slack"): [
        "303075705fc1d3b2", "16c2cf14537aa246", "674230e91d35d5c4",
        "65348b568383eaaa", "85e66ac0ebfeb4c3",
    ],
    ("gnp-churn", "id"): [
        "487601b41fe5d4e5", "c0e4d96e65280a48", "017c291f75bbe33a",
        "374b0ada2d3317db", "7c390966472a9941",
    ],
    ("gnp-churn", "slack"): [
        "ebd445b2ca1ddd21", "41c5f63e59ccd52e", "d3f6bd31fc0a9b08",
        "b718a9aefe9b5adb", "b64faee2dcb40f28",
    ],
    ("blobs-churn", "id"): [
        "7c9eb80c0b9964cf", "90b28c144d5dd567", "f046bd76688fd332",
        "6c9cfda4d6af53ef", "a6ee6e20517a0361",
    ],
    ("blobs-churn", "slack"): [
        "7c9eb80c0b9964cf", "90b28c144d5dd567", "29e620292ac64dd8",
        "3c4dfad17213e31c", "4f49835e791f31a2",
    ],
}

# Every batch falls back (dynamic_fallback_fraction=0): the pipeline
# re-runs on the churned graph.
GOLDEN_FALLBACK = [
    "77ad0cf48ab355cc", "538b7ad19e2deba3", "e8af5a8672295443",
]


def batch_digests(engine, schedule) -> list[str]:
    digests = []
    for batch in schedule:
        engine.apply_batch(batch)
        digests.append(colors_digest(engine.colors))
    return digests


class TestGoldenDigests:
    @pytest.mark.parametrize("family, policy", sorted(GOLDEN))
    def test_repair_colors_unchanged(self, family, policy):
        schedule = make_churn(family, 320, 12.0, seed=5, batches=5,
                              churn_fraction=0.1)
        cfg = ColoringConfig.practical(seed=2, conflict_victim=policy)
        engine = DynamicColoring(schedule.initial, cfg)
        assert batch_digests(engine, schedule) == GOLDEN[family, policy]

    def test_fallback_colors_unchanged(self):
        schedule = make_churn("mobile", 320, 12.0, seed=5, batches=3,
                              churn_fraction=0.1)
        cfg = ColoringConfig.practical(seed=2, dynamic_fallback_fraction=0.0)
        engine = DynamicColoring(schedule.initial, cfg)
        assert batch_digests(engine, schedule) == GOLDEN_FALLBACK


class TestDetectorDifferential:
    @pytest.mark.parametrize("policy", ["id", "slack"])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(["mobile", "gnp-churn", "blobs-churn"]),
        churn=st.floats(min_value=0.01, max_value=0.3),
        fallback=st.floats(min_value=0.0, max_value=1.2),
    )
    @settings(max_examples=10, deadline=None)
    def test_delta_routed_mask_equals_full_scan(
        self, policy, seed, family, churn, fallback
    ):
        schedule = make_churn(family, 160, 10.0, seed=seed, batches=4,
                              churn_fraction=churn)
        cfg = ColoringConfig.practical(
            seed=seed, conflict_victim=policy,
            dynamic_fallback_fraction=fallback,
        )
        engine = DynamicColoring(schedule.initial, cfg)
        routed = DynamicColoring._detect_conflicts
        compared = []

        def detect(self, batch, num_colors):
            got = routed(self, batch, num_colors)
            want = full_scan_conflicts(self, num_colors)
            compared.append(np.flatnonzero(got ^ want).tolist())
            return got

        with mock.patch.object(DynamicColoring, "_detect_conflicts", detect):
            for batch in schedule:
                report = engine.apply_batch(batch)
                assert report.proper and report.complete
        assert compared == [[]] * schedule.num_batches


class TestAuditDifferential:
    @pytest.mark.parametrize("policy", ["id", "slack"])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(["mobile", "gnp-churn", "blobs-churn"]),
        churn=st.floats(min_value=0.01, max_value=0.3),
        fallback=st.floats(min_value=0.0, max_value=1.2),
        plant_at=st.sampled_from([None, 0, 1, 2, 3]),
    )
    @settings(max_examples=10, deadline=None)
    def test_report_equals_full_checks(
        self, policy, seed, family, churn, fallback, plant_at
    ):
        schedule = make_churn(family, 160, 10.0, seed=seed, batches=4,
                              churn_fraction=churn)
        cfg = ColoringConfig.practical(
            seed=seed, conflict_victim=policy,
            dynamic_fallback_fraction=fallback,
        )
        engine = DynamicColoring(schedule.initial, cfg)
        for t, batch in enumerate(schedule):
            repair = (
                planting_repair([]) if t == plant_at
                else engine_module.conflict_repair
            )
            with mock.patch.object(engine_module, "conflict_repair", repair):
                report = engine.apply_batch(batch)
            colors, active = engine.colors, engine.active
            assert report.proper == brute_force_proper(engine.net, colors)
            assert report.complete == bool((colors[active] >= 0).all())
            used = colors[active & (colors >= 0)]
            assert report.colors_used == np.unique(used).size


class TestPlantedFault:
    """A repair that breaks the coloring is caught by the scoped audit,
    counted, and flagged again by the next batch's full scan even when
    the fault lies outside that batch's scope."""

    @pytest.fixture(autouse=True)
    def metrics_armed(self):
        obs.disable()
        obs.enable(tracing=False, metrics=True)
        yield
        obs.disable()

    @staticmethod
    def violations(kind: str) -> float:
        return obs.registry().counter(
            "repro_invariant_violations_total", kind=kind
        ).value

    @staticmethod
    def engine():
        schedule = make_churn("gnp-churn", 400, 10.0, seed=3, batches=1)
        cfg = ColoringConfig.practical(seed=1)
        return DynamicColoring(schedule.initial, cfg), schedule.batches[0]

    def test_improper_repair_flagged_then_rescanned(self):
        engine, batch = self.engine()
        planted = []
        with mock.patch.object(
            engine_module, "conflict_repair", planting_repair(planted)
        ):
            report = engine.apply_batch(batch)
        assert planted and report.mode == "repair"
        assert not brute_force_proper(engine.net, engine.colors)
        assert not report.proper and not engine.audited_proper
        assert self.violations("improper") == 1

        full_scans = []
        scan = DynamicColoring.is_proper

        def counted(self):
            full_scans.append(1)
            return scan(self)

        # An empty batch recolors nothing, so a scoped check would see
        # nothing; the full scan runs because the last verdict failed.
        with mock.patch.object(DynamicColoring, "is_proper", counted):
            report = engine.apply_batch(UpdateBatch())
        assert report.mode == "repair" and report.recolored == 0
        assert full_scans == [1]
        assert not report.proper
        assert self.violations("improper") == 2

    def test_incomplete_repair_counted(self):
        engine, batch = self.engine()
        planted = []
        with mock.patch.object(
            engine_module, "conflict_repair",
            planting_repair(planted, fault="incomplete"),
        ):
            report = engine.apply_batch(batch)
        assert planted and report.proper and not report.complete
        assert self.violations("incomplete") == 1
        assert self.violations("improper") == 0


class TestWarmStart:
    """An adopted coloring is scanned once in full: the victims of its
    monochromatic edges lose their colors, and the first batch repairs
    them like any other uncolored active node.  A proper one is kept
    as it is."""

    def test_warm_start_skips_initial_coloring(self):
        schedule = make_churn("gnp-churn", 200, 8.0, seed=7, batches=2)
        adopted = ShardedColoring(
            schedule.initial, ColoringConfig.practical(shard_k=4)
        ).run()
        assert adopted.proper
        warm = DynamicColoring(schedule.initial, initial_colors=adopted.colors)
        assert warm.initial_rounds == 0
        assert warm.colors.tolist() == adopted.colors.tolist()
        for batch in schedule:
            warm.apply_batch(batch)
            assert warm.is_proper() and warm.is_complete()

    @staticmethod
    def improper_start():
        schedule = make_churn("gnp-churn", 400, 10.0, seed=3, batches=3)
        cfg = ColoringConfig.practical(seed=1)
        cold = DynamicColoring(schedule.initial, cfg)
        colors = cold.colors.copy()
        u, v = cold.net.undirected_edges()[0]
        colors[v] = colors[u]
        return schedule, cfg, colors

    def test_first_batch_repairs(self):
        schedule, cfg, colors = self.improper_start()
        engine = DynamicColoring(schedule.initial, cfg, initial_colors=colors)
        for batch in schedule:
            report = engine.apply_batch(batch)
            assert report.proper and report.complete

    def test_empty_first_batch_repairs(self):
        schedule, cfg, colors = self.improper_start()
        engine = DynamicColoring(schedule.initial, cfg, initial_colors=colors)
        report = engine.apply_batch(UpdateBatch())
        assert report.proper and report.complete
        assert report.recolored >= 1


def _forbidden(*_args, **_kwargs):
    raise AssertionError("an O(m) path ran inside a repair-mode batch")


class TestMIndependence:
    """ROADMAP item 3's "no per-batch layer grows with m", counted: a ring
    2-colored by parity gets one fixed small delta whose chords join
    equal colors, so detection finds victims and repair runs.  The pairs
    ``apply_batch`` reads through ``row_edges`` are bounded by the
    delta's touched rows and identical at n = 10⁴ and 10⁵.  The batch
    never calls the full scan ``is_proper`` and never reads ``edge_src``
    (both patched to raise): its audit is scoped to the batch."""

    DELTA = UpdateBatch(
        insert_edges=[[100, 102], [200, 206], [300, 310], [401, 403]],
        delete_edges=[[600, 601]],
        departures=[800],
    )

    def pairs_read(self, n: int, policy: str) -> tuple[int, int]:
        nodes = np.arange(n)
        ring = np.stack([nodes, (nodes + 1) % n], axis=1)
        cfg = ColoringConfig.practical(seed=1, conflict_victim=policy)
        engine = DynamicColoring((n, ring), cfg, initial_colors=nodes % 2)
        net = engine.net
        routed = net.row_edges
        reads = []

        def counted(rows):
            src, dst = routed(rows)
            reads.append(src.size)
            return src, dst

        net.row_edges = counted
        with mock.patch.object(DynamicColoring, "is_proper", _forbidden), \
                mock.patch.object(BroadcastNetwork, "edge_src", property(_forbidden)):
            report = engine.apply_batch(self.DELTA)
        assert report.mode == "repair" and report.conflicts == 4
        assert report.proper and report.complete
        # The delta's touched rows, after the batch: chord, deletion and
        # departure endpoints (the departed node's old neighbors 799, 801).
        touched = np.unique(np.concatenate([
            self.DELTA.insert_edges.ravel(), self.DELTA.delete_edges.ravel(),
            [799, 800, 801],
        ]))
        volume = int(net.degrees[touched].sum())
        return sum(reads), volume

    @pytest.mark.parametrize("policy", ["id", "slack"])
    def test_pairs_read_do_not_grow_with_m(self, policy):
        small, volume = self.pairs_read(10_000, policy)
        large, volume_large = self.pairs_read(100_000, policy)
        assert volume == volume_large
        assert small == large
        # The departure's rows, the slack rule's endpoint rows, then per
        # repair round the sampler, the trial and the adoption, each at
        # most the victims' rows: one round here, as no two victims meet.
        assert small <= 4 * volume
