"""Tests for round/bit accounting (repro.simulator.metrics)."""

from repro.simulator.metrics import RoundMetrics


class TestAddRound:
    def test_single_round(self):
        m = RoundMetrics()
        m.add_rounds(1, 3, 8, phase="p")
        assert m.total_rounds == 1
        assert m.phases["p"].messages == 3
        assert m.phases["p"].total_bits == 24
        assert m.max_message_bits == 8

    def test_phase_and_total_both_updated(self):
        m = RoundMetrics()
        m.add_rounds(1, 1, 4, phase="a")
        m.add_rounds(1, 1, 6, phase="b")
        assert m.rounds_in("a") == 1
        assert m.rounds_in("b") == 1
        assert m.total_rounds == 2
        assert m.total_bits == 10
        assert m.max_message_bits == 6

    def test_empty_round_counts(self):
        m = RoundMetrics()
        m.add_rounds(1, 0, 1, phase="quiet")
        assert m.rounds_in("quiet") == 1
        assert m.phases["quiet"].messages == 0

    def test_current_phase_default(self):
        m = RoundMetrics()
        m.begin_phase("x")
        m.add_rounds(1, 1, 1)
        assert m.rounds_in("x") == 1


class TestUniformRound:
    def test_uniform_round(self):
        m = RoundMetrics()
        m.add_rounds(1, 10, 7, phase="v")
        assert m.phases["v"].messages == 10
        assert m.phases["v"].total_bits == 70
        assert m.max_message_bits == 7

    def test_zero_broadcasters_no_max_update(self):
        m = RoundMetrics()
        m.add_rounds(1, 0, 100, phase="v")
        assert m.max_message_bits == 0
        assert m.total_rounds == 1


class TestBulkUniformRounds:
    def test_matches_per_round_loop(self):
        bulk, loop = RoundMetrics(), RoundMetrics()
        bulk.add_rounds(5, 5 * 9, 16, phase="v")
        for _ in range(5):
            loop.add_rounds(1, 9, 16, phase="v")
        assert bulk.report() == loop.report()

    def test_zero_rounds_noop(self):
        m = RoundMetrics()
        m.add_rounds(0, 9, 16, phase="v")
        assert m.total_rounds == 0
        assert "v" not in m.phase_names()

    def test_observers_fire_once_per_round(self):
        m = RoundMetrics()
        seen = []
        m.observers.append(lambda phase, k: seen.append((phase, k)))
        m.add_rounds(3, 3 * 4, 8, phase="v")
        assert seen == [("v", 4)] * 3

    def test_uneven_rounds_spread_the_remainder_first(self):
        m = RoundMetrics()
        seen = []
        m.observers.append(lambda phase, k: seen.append(k))
        m.add_rounds(3, 7, 8, phase="v")
        assert seen == [3, 2, 2]
        assert m.phases["v"].messages == 7


class TestUnequalMessages:
    def test_payload_total_and_widest_message(self):
        # Three messages of 1, 2 and 4 fixed-width 5-bit entries.
        m = RoundMetrics()
        m.add_rounds(1, 3, 20, phase="v", payload_bits=35)
        assert m.phases["v"].messages == 3
        assert m.phases["v"].total_bits == m.total_bits == 35
        assert m.max_message_bits == 20

    def test_fill_report(self):
        m = RoundMetrics()
        m.add_rounds(1, 4, 10, phase="full")
        m.add_rounds(2, 4, 10, phase="packed", payload_bits=10)
        m.add_rounds(1, 0, 1, phase="quiet")
        rows = m.fill_report(10)
        assert rows["full"]["fill"] == 1.0
        assert rows["packed"]["fill"] == 0.25
        assert rows["quiet"]["fill"] is None
        assert rows["total"]["fill"] == 0.625
        assert {k: v for k, v in rows["full"].items() if k != "fill"} == (
            m.report()["full"]
        )
        assert all(row["fill"] is None for row in m.fill_report(None).values())


class TestTimePhase:
    def test_nested_timing_not_double_counted(self):
        m = RoundMetrics()
        m.begin_phase("outer")
        with m.time_phase("inner"):
            pass
        m.stop_timer()
        assert m.phase_seconds["inner"] >= 0
        assert m.phase_seconds["outer"] >= 0
        assert m.current_phase == "outer"

    def test_without_running_outer_timer(self):
        m = RoundMetrics()
        with m.time_phase("inner"):
            pass
        assert "inner" in m.phase_seconds
        # no phantom timer was started for the (never-begun) outer phase
        assert m._phase_started is None

    def test_restores_phase_on_exception(self):
        m = RoundMetrics()
        m.begin_phase("outer")
        try:
            with m.time_phase("inner"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert m.current_phase == "outer"


class TestReporting:
    def test_report_includes_total(self):
        m = RoundMetrics()
        m.add_rounds(1, 1, 2, phase="a")
        rep = m.report()
        assert "total" in rep and "a" in rep
        assert rep["total"]["rounds"] == 1

    def test_phase_names_excludes_total(self):
        m = RoundMetrics()
        m.add_rounds(1, 1, 2, phase="a")
        assert m.phase_names() == ["a"]

    def test_rounds_in_unknown_phase(self):
        assert RoundMetrics().rounds_in("nope") == 0
