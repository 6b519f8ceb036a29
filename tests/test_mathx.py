"""Unit tests for repro.util.mathx."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.mathx import ceil_log2, iterated_log_bound, log_star, poly_log


class TestCeilLog2:
    def test_zero_and_one(self):
        assert ceil_log2(0) == 0
        assert ceil_log2(1) == 0

    def test_powers_of_two(self):
        for k in range(1, 20):
            assert ceil_log2(2**k) == k

    def test_between_powers(self):
        assert ceil_log2(3) == 2
        assert ceil_log2(5) == 3
        assert ceil_log2(1025) == 11

    def test_fractional_input(self):
        assert ceil_log2(1.5) == 1
        assert ceil_log2(2.5) == 2

    @given(st.integers(min_value=2, max_value=10**9))
    def test_defining_property(self, x):
        k = ceil_log2(x)
        assert 2**k >= x
        assert 2 ** (k - 1) < x


class TestLogStar:
    def test_base_cases(self):
        assert log_star(0) == 0
        assert log_star(1) == 0
        assert log_star(2) == 1

    def test_tower_values(self):
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4

    def test_monotone(self):
        vals = [log_star(n) for n in [2, 4, 16, 256, 65536, 2**30]]
        assert vals == sorted(vals)

    def test_practically_bounded(self):
        assert log_star(1e300) <= 6

    @given(st.integers(min_value=2, max_value=10**12))
    def test_recurrence(self, n):
        assert log_star(n) == 1 + log_star(math.log2(n))


class TestIteratedLogBound:
    def test_zero_iterations_identity(self):
        assert iterated_log_bound(1024, 0) == 1024.0

    def test_one_iteration_is_log(self):
        assert iterated_log_bound(1024, 1) == pytest.approx(10.0)

    def test_two_iterations(self):
        assert iterated_log_bound(65536, 2) == pytest.approx(4.0)

    def test_floors_at_one(self):
        assert iterated_log_bound(2, 5) == 1.0


class TestPolyLog:
    def test_linear_power(self):
        assert poly_log(1024, 1.0) == pytest.approx(10.0)

    def test_cube(self):
        assert poly_log(1024, 3.0) == pytest.approx(1000.0)

    def test_scale(self):
        assert poly_log(1024, 1.0, scale=2.5) == pytest.approx(25.0)

    def test_small_n_floor(self):
        # log2 floored at 1 so thresholds never vanish.
        assert poly_log(1, 2.0) == 1.0
        assert poly_log(2, 2.0) == 1.0
