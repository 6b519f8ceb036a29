"""Unit tests for the bit-size codecs (repro.util.bitio)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitio import (
    bits_for_color,
    bits_for_count,
    bits_for_id,
    bits_for_int,
)


class TestScalarCodecs:
    def test_bits_for_int_minimum_one(self):
        assert bits_for_int(0) == 1
        assert bits_for_int(1) == 1
        assert bits_for_int(2) == 1

    def test_bits_for_int_values(self):
        assert bits_for_int(256) == 8
        assert bits_for_int(257) == 9

    def test_color_includes_bottom(self):
        # Δ+1 colors plus the ⊥ codepoint.
        assert bits_for_color(0) == 1  # universe {c0, ⊥}
        assert bits_for_color(2) == 2  # {c0,c1,c2,⊥}
        assert bits_for_color(14) == 4

    def test_id_bits_logarithmic(self):
        assert bits_for_id(1024) == 10
        assert bits_for_id(1025) == 11

    def test_count_bits(self):
        assert bits_for_count(7) == 3
        assert bits_for_count(8) == 4

    @given(st.integers(min_value=1, max_value=10**6))
    def test_id_fits_universe(self, n):
        assert 2 ** bits_for_id(n) >= n
