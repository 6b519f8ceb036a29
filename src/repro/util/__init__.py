"""Shared low-level utilities: integer math and bit-size codecs."""

from repro.util.mathx import ceil_log2, log_star, iterated_log_bound
from repro.util.bitio import (
    bits_for_int,
    bits_for_color,
    bits_for_id,
)

__all__ = [
    "ceil_log2",
    "log_star",
    "iterated_log_bound",
    "bits_for_int",
    "bits_for_color",
    "bits_for_id",
]
