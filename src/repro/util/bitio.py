"""Bit-size codecs for BCONGEST message accounting.

Every broadcast in the simulator is charged an explicit size in bits.
The model only allows ``O(log n)``-bit messages, so the library computes
message sizes from first principles with the codecs here: one value out
of a universe of ``u`` values costs ``ceil(log2 u)`` bits
(:func:`bits_for_int`), so an identifier out of ``n`` costs
``ceil(log2 n)`` bits (:func:`bits_for_id`), a color out of ``Δ+1`` plus
``⊥`` costs ``ceil(log2 (Δ+2))`` bits (:func:`bits_for_color`), and a
counter up to ``c`` costs ``ceil(log2 (c+1))`` bits
(:func:`bits_for_count`).  The protocols size their messages from these
(e.g. the ``O(log log n)``-bit labels of Algorithm 3).
"""

from __future__ import annotations

import numpy as np

from repro.util.mathx import ceil_log2

__all__ = [
    "bits_for_int",
    "bits_for_ints",
    "bits_for_color",
    "bits_for_id",
    "bits_for_count",
]


def bits_for_int(num_values: int) -> int:
    """Bits to encode one value from a universe of ``num_values`` values.

    At least 1 bit even for degenerate universes, so that "a message was
    sent" is never free.
    """
    return max(1, ceil_log2(max(num_values, 1)))


def bits_for_ints(num_values: np.ndarray) -> np.ndarray:
    """:func:`bits_for_int` of every entry of an integer array.  Exact for
    universes below 2⁵³: the ``frexp`` exponent of u − 1 is its bit
    length, which is ⌈log₂ u⌉."""
    below = np.maximum(np.asarray(num_values, dtype=np.int64), 1) - 1
    return np.maximum(np.frexp(below.astype(np.float64))[1], 1).astype(np.int64)


def bits_for_color(delta: int) -> int:
    """Bits for one color in the (Δ+1)-coloring palette ``[Δ+1]``, with one
    extra codepoint reserved for ``⊥`` (uncolored / no proposal)."""
    return bits_for_int(delta + 2)


def bits_for_id(n: int) -> int:
    """Bits for one node identifier out of ``n`` nodes."""
    return bits_for_int(n)


def bits_for_count(max_count: int) -> int:
    """Bits for an integer counter bounded by ``max_count``."""
    return bits_for_int(max_count + 1)
