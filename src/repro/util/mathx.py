"""Integer and asymptotic-math helpers used throughout the reproduction.

These are the small functions the paper's round bounds are phrased in:
``log* n`` (iterated logarithm), ``ceil(log2 x)`` for message-size
accounting, and bounds of the form ``C * log^p n`` that parameterize the
algorithm (e.g. ``ell = C * log^{1.1} n`` in Eq. (3) of the paper).
"""

from __future__ import annotations

import math

__all__ = [
    "ceil_log2",
    "log_star",
    "iterated_log_bound",
    "poly_log",
]


def ceil_log2(x: int | float) -> int:
    """Smallest integer ``k`` with ``2**k >= x``; 0 for ``x <= 1``.

    Used for the number of bits needed to address ``x`` distinct values.
    """
    if x <= 1:
        return 0
    k = int(math.ceil(math.log2(x)))
    # Guard against floating point just-below-integer results.
    while 2 ** k < x:
        k += 1
    while k > 0 and 2 ** (k - 1) >= x:
        k -= 1
    return k


def log_star(n: float, base: float = 2.0) -> int:
    """Iterated logarithm: number of times ``log_base`` must be applied to
    ``n`` before the result drops to at most 1.

    ``log_star(2) == 1``, ``log_star(4) == 2``, ``log_star(16) == 3``,
    ``log_star(65536) == 4``; any practically representable input is <= 5.
    """
    if n <= 1:
        return 0
    count = 0
    value = float(n)
    while value > 1.0:
        value = math.log(value, base)
        count += 1
        if count > 64:  # unreachable for finite floats; safety net
            break
    return count


def iterated_log_bound(n: int, iterations: int, base: float = 2.0) -> float:
    """Apply ``log_base`` ``iterations`` times to ``n`` (floored at 1).

    Convenience for expressing bounds like ``log log n`` and
    ``log^3 log n`` when checking growth shapes.
    """
    value = float(max(n, 1))
    for _ in range(iterations):
        if value <= 1.0:
            return 1.0
        value = math.log(value, base)
    return max(value, 1.0)


def poly_log(n: int, power: float, scale: float = 1.0) -> float:
    """``scale * (log2 n)^power`` with the convention ``poly_log(<=2,...)``
    uses ``log2`` floored at 1 so thresholds never vanish on tiny inputs."""
    return scale * max(math.log2(max(n, 2)), 1.0) ** power
