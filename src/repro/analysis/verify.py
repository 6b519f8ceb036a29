"""Coloring verification oracles — the ground truth every experiment and
property test trusts."""

from __future__ import annotations

import numpy as np

from repro.core.state import count_distinct_colors
from repro.simulator.network import BroadcastNetwork

__all__ = ["verify_coloring", "assert_proper_coloring", "coloring_summary"]


def verify_coloring(
    net: BroadcastNetwork, colors: np.ndarray, num_colors: int | None = None
) -> dict:
    """Full audit: propriety, completeness, palette bound.

    Returns a dict with `proper`, `complete`, `within_palette`,
    `monochromatic_edges`, `colors_used`.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size != net.n:
        raise ValueError("colors array has wrong length")
    num_colors = num_colors if num_colors is not None else net.delta + 1
    src, dst = net.edge_src, net.indices
    mono = (colors[src] >= 0) & (colors[src] == colors[dst])
    return {
        "proper": not bool(mono.any()),
        "complete": bool((colors >= 0).all()),
        "within_palette": bool((colors < num_colors).all()),
        # each undirected monochromatic edge appears twice in CSR
        "monochromatic_edges": int(mono.sum()) // 2,
        "colors_used": count_distinct_colors(colors),
    }


def assert_proper_coloring(
    net: BroadcastNetwork, colors: np.ndarray, num_colors: int | None = None
) -> None:
    """Raise AssertionError with a readable message on any violation."""
    audit = verify_coloring(net, colors, num_colors)
    assert audit["proper"], f"{audit['monochromatic_edges']} monochromatic edges"
    assert audit["complete"], "coloring incomplete"
    assert audit["within_palette"], "color outside [num_colors]"


def coloring_summary(net: BroadcastNetwork, colors: np.ndarray) -> dict:
    """Color-count statistics for reporting."""
    audit = verify_coloring(net, colors)
    audit["delta_plus_one"] = net.delta + 1
    audit["n"] = net.n
    return audit
