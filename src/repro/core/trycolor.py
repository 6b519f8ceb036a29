"""TryColor: the basic randomized color trial (Lemma 2.13).

"When we say a node *tries a random color*, we mean that it broadcasts a
color uniformly sampled from some set (usually from its palette) and
adopts the color if none of its neighbors with smaller ID tried the same
color" (§2.2) — and, of course, if no colored neighbor already holds it.

The round is fully vectorized: proposals are arrays, conflicts are
edge-wise comparisons over the proposers' CSR rows
(:meth:`~repro.simulator.network.BroadcastNetwork.row_edges`), and the
bit cost (one color broadcast per node that proposes) goes through the
shared metrics.  Every trial adjudicates through
:func:`resolve_proposals`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.state import ColoringState
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

__all__ = [
    "try_color_round",
    "resolve_proposals",
    "interval_sampler",
    "palette_sampler",
    "palette_interval_sampler",
]


def resolve_proposals(
    state: ColoringState,
    proposals: np.ndarray,
    phase: str,
    bits: int | None = None,
) -> int:
    """Adjudicate a full array of simultaneous color proposals (−1 = none)
    with the standard rule — drop a proposal that matches a colored
    neighbor or a smaller-ID neighbor's proposal — then adopt the
    survivors.  Returns the number of adoptions.  Used by
    :func:`try_color_round` and by every phase that builds proposals its
    own way (SCT's permutation trial, matching, ...).
    """
    net = state.net
    valid = (proposals >= 0) & (state.colors < 0)
    src, dst = net.row_edges(np.flatnonzero(valid))
    kill = np.zeros(state.n, dtype=bool)
    a = valid[src] & (state.colors[dst] >= 0) & (proposals[src] == state.colors[dst])
    b = valid[src] & valid[dst] & (proposals[src] == proposals[dst]) & (dst < src)
    kill[src[a | b]] = True
    winners = np.flatnonzero(valid & ~kill)
    if winners.size:
        state.adopt(winners, proposals[winners])
    net.account_vector_round(
        int(valid.sum()), bits if bits is not None else bits_for_color(state.delta), phase=phase
    )
    return int(winners.size)

Sampler = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def interval_sampler(lo: np.ndarray | int, hi: np.ndarray | int) -> Sampler:
    """Sampler for per-node color intervals ``[lo(v), hi(v))`` — the shape
    every list in the algorithm takes ([Δ+1]\\[x(v)] is [x(v), Δ+1);
    [x(v)] is [0, x(v)))."""

    def sample(nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        lo_v = (lo[nodes] if isinstance(lo, np.ndarray) else np.full(nodes.size, lo)).astype(
            np.int64
        )
        hi_v = (hi[nodes] if isinstance(hi, np.ndarray) else np.full(nodes.size, hi)).astype(
            np.int64
        )
        width = np.maximum(hi_v - lo_v, 1)
        return lo_v + (rng.random(nodes.size) * width).astype(np.int64)

    return sample


def palette_sampler(state: ColoringState) -> Sampler:
    """Uniform sample from the node's current palette Ψ(v) (used by the
    cleanup phase).  Falls back to color 0 for empty palettes (cannot
    happen in (Δ+1)-coloring: d(v) ≤ Δ < |palette|).

    Loop-free: the grouped-palette helper
    (:meth:`repro.core.state.ColoringState.grouped_palettes`) exposes all
    palette sizes at once, a rank is drawn per node, and one vectorized
    rank→color search maps ranks back to colors.
    """

    def sample(nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        gp = state.grouped_palettes(np.asarray(nodes, dtype=np.int64))
        out = gp.sample(rng)
        return np.where(out >= 0, out, 0)

    return sample


def palette_interval_sampler(
    state: ColoringState, lo: np.ndarray | int, hi: np.ndarray | int
) -> Sampler:
    """Uniform sample from ``Ψ(v) ∩ [lo(v), hi(v))`` — e.g. the
    Ψ(v)\\[x(v)] trials in open cliques after SCT (proof of Lemma 3.7).
    Loop-free over the grouped palettes; −1 where the intersection is
    empty (such nodes sit the round out)."""

    def sample(nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        gp = state.grouped_palettes(np.asarray(nodes, dtype=np.int64), lo, hi)
        return gp.sample(rng)

    return sample


def try_color_round(
    state: ColoringState,
    participants: np.ndarray,
    sampler: Sampler,
    seq: SeedSequencer,
    phase: str,
    round_tag: object = 0,
) -> int:
    """One synchronous TryColor round.

    ``participants`` — node ids trying a color this round (must be
    uncolored).  Each tries the color ``sampler`` draws, and
    :func:`resolve_proposals` keeps it unless (a) some colored neighbor
    already has it, or (b) some *smaller-ID* neighbor tried it this
    round.  A participant whose draw is −1 sits the round out and sends
    nothing; with no participant the round is silent, but still a round.
    Returns the number of nodes that adopted.
    """
    participants = np.asarray(participants, dtype=np.int64)
    participants = participants[state.colors[participants] < 0]
    proposals = np.full(state.n, -1, dtype=np.int64)
    if participants.size:
        rng = seq.stream("trycolor", phase, round_tag)
        proposals[participants] = sampler(participants, rng)
    return resolve_proposals(state, proposals, phase)
