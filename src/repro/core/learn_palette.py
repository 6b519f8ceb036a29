"""LearnPalette (Algorithm 2): every member of an almost-clique learns the
clique palette Ψ(K) in O(1) rounds.

The color space [Δ+1] is split into k = ⌊Δ/(C log n)⌋ contiguous ranges
R_1..R_k.  Every member picks a random range index t(v); the set
T_i = {v : t(v) = i} 2-hop connects K w.h.p. (Lemma 4.1).  Each v
broadcasts a C·log n-bit bitmap of R_{t(v)} ∩ C(N(v) ∩ K) — the colors of
its in-clique neighbors falling in its range — and every u ∈ K recovers
R_i ∩ C(K) by OR-ing the bitmaps received from its neighbors in T_i
(Lemma 4.2: any used color c ∈ R_i with holder w is seen because T_i
contains a common neighbor of u and w).

The implementation runs the actual protocol (random ranges, per-node
bitmaps, OR over in-clique neighbors) for a set of cliques at once and
reports per-clique completeness, so the w.h.p. statement of Lemma 4.2 is
measurable.  The bitmaps are packed into uint64 words, and the OR over
every member's in-clique neighbors is one ``bitwise_or.reduceat`` over the
in-clique edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import ColoringConfig
from repro.core.state import ColoringState
from repro.simulator.network import gather_csr_rows
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_int

__all__ = ["PaletteKnowledge", "learn_palette"]


@dataclass
class PaletteKnowledge:
    """What LearnPalette produced for a set of cliques.  Member rows run
    clique by clique: clique q owns rows ``offsets[q]:offsets[q + 1]``."""

    members: np.ndarray  # (M,) clique members, aligned with rows of `known_free`
    offsets: np.ndarray  # (Q + 1,) row offsets of the cliques
    known_free: np.ndarray  # (M, num_colors) bool: v's view of Ψ(K)
    true_free: np.ndarray  # (Q, num_colors) bool: the actual Ψ(K)
    incomplete_members: np.ndarray  # (Q,) members that missed a used color

    @property
    def complete(self) -> np.ndarray:
        """(Q,) bool: every member of the clique learned exactly C(K)."""
        return self.incomplete_members == 0

    def learned_palette(self, row: int) -> np.ndarray:
        """The clique palette as node ``members[row]`` believes it to be."""
        return np.flatnonzero(self.known_free[row]).astype(np.int64)


def learn_palette(
    state: ColoringState,
    cliques: Sequence[np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/learn-palette",
    tags: Sequence[object] | None = None,
    account: bool = True,
) -> PaletteKnowledge:
    """Run Algorithm 2 in every clique of ``cliques`` (disjoint member
    arrays) at once.

    Clique q splits the palette into k = min(⌊Δ/(C log n)⌋, |K|) ranges
    and draws its members' range indices t(v), in member order, from
    ``seq.stream("learn-palette", phase, tags[q])`` (tag q by default).
    Bitmap(v) holds the colors of v's in-clique neighbors inside v's
    range.  Known-used(v) is the OR of its in-clique neighbors' bitmaps,
    plus those neighbors' own colors, plus v's color.  With ``account``,
    one round is charged: every member broadcasts its bitmap and range
    index, and the message is the widest clique's.
    """
    net = state.net
    colors = state.colors
    num_colors = state.num_colors
    tags = range(len(cliques)) if tags is None else tags
    sizes = np.array([len(m) for m in cliques], dtype=np.int64)
    members = (
        np.concatenate(cliques).astype(np.int64, copy=False)
        if len(cliques)
        else np.empty(0, dtype=np.int64)
    )
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    clique_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)

    # Ranges: k = ⌊Δ/(C log n)⌋, at least 1 and at most |K| (Algorithm 2);
    # every clique draws t from its own stream.
    k_max = max(1, int(net.delta // max(cfg.log_threshold(net.n), 1.0)))
    lo = np.empty(members.size, dtype=np.int64)
    hi = np.empty(members.size, dtype=np.int64)
    msg_bits = 0
    for q, tag in enumerate(tags):
        k = min(k_max, max(int(sizes[q]), 1))
        bounds = np.linspace(0, num_colors, k + 1).astype(np.int64)
        t = seq.stream("learn-palette", phase, tag).integers(0, k, size=sizes[q])
        lo[offsets[q] : offsets[q + 1]] = bounds[t]
        hi[offsets[q] : offsets[q + 1]] = bounds[t + 1]
        msg_bits = max(msg_bits, int((bounds[1:] - bounds[:-1]).max()) + bits_for_int(k))

    # The in-clique edge list, grouped by source row.
    row_of = np.full(net.n, -1, dtype=np.int64)
    row_of[members] = np.arange(members.size)
    nbr_row = row_of[gather_csr_rows(net.indptr, net.indices, members)]
    src_row = np.repeat(np.arange(members.size, dtype=np.int64), net.degrees[members])
    inside = nbr_row >= 0
    inside[inside] = clique_of[nbr_row[inside]] == clique_of[src_row[inside]]
    src_row, nbr_row = src_row[inside], nbr_row[inside]
    own = colors[members]
    nbr_color = own[nbr_row]
    held = nbr_color >= 0

    # Step 1: bitmap(v) = v's range ∩ colors of its in-clique neighbors,
    # packed into 64-color words.
    words = (num_colors + 63) // 64
    in_range = held & (nbr_color >= lo[src_row]) & (nbr_color < hi[src_row])
    bitmaps = np.zeros((members.size, 64 * words), dtype=bool)
    bitmaps[src_row[in_range], nbr_color[in_range]] = True
    packed = np.packbits(bitmaps, axis=1, bitorder="little").view(np.uint64)

    # Step 2: each member ORs the bitmaps of its in-clique neighbors (the
    # range index travels with the bitmap).
    known = np.zeros((members.size, words), dtype=np.uint64)
    degree = np.bincount(src_row, minlength=members.size)
    has = degree > 0
    if has.any():
        starts = (np.cumsum(degree) - degree)[has]
        known[has] = np.bitwise_or.reduceat(packed[nbr_row], starts, axis=0)
    known_used = np.unpackbits(
        known.view(np.uint8), axis=1, count=num_colors, bitorder="little"
    ).astype(bool)
    # v also knows the colors of its in-clique neighbors directly, and its own.
    known_used[src_row[held], nbr_color[held]] = True
    mine = own >= 0
    known_used[np.flatnonzero(mine), own[mine]] = True

    true_used = np.zeros((sizes.size, num_colors), dtype=bool)
    true_used[clique_of[mine], own[mine]] = True

    # Completeness: over-approximation is impossible (bitmaps only carry
    # genuinely used colors); count members that *missed* colors.
    missed = (~known_used & true_used[clique_of]).any(axis=1)
    incomplete = np.bincount(clique_of[missed], minlength=sizes.size)

    if account and sizes.size:
        net.account_vector_round(int(members.size), msg_bits, phase=phase)

    return PaletteKnowledge(
        members=members,
        offsets=offsets,
        known_free=~known_used,
        true_free=~true_used,
        incomplete_members=incomplete,
    )
