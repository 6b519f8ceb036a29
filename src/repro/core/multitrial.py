"""MultiTrial: trying many colors per round under O(log n)-bit broadcasts
(Lemma 2.14, [SW10, HN23, HKNT22]).

The bandwidth trick (Challenge 1 of §1.2): instead of broadcasting the
tried colors explicitly, a node broadcasts one short *seed*; every
neighbor expands the seed into the same pseudorandom sequence of colors
from the node's publicly known list L(v) (Property 1 of Lemma 2.14 — in
this pipeline every list is a color interval, and interval endpoints were
broadcast during setup).

Adoption rule: v adopts the first color c in its expanded sequence such
that (a) no colored neighbor holds c and (b) no *smaller-ID* active
neighbor u has c anywhere in u's expanded sequence.  Rule (b) makes
simultaneous adoption conflict-free: if adjacent u < v both could adopt c,
then c ∈ X_u, so v skipped it.

The number of tries grows geometrically per iteration — the engine behind
the O(log* n) bound: with slack ≥ 2d̂ each try fails with probability
≤ 1/2, so the uncolored degree decays doubly exponentially while the try
budget catches up.

The round is a pure function of the per-node expansions (DESIGN.md §4):
the whole iteration runs on the CSR edge arrays, with the (A×k) proposal
matrix built in one call.  When every try is below 64 a listener needs
only one word: each row ORs the one-hot words of its colored neighbors'
colors and of its smaller-ID active neighbors' tries, and a try
survives iff its bit is clear.  Wider tries are compared directly, pair
by pair, in chunks whose gathered rows stay within a fixed byte budget
at any k.  Each row adopts its first surviving column with one
``argmax``.  No per-node Python; the node-at-a-time oracle the tests
compare both kernels with is ``tests/helpers.py:resolve_pernode_oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ColoringConfig
from repro.core.state import ColoringState
from repro.hashing.expander import walk_colors
from repro.hashing.prg import derive_seeds_batch, expand_indices_batch
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

__all__ = [
    "INITIAL_TRIES",
    "MAX_ITERATIONS",
    "MultiTrialReport",
    "TRY_CAP",
    "TRY_GROWTH",
    "multitrial",
]

INITIAL_TRIES = 2
"""Colors each node tries in the first iteration."""

TRY_GROWTH = 2.0
"""Geometric growth of the tries per iteration (the log* engine)."""

TRY_CAP = 64
"""Most colors a node tries in one iteration (the seed expansion's
length)."""

MAX_ITERATIONS = 24
"""Iterations before the nodes still uncolored are left to the caller."""

# Tries below this bound are resolved with one forbidden-color word per
# row (DESIGN.md §4).
_WORD_BITS = 64

# The compare kernel takes a chunk of C pairs at a time, sized so the two
# (k×C) int64 arrays it gathers stay near this many bytes at any k
# (DESIGN.md §4).
_CHUNK_BYTES = 4 << 20


@dataclass
class MultiTrialReport:
    iterations: int = 0
    colored: int = 0
    remaining: int = 0
    per_iteration: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "colored": self.colored,
            "remaining": self.remaining,
        }


def _proposal_matrix(
    active: np.ndarray,
    k: int,
    list_lo: np.ndarray,
    list_hi: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str,
    it: int,
) -> np.ndarray:
    """The (A×k) matrix of tried colors: row i is active[i]'s expansion of
    its broadcast seed over its interval.  Rows whose interval is empty are
    all ``-1``.  This is the *public* computation — broadcaster and every
    listener produce identical rows from the seed alone."""
    lo = list_lo[active].astype(np.int64)
    hi = list_hi[active].astype(np.int64)
    if cfg.multitrial_sampler == "batched":
        # One blake2b for the round, one vectorized mix for all A seeds,
        # one counter-mode call for all A×k colors.
        base = seq.derive_seed("mt", phase, it)
        seeds = derive_seeds_batch(active, base)
        idx = expand_indices_batch(seeds, k, hi - lo)
        return np.where(idx >= 0, lo[:, None] + idx, np.int64(-1))
    # "expander": one [HN23] walk per node over its interval.
    proposals = np.full((active.size, k), -1, dtype=np.int64)
    for i, v in enumerate(active):
        seed = seq.derive_seed("mt", phase, it, int(v))
        x_v = walk_colors(seed, k, int(lo[i]), int(hi[i]))
        if x_v.size:
            proposals[i] = x_v
    return proposals


def _one_hot(values: np.ndarray) -> np.ndarray:
    """The word ``1 << x`` of each int64 entry x, and 0 where x is
    negative or at least 64 (an uncolored node, an empty row's ``-1``, a
    color no try below 64 can equal): read as unsigned, such an x is at
    least 64, and numpy defines a shift past the word width as 0."""
    return np.left_shift(np.uint64(1), np.asarray(values, dtype=np.int64).view(np.uint64))


def _forbidden_words(
    state: ColoringState, active: np.ndarray, try_words: np.ndarray
) -> np.ndarray:
    """For each active row v, the OR of the words its kill rules read: a
    colored neighbor's color bit, and a smaller-ID active neighbor's try
    word (``try_words``, aligned with ``active``).  A larger-ID active
    neighbor contributes 0.  One gather over the rows' pairs and one OR
    per row segment."""
    net = state.net
    deg = net.degrees[active]
    src, dst = net.row_edges(active)
    if 2 * int(deg.sum()) > net.indices.size:
        # row_edges returned all 2m pairs: one word per node, and the
        # segments are every CSR row.
        word = _one_hot(state.colors)
        word[active] = try_words  # active nodes are uncolored
        keep = np.ones(state.n, dtype=bool)
        keep[active] = False  # an active neighbor counts only from below
        keep = keep[dst]
        keep |= dst < src
        pairs = word.take(dst)
        pairs *= keep
        return _segment_or(pairs, net.degrees)[active]
    # Gathered rows: the words are built per pair.
    row = np.full(state.n, -1, dtype=np.int64)
    row[active] = np.arange(active.size)
    row = row[dst]
    early = (row >= 0) & (dst < src)
    pairs = _one_hot(state.colors[dst])
    pairs[early] = try_words[row[early]]  # active nodes are uncolored
    return _segment_or(pairs, deg)


def _segment_or(pairs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """OR of each of the consecutive segments of ``pairs`` with the given
    lengths (0 for an empty segment)."""
    out = np.zeros(lengths.size, dtype=np.uint64)
    has = lengths > 0
    if has.any():
        starts = np.cumsum(lengths) - lengths
        out[has] = np.bitwise_or.reduceat(pairs, starts[has])
    return out


def _kill_matches(
    killed: np.ndarray, tries: np.ndarray, rows: np.ndarray, table: np.ndarray, cols: np.ndarray
) -> None:
    """For each pair p, kill every try of active row ``rows[p]`` that
    equals an entry of ``table[:, cols[p]]``.  ``tries`` is the proposal
    matrix transposed (k×A), so a chunk of C pairs gathers k×C arrays and
    each compare runs along the pairs, one row of ``table`` at a time: no
    temporary exceeds k×C."""
    step = max(1, _CHUNK_BYTES // (16 * tries.shape[0]))
    for c0 in range(0, rows.size, step):
        r = rows[c0 : c0 + step]
        pv = tries.take(r, axis=1)
        other = table.take(cols[c0 : c0 + step], axis=1)
        hit = pv == other[0]
        for line in other[1:]:
            hit |= pv == line
        flat = np.flatnonzero(hit)
        killed[flat // r.size, r[flat % r.size]] = True  # duplicates are harmless


def _compare_kills(
    state: ColoringState, active: np.ndarray, tries: np.ndarray
) -> np.ndarray:
    """The (k×A) mask of killed tries by direct compares, for tries of any
    size.  Rule (a) is rule (b) with a one-entry other side, so one
    helper runs both."""
    k, a_count = tries.shape
    pos = np.full(state.n, -1, dtype=np.int64)
    pos[active] = np.arange(a_count)
    src, dst = state.net.row_edges(active)
    src_pos = pos[src]
    src_active = src_pos >= 0
    killed = np.zeros((k, a_count), dtype=bool)

    am = np.flatnonzero(src_active & (state.colors[dst] >= 0))  # rule (a)
    _kill_matches(killed, tries, src_pos[am], state.colors[None, :], dst[am])
    dst_pos = pos[dst]
    bm = np.flatnonzero(src_active & (dst_pos >= 0) & (dst < src))  # rule (b)
    _kill_matches(killed, tries, src_pos[bm], tries, dst_pos[bm])
    return killed


def _resolve_vectorized(
    state: ColoringState, active: np.ndarray, proposals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-wise adoption over the active nodes' CSR rows
    (:meth:`~repro.simulator.network.BroadcastNetwork.row_edges`; ``active``
    ascends) — no per-node Python and no sort.

    Kill rule (a): a try equal to a colored neighbor's color dies.  Kill
    rule (b): a try present anywhere in a smaller-ID active neighbor u's
    expansion dies.  When every try is below 64, both rules are one
    forbidden-color word per row (:func:`_forbidden_words`); otherwise
    v's k tries are compared with each of u's (:func:`_compare_kills`).
    The choice reads the proposal matrix only.  Empty rows are all
    ``-1``: they match no color, and no ``-1`` is adopted.
    """
    tries = np.ascontiguousarray(proposals.T)
    if tries.max(initial=-1) < _WORD_BITS:
        bits = _one_hot(tries)  # 0 exactly where a try is -1
        forbidden = _forbidden_words(state, active, np.bitwise_or.reduce(bits, axis=0))
        alive = (bits & forbidden) == 0
        alive &= bits != 0
    else:
        alive = (tries >= 0) & ~_compare_kills(state, active, tries)
    first = alive.argmax(axis=0)
    rows = np.flatnonzero(alive.any(axis=0))
    return active[rows], tries[first[rows], rows]


def multitrial(
    state: ColoringState,
    mask: np.ndarray,
    list_lo: np.ndarray,
    list_hi: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str,
) -> MultiTrialReport:
    """Color (as many as possible of) the nodes in ``mask`` whose color
    lists are the intervals ``[list_lo[v], list_hi[v])``.

    Returns a report; nodes still uncolored after :data:`MAX_ITERATIONS`
    iterations are left for the caller (the cleanup phase picks them up —
    with the paper's slack guarantees this does not happen w.h.p.).
    """
    net = state.net
    report = MultiTrialReport()
    k = float(INITIAL_TRIES)
    for it in range(MAX_ITERATIONS):
        active = np.flatnonzero(mask & (state.colors < 0))
        if active.size == 0:
            break
        report.iterations += 1
        k_i = int(min(TRY_CAP, round(k)))

        proposals = _proposal_matrix(
            active, k_i, list_lo, list_hi, cfg, seq, phase, it
        )
        adopt_nodes, adopt_colors = _resolve_vectorized(state, active, proposals)

        if adopt_nodes.size:
            state.adopt(adopt_nodes, adopt_colors)
        # Round 1: seeds (one O(log n)-bit word — capped for tiny graphs
        # where 64 raw bits would exceed the scaled budget); round 2:
        # adopted colors.
        seed_bits = min(64, net.bandwidth_bits) if net.bandwidth_bits else 64
        net.account_vector_round(int(active.size), seed_bits, phase=phase)
        net.account_vector_round(
            int(adopt_nodes.size), bits_for_color(state.delta), phase=phase
        )
        report.colored += int(adopt_nodes.size)
        report.per_iteration.append(
            {
                "iteration": it,
                "tries": k_i,
                "active": int(active.size),
                "colored": int(adopt_nodes.size),
            }
        )
        k *= TRY_GROWTH

    report.remaining = int((mask & (state.colors < 0)).sum())
    return report
