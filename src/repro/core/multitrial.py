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

The round is a pure function of the per-node expansions, and one kernel
implements it (DESIGN.md §4): the whole iteration runs on the CSR edge
arrays.  The (A×k) proposal matrix is built in one call, colored-neighbor
collisions die via a sorted join (``searchsorted`` over per-node sorted
neighbor colors), smaller-ID expansion collisions die via a sorted
membership join over per-node sorted expansions, and each row adopts its
first surviving column with one ``argmax``.  No per-node Python; the
node-at-a-time oracle the tests compare it with is
``tests/helpers.py:resolve_pernode_oracle``.
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

__all__ = ["MultiTrialReport", "multitrial"]


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


def _resolve_vectorized(
    state: ColoringState, active: np.ndarray, proposals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-wise adoption over the active nodes' CSR rows
    (:meth:`~repro.simulator.network.BroadcastNetwork.row_edges`; ``active``
    ascends) — no per-node Python.

    Kill rule (a): a proposal equal to any colored neighbor's color dies.
    Sorted join: pack (row, color) pairs of colored neighbors into integer
    keys, ``searchsorted`` every proposal entry against the sorted keys.

    Kill rule (b): a proposal present anywhere in a smaller-ID active
    neighbor's expansion dies.  Per-row sorted expansions concatenate into
    one globally sorted key array (row offsets dominate the in-row values),
    so one ``searchsorted`` per directed active edge batch answers every
    membership query.
    """
    net = state.net
    a_count, k = proposals.shape
    pos = np.full(state.n, -1, dtype=np.int64)
    pos[active] = np.arange(a_count)

    # Key packing span: strictly larger than any color appearing in either
    # join (proposals, colored neighbor colors) plus a sentinel slot.
    span = int(
        max(
            state.num_colors,
            int(proposals.max(initial=-1)) + 1,
            1,
        )
    ) + 2
    sentinel = span - 1  # never a real color on either side of a join

    src, dst = net.row_edges(active)
    src_pos = pos[src]
    src_active = src_pos >= 0

    # --- rule (a): colored-neighbor collisions -------------------------
    dst_colors = state.colors[dst]
    am = src_active & (dst_colors >= 0)
    colored_keys = np.unique(src_pos[am] * span + dst_colors[am])
    row_base = np.arange(a_count, dtype=np.int64)[:, None] * span
    query = row_base + np.where(proposals >= 0, proposals, sentinel)
    loc = np.searchsorted(colored_keys, query.ravel())
    loc_ok = loc < colored_keys.size
    killed = np.zeros(a_count * k, dtype=bool)
    killed[loc_ok] = colored_keys[loc[loc_ok]] == query.ravel()[loc_ok]
    killed = killed.reshape(a_count, k)

    # --- rule (b): smaller-ID active neighbors' expansions -------------
    bm = src_active & (pos[dst] >= 0) & (dst < src)
    if bm.any():
        v_rows = src_pos[bm]          # the node whose proposals may die
        u_rows = pos[dst[bm]]          # the smaller-ID active neighbor
        sorted_exp = np.sort(np.where(proposals >= 0, proposals, sentinel), axis=1)
        flat_keys = (row_base + sorted_exp).ravel()  # globally sorted
        q2 = u_rows[:, None] * span + np.where(
            proposals[v_rows] >= 0, proposals[v_rows], sentinel - 1
        )
        loc2 = np.searchsorted(flat_keys, q2.ravel())
        loc2_ok = loc2 < flat_keys.size
        hit2 = np.zeros(q2.size, dtype=bool)
        hit2[loc2_ok] = flat_keys[loc2[loc2_ok]] == q2.ravel()[loc2_ok]
        if hit2.any():
            flat_idx = (v_rows[:, None] * k + np.arange(k, dtype=np.int64)).ravel()
            killed.ravel()[np.unique(flat_idx[hit2])] = True

    alive = (proposals >= 0) & ~killed
    has = alive.any(axis=1)
    first = np.argmax(alive, axis=1)
    rows = np.flatnonzero(has)
    return active[rows], proposals[rows, first[rows]]


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

    Returns a report; nodes still uncolored after ``cfg.multitrial_max_iters``
    iterations are left for the caller (the cleanup phase picks them up —
    with the paper's slack guarantees this does not happen w.h.p.).
    """
    net = state.net
    report = MultiTrialReport()
    k = float(cfg.multitrial_initial)
    for it in range(cfg.multitrial_max_iters):
        active = np.flatnonzero(mask & (state.colors < 0))
        if active.size == 0:
            break
        report.iterations += 1
        k_i = int(min(cfg.multitrial_cap, max(1, round(k))))

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
        k *= cfg.multitrial_growth

    report.remaining = int((mask & (state.colors < 0)).sum())
    return report
