"""Incremental recoloring: maintain a (Δ_t+1)-coloring under churn.

The control loop per :class:`~repro.dynamic.events.UpdateBatch`
(DESIGN.md §6):

1. **delta** — departures expand to their incident edges; the whole batch
   lands in one :meth:`BroadcastNetwork.apply_delta` positional splice,
   with announcement rounds/bits charged to ``dynamic/delta``.
2. **detect** — delta-routed conflict detection: while the pre-batch
   coloring is proper, only the batch's inserted edges can be
   monochromatic, so one endpoint of each monochromatic inserted edge
   loses its color, as does any node whose color fell out of the new
   palette [Δ_t+1] (Δ shrank).  Changed neighborhoods re-sync with one
   color broadcast from touched nodes.
3. **repair** — the conflict set + arrivals re-run the *existing* batched
   kernels as subroutines: MultiTrial (seed broadcasts, geometric try
   growth) when the set is large enough to warrant it, then TryColor
   rounds from true palettes until proper.  The fringe — colored
   neighbors of the conflict set — participates as listeners only: its
   colors constrain palettes but never move, which is what keeps
   recolored-nodes-per-batch small.
4. **fallback** — when the conflicted fraction of active nodes crosses
   ``cfg.dynamic_fallback_fraction`` (or a repair stalls), drop the
   maintained coloring and re-run the full pipeline on the current graph
   — the recolor-from-scratch baseline, available per batch.
5. **audit** — propriety is checked where the batch could break it: the
   inserted edges and the recolored nodes' rows.  That is exact while the
   pre-batch coloring is proper; after a fallback or an improper verdict
   the full edge scan runs instead.  Each failed invariant bit counts
   ``repro_invariant_violations_total{kind}``.

Invariant after every batch (pinned by tests/test_dynamic.py): the
maintained coloring is proper, complete on active nodes, and uses at
most Δ_t+1 colors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro import obs
from repro.config import VICTIM_POLICIES, ColoringConfig
from repro.core.algorithm import MAX_CLEANUP_ROUNDS, BroadcastColoring
from repro.core.multitrial import multitrial
from repro.core.state import ColoringState, count_distinct_colors
from repro.core.trycolor import palette_sampler, try_color_round
from repro.dynamic.events import ChurnSchedule, UpdateBatch
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

__all__ = [
    "DynamicColoring",
    "BatchReport",
    "DynamicResult",
    "conflict_victims",
    "conflict_repair",
    "monochromatic_edges",
    "VICTIM_POLICIES",
    "REPAIR_MULTITRIAL_MIN",
]

REPAIR_MULTITRIAL_MIN = 8
"""Conflict sets smaller than this skip MultiTrial and go straight to
TryColor (a 2-node repair does not need seed machinery)."""


def monochromatic_edges(
    net: BroadcastNetwork, colors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(hi, lo)`` endpoint arrays of every monochromatic undirected
    edge under ``colors`` (``hi > lo``, each edge once) — the single
    definition of "conflict" every detector and counter derives from."""
    src, dst = net.edge_src, net.indices
    mono = (colors[src] >= 0) & (colors[src] == colors[dst]) & (dst < src)
    return src[mono], dst[mono]


def conflict_victims(
    net: BroadcastNetwork,
    colors: np.ndarray,
    policy: str = "id",
    num_colors: int | None = None,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Bool mask selecting one endpoint of every monochromatic edge — the
    node that loses its color and re-runs the repair kernel.

    ``policy`` (the ``conflict_victim`` config knob):

    * ``"id"`` — the larger-ID endpoint, the original rule.
    * ``"slack"`` — the endpoint with the *larger* palette: it has the
      most free colors, so it re-colors in the fewest tries, while the
      endpoint with smaller palette slack keeps its color (ROADMAP's
      smarter-victim item; ties fall back to the larger ID).

    ``edges`` passes the ``(hi, lo)`` monochromatic pairs in when the
    caller knows where conflicts can be (the delta-routed detector passes
    the monochromatic inserted edges, the shard engine the monochromatic
    cut edges); by default the whole CSR is scanned
    (:func:`monochromatic_edges`).
    """
    if policy not in VICTIM_POLICIES:
        raise ValueError(
            f"unknown conflict_victim policy {policy!r} (choose from "
            f"{VICTIM_POLICIES})"
        )
    hi, lo = edges if edges is not None else monochromatic_edges(net, colors)
    out = np.zeros(net.n, dtype=bool)
    if not hi.size:
        return out
    if policy == "id":
        out[hi] = True
        return out
    # Palette sizes only for the conflict endpoints, read from their CSR
    # rows: the conflict set is tiny next to the graph.  A neighbor
    # colored beyond the palette (Δ just shrank) forbids nothing in it.
    endpoints = np.zeros(net.n, dtype=bool)
    endpoints[hi] = True
    endpoints[lo] = True
    nodes = np.flatnonzero(endpoints)
    state = ColoringState(net, num_colors=num_colors)
    state.colors = colors
    pal = np.zeros(net.n, dtype=np.int64)
    pal[nodes] = state.grouped_palettes(nodes).sizes
    pick_hi = pal[hi] >= pal[lo]
    out[hi[pick_hi]] = True
    out[lo[~pick_hi]] = True
    return out


def conflict_repair(
    net: BroadcastNetwork,
    colors: np.ndarray,
    repair_set: np.ndarray,
    num_colors: int,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    tag: object = 0,
    phase: str = "repair",
    mt_label: str = "repair-mt",
) -> tuple[np.ndarray, bool, int]:
    """The batched conflict-repair kernel shared by the dynamic engine
    (once per batch) and the shard engine (once per run, on the cut's
    victims): re-color ``repair_set`` (uncolored node ids) on ``net``
    against the fixed fringe by re-running the existing kernels —
    MultiTrial on ``[0, num_colors)`` when the set has at least
    :data:`REPAIR_MULTITRIAL_MIN` nodes, then TryColor rounds from true
    palettes.

    Returns ``(colors, fully_colored, trycolor_rounds)``; the input
    ``colors`` array is never mutated.  The fringe — colored neighbors of
    the repair set — participates as listeners only: its colors constrain
    palettes but never move.
    """
    repair_set = np.asarray(repair_set, dtype=np.int64)
    if repair_set.size == 0:
        return colors, True, 0
    state = ColoringState(net, num_colors=num_colors)
    state.colors = colors.copy()
    if repair_set.size >= REPAIR_MULTITRIAL_MIN:
        mask = np.zeros(net.n, dtype=bool)
        mask[repair_set] = True
        lo = np.zeros(net.n, dtype=np.int64)
        hi = np.full(net.n, num_colors, dtype=np.int64)
        multitrial(
            state,
            mask,
            lo,
            hi,
            cfg,
            seq.spawn(mt_label, tag),
            phase=phase,
        )
    rounds = 0
    sampler = palette_sampler(state)
    while rounds < MAX_CLEANUP_ROUNDS:
        pending = repair_set[state.colors[repair_set] < 0]
        if not pending.size:
            break
        try_color_round(
            state,
            pending,
            sampler,
            seq,
            phase=phase,
            round_tag=(tag, rounds),
        )
        rounds += 1
    done = bool((state.colors[repair_set] >= 0).all())
    return state.colors, done, rounds


@dataclass
class BatchReport:
    """Everything one batch produced (quality + cost, per ISSUE E14)."""

    index: int
    mode: str  # "repair" | "fallback"
    fallback_reason: str | None
    conflicts: int
    """Nodes whose color was invalidated by the delta (mono edges +
    out-of-palette); arrivals are counted separately."""
    arrivals: int
    departures: int
    edges_added: int
    edges_removed: int
    recolored: int
    active: int
    delta: int
    colors_used: int
    rounds: int
    total_bits: int
    proper: bool
    complete: bool
    seconds: float

    @property
    def conflict_fraction(self) -> float:
        """Conflicted share of active nodes — what the fallback
        threshold (``dynamic_fallback_fraction``) is compared against."""
        return self.conflicts / max(self.active, 1)

    @property
    def recolored_fraction(self) -> float:
        """Share of active nodes that changed color this batch — the
        paper's locality claim is that this stays near the churn rate."""
        return self.recolored / max(self.active, 1)

    def as_dict(self) -> dict:
        """JSON-safe flat dict of this report (CLI ``--json`` rows and
        the serve protocol's ``batch_report`` frames carry exactly this)."""
        return {
            "index": self.index,
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "conflicts": self.conflicts,
            "conflict_fraction": round(self.conflict_fraction, 6),
            "arrivals": self.arrivals,
            "departures": self.departures,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "recolored": self.recolored,
            "recolored_fraction": round(self.recolored_fraction, 6),
            "active": self.active,
            "delta": self.delta,
            "colors_used": self.colors_used,
            "rounds": self.rounds,
            "total_bits": self.total_bits,
            "proper": self.proper,
            "complete": self.complete,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class DynamicResult:
    """A full churn run: the initial coloring plus one report per batch."""

    n: int
    initial_rounds: int
    initial_seconds: float
    reports: list[BatchReport] = field(default_factory=list)

    def summary(self) -> dict:
        """Aggregate the per-batch reports into the run-level verdict:
        invariants held everywhere (``proper_all``/``complete_all``/
        ``colors_within_budget``), how local the maintenance was (mean/
        max recolored fraction), and the total round/bit cost."""
        reps = self.reports
        rec = [r.recolored_fraction for r in reps] or [0.0]
        con = [r.conflict_fraction for r in reps] or [0.0]
        return {
            "batches": len(reps),
            "fallbacks": sum(1 for r in reps if r.mode == "fallback"),
            "mean_conflict_fraction": float(np.mean(con)),
            "mean_recolored_fraction": float(np.mean(rec)),
            "max_recolored_fraction": float(np.max(rec)),
            "mean_repair_rounds": float(np.mean([r.rounds for r in reps] or [0])),
            "total_rounds": int(sum(r.rounds for r in reps)),
            "total_bits": int(sum(r.total_bits for r in reps)),
            "proper_all": bool(all(r.proper for r in reps)),
            "complete_all": bool(all(r.complete for r in reps)),
            "colors_within_budget": bool(
                all(r.colors_used <= r.delta + 1 for r in reps)
            ),
            "initial_rounds": self.initial_rounds,
        }


class DynamicColoring:
    """Maintains a proper (Δ_t+1)-coloring across update batches.

    >>> from repro.graphs.families import make_churn
    >>> sched = make_churn("gnp-churn", 500, 12.0, seed=3, batches=4)
    >>> result = DynamicColoring(sched.initial).run(sched)
    >>> assert result.summary()["proper_all"]

    Parameters
    ----------
    graph:
        The initial ``(n, edges)`` pair (or a :class:`ChurnSchedule`,
        whose initial graph is taken).  The node universe is fixed at n.
    config:
        :class:`ColoringConfig`; the ``dynamic_*`` knobs drive the
        repair-vs-fallback policy.
    initial_colors:
        Warm-start path: when given, the engine *adopts* this coloring
        instead of running the full pipeline on the initial graph.  Used
        by :func:`repro.serve.snapshot.restore_engine` (crash recovery /
        warm restarts) and by ``repro serve`` when the initial coloring
        comes from :class:`~repro.shard.ShardedColoring`.  The coloring
        is not trusted to be proper: one full edge scan clears a victim
        of every monochromatic edge (the ``conflict_victim`` rule), so the
        delta-routed detector's precondition holds from the first batch,
        which repairs the cleared nodes like any other uncolored active
        node.  A proper coloring is adopted unchanged.
        ``initial_rounds`` / ``initial_seconds`` are reported as 0 (the
        cost was paid elsewhere).
    active:
        Active-node mask to adopt alongside ``initial_colors`` (default:
        all nodes active).  Only meaningful on the warm-start path.
    batch_index:
        The timestep to resume at (default 0).  Per-batch seed streams
        are a pure function of ``(config.seed, batch_index)``, so a
        restored engine replays the exact color decisions the
        uninterrupted engine would have made from this point on — the
        restore ≡ never-crashed property tests/test_serve.py pins.
    """

    def __init__(
        self,
        graph,
        config: ColoringConfig | None = None,
        *,
        initial_colors: np.ndarray | None = None,
        active: np.ndarray | None = None,
        batch_index: int = 0,
    ):
        if isinstance(graph, ChurnSchedule):
            graph = graph.initial
        self.cfg = config or ColoringConfig.practical()
        self.net = BroadcastNetwork(graph)
        self.net.bandwidth_bits = self.cfg.bandwidth_bits(self.net.n)
        self.seq = SeedSequencer(self.cfg.seed).spawn("dynamic")
        self.active = np.ones(self.net.n, dtype=bool)
        self._batch_index = int(batch_index)
        # The propriety verdict of the last audit: the last batch's, or
        # the construction's.  Only batches change colors, so it holds
        # until the next batch; is_proper() is the on-demand scan.
        self.audited_proper = True

        if initial_colors is not None:
            colors = np.asarray(initial_colors, dtype=np.int64).copy()
            if colors.shape != (self.net.n,):
                raise ValueError(
                    f"initial_colors shape {colors.shape} != ({self.net.n},)"
                )
            self.colors = colors
            if active is not None:
                adopted = np.asarray(active, dtype=bool).copy()
                if adopted.shape != (self.net.n,):
                    raise ValueError(
                        f"active shape {adopted.shape} != ({self.net.n},)"
                    )
                self.active = adopted
            # One victim per monochromatic edge loses its color, so the
            # adopted coloring is proper from here on.
            colors[conflict_victims(self.net, colors, self.cfg.conflict_victim)] = -1
            self.initial_rounds = 0
            self.initial_seconds = 0.0
            return

        t0 = time.perf_counter()
        rounds0 = self.net.metrics.total_rounds
        result = BroadcastColoring(self.net, self.cfg).run()
        self.colors = result.colors.copy()
        self.audited_proper = bool(result.proper)
        self.initial_rounds = self.net.metrics.total_rounds - rounds0
        self.initial_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Size of the (fixed) node universe [n]."""
        return self.net.n

    @property
    def batch_index(self) -> int:
        """The next timestep to apply — equivalently, how many batches
        this engine has already absorbed (snapshots persist it so a
        restored engine resumes the same seed streams)."""
        return self._batch_index

    def colors_used(self) -> int:
        """Number of distinct colors assigned to active nodes (the
        quantity bounded by Δ_t+1 after every batch)."""
        return count_distinct_colors(self.colors[self.active])

    def is_proper(self) -> bool:
        """True when no edge of the *current* topology is monochromatic:
        the full O(m) scan, run on demand and by the audit of a batch
        whose scoped check would not be exact."""
        src, dst = self.net.edge_src, self.net.indices
        c = self.colors
        return not bool(((c[src] >= 0) & (c[src] == c[dst])).any())

    def is_complete(self) -> bool:
        """True when every active node holds a color."""
        return bool((self.colors[self.active] >= 0).all())

    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch) -> BatchReport:
        """Apply one update batch and restore the coloring invariant."""
        cfg, net = self.cfg, self.net
        metrics = net.metrics
        t = self._batch_index
        self._batch_index += 1
        batch_span = obs.start_span("dynamic.apply_batch", index=t)
        t0 = time.perf_counter()
        rounds_before = metrics.total_rounds
        bits_before = metrics.total_bits
        batch.validate(net.n)

        # ---- 1. delta merge (departures expand to incident edges) ----
        dep_incident = self._departure_edges(batch)
        deletions = np.concatenate([batch.delete_edges, dep_incident])
        with metrics.time_phase("dynamic/delta"):
            delta_rep = net.apply_delta(
                batch.insert_edges,
                deletions,
                phase="dynamic/delta",
                silent_nodes=batch.departures,
            )
        self.active[batch.departures] = False
        self.colors[batch.departures] = -1
        self.active[batch.arrivals] = True
        num_colors = net.delta + 1

        # ---- 2. conflict detection on the new CSR --------------------
        with metrics.time_phase("dynamic/detect"):
            c = self.colors
            conflict = self._detect_conflicts(batch, num_colors)
            c[conflict] = -1
            # Touched *live* nodes re-broadcast their color so every
            # changed neighborhood agrees on the post-delta state: one
            # round.  Departed nodes are powered down and stay silent —
            # their neighbors learn the loss from the delta announcements.
            touched = np.zeros(net.n, dtype=bool)
            for arr in (batch.insert_edges, batch.delete_edges, dep_incident):
                if arr.size:
                    touched[arr.reshape(-1)] = True
            touched[batch.arrivals] = True
            touched[batch.departures] = False
            net.account_vector_round(
                int(touched.sum()),
                bits_for_color(max(net.delta, 1)),
                phase="dynamic/detect",
            )
        conflicts = int(conflict.sum())

        # ---- 3/4. repair or fallback ---------------------------------
        repair_set = np.flatnonzero(self.active & (self.colors < 0))
        frac = conflicts / max(int(self.active.sum()), 1)
        mode, reason = "repair", None
        if frac > cfg.dynamic_fallback_fraction:
            mode, reason = "fallback", "fraction"
        else:
            done = self._repair(repair_set, num_colors, t)
            if not done:
                mode, reason = "fallback", "repair-stalled"
        if mode == "fallback":
            self._full_recolor(t)

        recolored = (
            int(self.active.sum()) if mode == "fallback" else int(repair_set.size)
        )
        obs.end_span(batch_span)
        obs.count("repro_dynamic_batches_total", mode=mode)
        obs.observe("repro_dynamic_batch_us", (time.perf_counter() - t0) * 1e6)

        # ---- 5. audit ------------------------------------------------
        if mode == "repair" and self.audited_proper:
            proper = self._scoped_proper(batch.insert_edges, repair_set)
        else:
            proper = self.is_proper()
        self.audited_proper = proper
        complete = self.is_complete()
        colors_used = self.colors_used()
        for kind, held in (
            ("improper", proper),
            ("incomplete", complete),
            ("over_budget", colors_used <= net.delta + 1),
        ):
            if not held:
                obs.count("repro_invariant_violations_total", kind=kind)
        return BatchReport(
            index=t,
            mode=mode,
            fallback_reason=reason,
            conflicts=conflicts,
            arrivals=int(batch.arrivals.size),
            departures=int(batch.departures.size),
            edges_added=delta_rep.edges_added,
            edges_removed=delta_rep.edges_removed,
            recolored=recolored,
            active=int(self.active.sum()),
            delta=net.delta,
            colors_used=colors_used,
            rounds=metrics.total_rounds - rounds_before,
            total_bits=metrics.total_bits - bits_before,
            proper=proper,
            complete=complete,
            seconds=time.perf_counter() - t0,
        )

    def _departure_edges(self, batch: UpdateBatch) -> np.ndarray:
        """The departing nodes' incident edges in the current CSR, as
        ``(v, u)`` pairs read from their own rows — an edge between two
        departing nodes comes once from each row, and every consumer
        treats the pairs as a set."""
        src, dst = self.net.row_edges(batch.departures)
        dep_mask = np.zeros(self.net.n, dtype=bool)
        dep_mask[batch.departures] = True
        keep = dep_mask[src]
        return np.stack([src[keep], dst[keep]], axis=1)

    def _detect_conflicts(self, batch: UpdateBatch, num_colors: int) -> np.ndarray:
        """Bool mask of nodes whose color the delta invalidated: one
        victim per monochromatic edge of the new CSR, plus every active
        node whose color fell out of the shrunken palette.  Does not
        mutate ``self.colors`` — the caller clears the victims.

        Delta-routed: while the pre-batch coloring is proper — what every
        batch restores and the warm-start scan in :meth:`__init__`
        establishes — deletions and departures create no conflict and no
        other edge's endpoint colors changed, so only the batch's
        inserted edges can be monochromatic.  The victim rule runs on
        those pairs plus the O(n) out-of-palette vector: the full edge
        scan's conflict set at delta cost (``tests/helpers.py`` keeps the
        full scan as the oracle)."""
        c = self.colors
        ins = batch.insert_edges
        hi = np.maximum(ins[:, 0], ins[:, 1])
        lo = np.minimum(ins[:, 0], ins[:, 1])
        mono = (c[hi] >= 0) & (c[hi] == c[lo])
        conflict = conflict_victims(
            self.net, c,
            policy=self.cfg.conflict_victim,
            num_colors=num_colors,
            edges=(hi[mono], lo[mono]),
        )
        conflict |= self.active & (c >= num_colors)
        return conflict

    def _scoped_proper(self, inserted: np.ndarray, recolored: np.ndarray) -> bool:
        """No inserted edge and no edge of a recolored node's CSR row is
        monochromatic.  While the pre-batch coloring was proper this is
        the full scan's verdict at delta cost: deletions, departures and
        cleared victims add no conflict, and no other node took a new
        color, so every other edge kept the colors it was proper under."""
        c = self.colors
        u, v = inserted[:, 0], inserted[:, 1]
        if ((c[u] >= 0) & (c[u] == c[v])).any():
            return False
        src, dst = self.net.row_edges(recolored)
        return not bool(((c[src] >= 0) & (c[src] == c[dst])).any())

    def _repair(self, repair_set: np.ndarray, num_colors: int, t: int) -> bool:
        """Local repair: the shared :func:`conflict_repair` kernel on the
        conflict set only.  Returns False when the TryColor mop-up hit the
        round cap (the caller then falls back)."""
        if repair_set.size == 0:
            return True
        with self.net.metrics.time_phase("dynamic/repair"):
            self.colors, done, _ = conflict_repair(
                self.net,
                self.colors,
                repair_set,
                num_colors,
                self.cfg,
                self.seq,
                tag=t,
                phase="dynamic/repair",
                mt_label="dyn-mt",
            )
        return done

    def _full_recolor(self, t: int) -> None:
        """Recolor-from-scratch on the current topology (the fallback and
        the baseline bench_dynamic compares repair against).  Inactive
        nodes are isolated by construction; their pipeline colors are
        discarded so they stay dark."""
        with self.net.metrics.time_phase("dynamic/fallback"):
            cfg = self.cfg.with_seed(self.seq.derive_seed("fallback", t))
            result = BroadcastColoring(self.net, cfg).run()
            colors = result.colors.copy()
            colors[~self.active] = -1
            self.colors = colors

    # ------------------------------------------------------------------
    def run(self, batches: ChurnSchedule | Iterable[UpdateBatch]) -> DynamicResult:
        """Apply every batch in sequence; returns the per-batch reports.

        When handed a full :class:`ChurnSchedule`, the schedule's initial
        graph must be the one this engine was built on (the usual call
        pattern is ``DynamicColoring(sched).run(sched)``).
        """
        result = DynamicResult(
            n=self.n,
            initial_rounds=self.initial_rounds,
            initial_seconds=self.initial_seconds,
        )
        for batch in batches:
            result.reports.append(self.apply_batch(batch))
        return result
