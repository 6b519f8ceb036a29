"""Round and bandwidth accounting.

The observable quantities the paper bounds are (a) the number of
synchronous rounds, per phase, and (b) the size in bits of each broadcast.
Every protocol runs as vectorized whole-graph steps with closed-form bit
costs, and :class:`RoundMetrics` records them through one method,
:meth:`RoundMetrics.add_rounds` (r rounds, k messages, the widest b
bits, and their payload when they differ in size).  ``report()``
produces the rows the experiment harness prints, and ``fill_report()``
the same rows with each phase's share of the bandwidth cap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro import obs

__all__ = ["RoundMetrics", "PhaseStats", "accrued"]


def accrued(before: dict, after: dict) -> dict:
    """``after − before`` per key, over the keys that are new or moved: a
    run on a network reports what it was billed, not the network's
    running totals."""
    return {key: value - before.get(key, 0) for key, value in after.items()
            if value != before.get(key)}


@dataclass
class PhaseStats:
    """Per-phase accumulators."""

    rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
        }


class RoundMetrics:
    """Collects rounds/messages/bits, grouped by phase name.

    Phases nest by naming convention only ("sct/permute" etc.); the
    aggregate across all phases is maintained under the key ``"total"``.
    ``observers`` (callables taking ``(phase, num_messages)``) fire once
    per recorded round — the tests' per-round trace recorder subscribes
    here.
    """

    def __init__(self) -> None:
        self.phases: dict[str, PhaseStats] = defaultdict(PhaseStats)
        self.phase_seconds: dict[str, float] = defaultdict(float)
        self._current_phase = "unphased"
        self._phase_started: float | None = None
        self._phase_span: dict | None = None
        self.observers: list = []

    def _notify(self, phase: str, num_messages: int) -> None:
        for obs in self.observers:
            obs(phase, num_messages)

    # -- phase management -------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Switch the current phase, accruing wall-clock time to the one
        being left (the runner's per-trial ``timings`` read these —
        rounds/bits accounting is unaffected)."""
        self.stop_timer()
        self._current_phase = name
        self._phase_started = time.perf_counter()
        self._phase_span = obs.start_span(name)

    def stop_timer(self) -> None:
        """Close the open phase timer (call when a run finishes)."""
        if self._phase_started is not None:
            elapsed = time.perf_counter() - self._phase_started
            self.phase_seconds[self._current_phase] += elapsed
            self._phase_started = None
            obs.end_span(self._phase_span)
            self._phase_span = None
            obs.observe(
                "repro_phase_us", elapsed * 1e6, phase=self._current_phase
            )

    @property
    def current_phase(self) -> str:
        return self._current_phase

    @contextmanager
    def time_phase(self, name: str) -> Iterator[None]:
        """Accrue the wall-clock of the ``with`` body to ``name`` without
        disturbing the surrounding phase: the outer timer pauses on entry
        and resumes on exit, so nested timings (e.g. ``acd/sketch`` inside
        ``setup``) are never double-counted."""
        outer = self._current_phase
        outer_running = self._phase_started is not None
        self.stop_timer()
        self._current_phase = name
        self._phase_started = time.perf_counter()
        self._phase_span = obs.start_span(name)
        try:
            yield
        finally:
            self.stop_timer()
            self._current_phase = outer
            if outer_running:
                self._phase_started = time.perf_counter()
                self._phase_span = obs.start_span(outer)

    # -- recording --------------------------------------------------------
    def add_rounds(
        self,
        num_rounds: int,
        num_messages: int,
        bits_per_message: int,
        phase: str | None = None,
        payload_bits: int | None = None,
    ) -> None:
        """Charge ``num_messages`` messages spread over ``num_rounds``
        synchronous rounds, in O(1) arithmetic — the one way a round is
        recorded.  ``(1, k, b)`` is one round in which k nodes broadcast
        b bits each, ``(r, r·k, b)`` is r such rounds, and ``(1, 0, 1)``
        is a silent round (it still costs a round).  The rounds need not
        carry equal counts, and the messages need not be of equal size:
        then ``bits_per_message`` is the widest message and
        ``payload_bits`` the total the messages carry (by default
        ``num_messages · bits_per_message``).  Delta announcements have
        both shapes (``BroadcastNetwork.apply_delta``): a node with c
        changes sends ⌈c/k⌉ messages of up to k entries each.  Observers
        fire once per round with that round's share of the messages."""
        name = phase or self._current_phase
        r = int(num_rounds)
        if r <= 0:
            return
        b = int(bits_per_message)
        k = int(num_messages)
        total = k * b if payload_bits is None else int(payload_bits)
        for s in (self.phases[name], self.phases["total"]):
            s.rounds += r
            s.messages += k
            s.total_bits += total
            if k > 0:
                s.max_message_bits = max(s.max_message_bits, b)
        if self.observers:
            per_round = k // r
            extra = k - per_round * r
            for i in range(r):
                self._notify(name, per_round + (1 if i < extra else 0))

    # -- reading ----------------------------------------------------------
    @property
    def total_rounds(self) -> int:
        return self.phases["total"].rounds

    @property
    def max_message_bits(self) -> int:
        return self.phases["total"].max_message_bits

    @property
    def total_bits(self) -> int:
        return self.phases["total"].total_bits

    def phase_rounds(self) -> dict[str, int]:
        """Phase → rounds so far, including ``"total"``."""
        return {name: stats.rounds for name, stats in self.phases.items()}

    def rounds_in(self, phase: str) -> int:
        return self.phases[phase].rounds if phase in self.phases else 0

    def phase_names(self) -> list[str]:
        return [k for k in self.phases.keys() if k != "total"]

    def report(self) -> dict[str, dict]:
        """Phase → stats dict, including "total"."""
        return {name: stats.as_dict() for name, stats in self.phases.items()}

    def fill_report(self, cap: int | None) -> dict[str, dict]:
        """:meth:`report` with each phase's ``fill``: its payload over
        messages × ``cap``, the share of the bandwidth its messages use.
        A phase billed at the cap reads 1.0; ``None`` without a cap or
        without messages."""
        rows = self.report()
        for row in rows.values():
            sent = row["messages"] * cap if cap else 0
            row["fill"] = round(row["total_bits"] / sent, 4) if sent else None
        return rows

    def absorb_parallel(
        self, others: Iterable["RoundMetrics"], phase: str
    ) -> None:
        """Fold the accounts of *concurrently executing* groups into this
        one under ``phase`` — the parallel-composition rule of the shard
        subsystem (DESIGN.md §7): the groups run through the same
        synchronous rounds side by side, so the global round counter
        advances by the **max** over groups, while messages and bits (real
        traffic, wherever it happened) **add up**.  Wall-clock is *not*
        folded: the caller's surrounding ``time_phase`` block already
        measures the true elapsed time of the parallel section."""
        groups = [o for o in others if o is not None]
        if not groups:
            return
        rounds = max(g.total_rounds for g in groups)
        messages = sum(g.phases["total"].messages for g in groups)
        bits = sum(g.total_bits for g in groups)
        max_bits = max(g.max_message_bits for g in groups)
        for s in (self.phases[phase], self.phases["total"]):
            s.rounds += rounds
            s.messages += messages
            s.total_bits += bits
            if messages > 0:
                s.max_message_bits = max(s.max_message_bits, max_bits)
