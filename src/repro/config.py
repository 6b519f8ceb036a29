"""Algorithm configuration: every constant of the paper in one place.

The paper (Eq. (3)) fixes ``ε = 10⁻⁵``, ``β = 401``, ``ℓ = C·log^{1.1} n``
and a "large enough" constant ``C``.  Those values make the union bounds go
through for asymptotic n but mean the dense-clique machinery only activates
at astronomically large inputs.  As DESIGN.md §2 documents, the reproduction
therefore ships two presets:

* :meth:`ColoringConfig.paper` — the published constants, used when checking
  formulas and for documentation parity;
* :meth:`ColoringConfig.practical` — structurally identical but scaled so
  that every phase (almost-cliques, colorful matching, put-aside sets,
  synchronized color trial, MultiTrial) actually executes at simulable
  sizes (n up to ~10⁵).  All experiments state which preset they use.

The paper's named constants, and the settings a caller varies, are fields
here.  An implementation constant the paper leaves open and that takes one
value in use (MultiTrial's try schedule, the matching's round factor, the
sketch width, ...) is a module constant beside the code that reads it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.util.mathx import poly_log

__all__ = [
    "ColoringConfig",
    "MULTITRIAL_SAMPLERS",
    "STRATEGIES",
    "VICTIM_POLICIES",
    "check_setting",
]

MULTITRIAL_SAMPLERS = ("batched", "expander")
"""The seed-expansion devices ``multitrial_sampler`` accepts."""

VICTIM_POLICIES = ("id", "slack")
"""The conflict-victim rules ``conflict_victim`` accepts."""

STRATEGIES = ("contiguous", "random", "greedy")
"""The partition strategies ``shard_strategy`` accepts."""


@dataclass(frozen=True)
class ColoringConfig:
    """All tunables of the reproduction.

    Attributes mirror the paper's notation where one exists; the docstring
    of each field points at the defining equation.
    """

    # --- almost-clique decomposition (Definition 2.2, Lemma 2.5) ---
    eps: float = 0.1
    """ε of the ε-almost-clique decomposition.  Paper: 10⁻⁵."""

    acd_minhash_samples: int = 256
    """Number of b-bit minhash samples per edge-similarity estimate."""

    # --- slack generation (Lemma 2.12) ---
    slack_probability: float = 1.0 / 200.0
    """p_s: probability a node participates in slack generation.  Paper: 1/200."""

    # --- colorful matching (Lemma 2.9, Eq. (3)) ---
    beta: float = 2.0
    """β: target matching size is β·a_K.  Paper: 401 (with ε=10⁻⁵)."""

    # --- thresholds of the form C·log n and ℓ = C·log^{1.1} n (Eq. (3)) ---
    c_log: float = 1.0
    """The ubiquitous ``C`` multiplying ``log n`` thresholds (a_K ≥ C log n
    for the colorful matching, group sizes in §4, ...).  Paper: "large
    enough"."""

    ell_factor: float = 1.0
    """C of ``ℓ = C·log^{1.1} n``."""

    ell_exponent: float = 1.1
    """The 1.1 of ``ℓ = C·log^{1.1} n``."""

    # --- reserved color prefix x(K) (Eq. (5)) ---
    x_full_factor: float = 4.0
    """x(K) = x_full_factor·ℓ for full cliques.  Paper: 200·ℓ."""

    x_closed_factor: float = 4.0
    """x(K) = x_closed_factor·a_K for closed cliques.  Paper: 400·a_K."""

    x_open_factor: float = 0.5
    """x(K) = x_open_factor·e_K for open cliques.  Paper: γε/8·e_K."""

    # --- outliers (Definition 3.1) ---
    outlier_factor: float = 30.0
    """v is an outlier when e_v ≥ outlier_factor·ē_K or a_v ≥ outlier_factor·ā_K.
    Paper: 30."""

    # --- put-aside sets (Lemma 3.4, §3.3, Appendix B) ---
    putaside_factor: float = 1.0
    """|P_K| = ceil(putaside_factor·ℓ).  Paper: 201·ℓ."""

    compress_try_colors: int = 8
    """k: colors each put-aside node pre-samples in CompressTry (Alg. 6).
    Paper: ceil(C log n / log² log n)."""

    compress_try_repeats: int = 4
    """Independent CompressTry instances run in parallel (§3.3 runs
    Θ(log log n) of them)."""

    # --- synchronized color trial (§4) ---
    permute_constant_round: bool = False
    """Use Algorithm 5 (O(1) rounds) instead of Algorithm 4 (O(log log n)).
    The paper notes Algorithm 4 "suffices for Theorems 1 and 2"; Algorithm
    5's advantage is asymptotic (its leftover-set dissemination needs
    Δ ≫ log³ n to be cheap), so the practical preset defaults to 4 and the
    paper preset to 5.  Bench E7 measures the crossover."""

    permute_ac_eps: float = 1.0 / 3.0
    """ε'' of Algorithm 5's AC-preservation test (Definition 4.6).  Paper:
    1/12 — meaningful when buckets hold Θ(log n) ≫ 1 nodes; the practical
    preset relaxes it so small fine-buckets don't all fall into R."""

    # --- MultiTrial (Lemma 2.14) ---
    multitrial_sampler: str = "batched"
    """Seed-expansion device for representative sets (one of
    :data:`MULTITRIAL_SAMPLERS`): "batched" (vectorized counter-mode
    splitmix64 — one numpy call expands every active node's seed, see
    DESIGN.md §4) or "expander" (the [HN23] construction itself:
    deterministic walks on a Margulis–Gabber–Galil expander over the color
    space).  Both keep the broadcaster/listener symmetry of Lemma 2.14:
    the expansion is a pure function of (seed, list)."""

    # --- dynamic graphs / incremental recoloring (repro.dynamic, DESIGN.md §6) ---
    dynamic_fallback_fraction: float = 0.25
    """Full-recolor fallback trigger: when the conflicted fraction of
    active nodes after a batch exceeds this, the incremental engine drops
    the maintained coloring and re-runs the whole pipeline.  ≥ 1.0 never
    falls back (repair-only); < 0.0 always falls back (the
    recolor-from-scratch baseline the bench compares against)."""

    dynamic_batches: int = 8
    """Default churn-schedule length for runner trials (algorithm
    "dynamic") — each batch is one :class:`repro.dynamic.UpdateBatch`."""

    dynamic_churn_fraction: float = 0.05
    """Default per-batch churn intensity for generated schedules: the
    fraction of current edges resampled (sliding-window families) or the
    mobility step scale (mobile geometric)."""

    conflict_victim: str = "id"
    """Victim selection for monochromatic-edge repair (one of
    :data:`VICTIM_POLICIES`, shared by the dynamic engine's conflict
    detector and the shard reconciler): "id"
    uncolors the larger-ID endpoint (the original rule), "slack" uncolors
    the endpoint with the larger palette — the node with more free colors
    re-colors fastest, so the more constrained endpoint (smaller palette
    slack) keeps its color and repair rounds shrink (ROADMAP item)."""

    # --- multi-shard partitioned coloring (repro.shard, DESIGN.md §7) ---
    shard_k: int = 4
    """Number of shards the node universe is partitioned into for
    ``algorithm="shard"`` runs (k=1 degenerates to the single-process
    pipeline, bit for bit)."""

    shard_strategy: str = "contiguous"
    """Partition strategy: "contiguous" (balanced node-id blocks),
    "random" (seeded permutation blocks) or "greedy" (METIS-like greedy
    balanced graph growing, minimizing the cut on graphs with locality).
    See :data:`STRATEGIES`."""

    # --- ablation switches (DESIGN.md design-choice experiments) ---
    enable_matching: bool = True
    """Off = skip the colorful matching (Lemma 2.9).  Ablation EA1: closed
    cliques then run out of clique palette and lean on the cleanup."""

    enable_putaside: bool = True
    """Off = skip put-aside sets (Lemma 3.4).  Ablation EA2: full cliques
    lose the ℓ of temporary slack that MultiTrial's Property 3 needs."""

    # --- model / simulator ---
    bandwidth_factor: float = 32.0
    """Messages may carry at most ``bandwidth_factor·ceil(log2 n)`` bits —
    the O(log n) of BCONGEST with an explicit constant."""

    seed: int = 0
    """Root seed; a run is a pure function of (graph, config, seed)."""

    def __post_init__(self) -> None:
        # Every field can arrive from outside the program (load_graph and
        # spec-file overrides, snapshots): refuse here, naming the field, a
        # value of the wrong type, or one the pipeline cannot run.
        for name, annotation in _FIELD_TYPES.items():
            check_setting(
                name, getattr(self, name), annotation,
                least=_LEAST.get(name), choices=_CHOICES.get(name),
            )
        # An eps outside (0, 1) finds no cliques or too many, and the
        # validator, checking against the same eps, would pass either.
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps!r}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def ell(self, n: int) -> int:
        """ℓ = C·log^{1.1} n (Eq. (3)), at least 1."""
        return max(1, int(math.ceil(poly_log(n, self.ell_exponent, self.ell_factor))))

    def log_threshold(self, n: int) -> float:
        """The ``C log n`` threshold used all over §3–§4."""
        return self.c_log * max(math.log2(max(n, 2)), 1.0)

    def putaside_size(self, n: int) -> int:
        """|P_K| for full cliques (Lemma 3.4; paper: 201ℓ)."""
        return max(1, int(math.ceil(self.putaside_factor * self.ell(n))))

    def bandwidth_bits(self, n: int) -> int:
        """Per-round broadcast budget in bits."""
        return max(8, int(math.ceil(self.bandwidth_factor * max(math.log2(max(n, 2)), 1.0))))

    def x_of_clique(self, kind: str, n: int, a_k: float, e_k: float) -> int:
        """x(K) of Eq. (5): the reserved color prefix for clique class
        ``kind`` in {"full", "open", "closed"}."""
        if kind == "full":
            return int(math.ceil(self.x_full_factor * self.ell(n)))
        if kind == "closed":
            return int(math.ceil(self.x_closed_factor * max(a_k, 1.0)))
        if kind == "open":
            return max(1, int(math.ceil(self.x_open_factor * max(e_k, 1.0))))
        raise ValueError(f"unknown clique kind: {kind!r}")

    def classify_clique(self, n: int, a_k: float, e_k: float) -> str:
        """Definition 3.3: full if a_K+e_K < ℓ; open if 2a_K < e_K; else closed."""
        if a_k + e_k < self.ell(n):
            return "full"
        if 2.0 * a_k < e_k:
            return "open"
        return "closed"

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides: Any) -> "ColoringConfig":
        """The published constants (Eq. (3)–(5)).  Mostly documentation: at
        simulable n these thresholds keep the dense machinery dormant."""
        cfg = cls(
            eps=1e-5,
            slack_probability=1.0 / 200.0,
            beta=401.0,
            ell_factor=1.0,
            ell_exponent=1.1,
            x_full_factor=200.0,
            x_closed_factor=400.0,
            x_open_factor=1e-5 / 8.0,  # γε/8 with γ≈1
            outlier_factor=30.0,
            putaside_factor=201.0,
            permute_ac_eps=1.0 / 12.0,
            permute_constant_round=True,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def practical(cls, **overrides: Any) -> "ColoringConfig":
        """Scaled constants under which every phase runs at n ≤ ~10⁵.

        The structure (which colors are reserved, who is an outlier, when a
        clique is full/open/closed, how many rounds each loop takes) is
        identical to the paper; only multiplicative constants shrink.
        """
        cfg = cls()  # the dataclass defaults *are* the practical preset
        return replace(cfg, **overrides) if overrides else cfg

    def with_seed(self, seed: int) -> "ColoringConfig":
        """Copy of this config with a different root seed."""
        return replace(self, seed=seed)


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}
_RANGES = {numbers.Integral: " in the signed 64-bit range", numbers.Real: " and finite"}
_FIELD_TYPES = {f.name: f.type for f in fields(ColoringConfig)}
"""Field name → its annotation, one of the keys of ``_KINDS``."""

_LEAST = {
    "acd_minhash_samples": 1,
    "compress_try_colors": 1,
    "compress_try_repeats": 1,
    "shard_k": 1,
}
"""Field → the least value it takes.  The sketch needs a sample.
CompressTry draws and charges k color indices in each of its repeats: a
count below 1 would charge negative or phantom bits.  A shard count
below 1 partitions nothing."""

_CHOICES = {
    "multitrial_sampler": MULTITRIAL_SAMPLERS,
    "conflict_victim": VICTIM_POLICIES,
    "shard_strategy": STRATEGIES,
}
"""Field → the names it accepts.  Checked at construction, not where
they are used: an unknown victim rule would fail only inside the first
repair, after the batch had changed the topology, and an unknown
sampler name would silently run the expander."""


def check_setting(
    name: str,
    value: Any,
    annotation: str,
    *,
    least: float | None = None,
    choices: tuple | None = None,
) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is of
    ``annotation``'s type (``"int"``, ``"float"``, ``"bool"`` or
    ``"str"``), at least ``least`` and one of ``choices`` where those
    are given.  An int takes an integer within int64 and no bool, a
    float a finite real number but no bool (not NaN, ±inf or an integer
    past the float range), a bool only a bool, a str only a string.
    :class:`ColoringConfig` checks every field with it, and
    ``ShardedColoring`` and ``ColoringServer`` the settings they take."""
    kind = _KINDS[annotation]
    # A bool is an Integral and a Real: only a bool setting takes one.
    if (
        not isinstance(value, kind)
        or (isinstance(value, bool) and kind is not bool)
        or (kind is numbers.Integral and not -(1 << 63) <= value < 1 << 63)
        or (kind is numbers.Real and not _finite(value))
    ):
        width = _RANGES.get(kind, "")
        raise ValueError(f"{name} must be {annotation}{width}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _finite(value: numbers.Real) -> bool:
    """Whether ``value`` is a finite float: NaN and ±inf are not, and
    neither is an integer too large for a float (``float(10**400)``
    overflows)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
