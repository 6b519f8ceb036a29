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

Nothing else in the code base hard-codes a threshold; change the config and
the whole pipeline follows.
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
    "START_METHODS",
    "STRATEGIES",
    "TRANSPORTS",
    "VICTIM_POLICIES",
]

MULTITRIAL_SAMPLERS = ("batched", "expander")
"""The seed-expansion devices ``multitrial_sampler`` accepts."""

VICTIM_POLICIES = ("id", "slack")
"""The conflict-victim rules ``conflict_victim`` accepts."""

STRATEGIES = ("contiguous", "random", "greedy")
"""The partition strategies ``shard_strategy`` accepts."""

TRANSPORTS = ("shm", "pickle")
"""The shard-view transports ``shard_transport`` accepts."""

START_METHODS = ("default", "fork", "forkserver", "spawn")
"""The worker-pool start methods ``shard_start_method`` accepts."""


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

    acd_minhash_bits: int = 2
    """b of b-bit minwise hashing (fingerprint width)."""

    acd_friend_slack: float = 1.5
    """Friend threshold: uv is a friend edge when the estimated Jaccard
    similarity of closed neighborhoods is at least ``1 - friend_slack*eps``."""

    acd_repair_iterations: int = 4
    """Max peeling passes enforcing Def. 2.2(2b) on candidate cliques."""

    # --- slack generation (Lemma 2.12) ---
    slack_probability: float = 1.0 / 200.0
    """p_s: probability a node participates in slack generation.  Paper: 1/200."""

    # --- colorful matching (Lemma 2.9, Eq. (3)) ---
    beta: float = 2.0
    """β: target matching size is β·a_K.  Paper: 401 (with ε=10⁻⁵)."""

    matching_round_factor: float = 6.0
    """The matching loop runs at most ``ceil(matching_round_factor * beta)``
    rounds — the O(β) bound of Lemma 2.9."""

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

    sct_extra_trycolor_rounds: int = 3
    """Extra TryColor rounds in open cliques after SCT (proof of Lemma 3.7:
    "O(1) additional rounds")."""

    # --- MultiTrial (Lemma 2.14) ---
    multitrial_initial: int = 2
    """Colors tried in the first MultiTrial iteration."""

    multitrial_growth: float = 2.0
    """Geometric growth of tries per iteration (the log* engine)."""

    multitrial_cap: int = 64
    """Upper bound on colors tried per iteration (seed expansion length)."""

    multitrial_max_iters: int = 24
    """Safety bound on MultiTrial iterations before falling back."""

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

    dynamic_repair_use_multitrial: bool = True
    """Repair engine: seed the conflict set through MultiTrial (geometric
    try growth, seed broadcasts) before the TryColor mop-up.  Off = plain
    TryColor rounds only — the right choice for tiny conflict sets, and
    the ablation axis of bench_dynamic."""

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

    shard_worker_timeout_s: float = 0.0
    """Per-shard wall-clock deadline for pool workers (seconds): a shard
    whose worker has not returned within this budget counts as a
    ``worker_timeout`` fault and is retried/degraded by the supervisor
    (DESIGN.md §9).  0 disables the deadline.  Inline execution
    (``workers=1``) cannot be deadlined — the driver would be
    interrupting itself."""

    shard_max_retries: int = 2
    """How many times the shard supervisor re-submits a failed shard
    (crash, ``BrokenProcessPool``, deadline overrun) before degrading.
    Retries replay the *same* derived per-shard seed, so a recovered run
    is bit-identical to a fault-free one."""

    shard_retry_backoff_s: float = 0.05
    """Base of the supervisor's capped exponential backoff between
    retries of one shard: attempt ``a`` waits
    ``base · 2^(a-1) · jitter`` with a deterministic jitter in
    [0.5, 1.0) derived from the run's seed sequencer."""

    shard_inline_fallback: bool = True
    """Graceful degradation: when a shard exhausts its retries, color it
    inline in the driver (with any armed fault plan suppressed) instead
    of failing the run.  Off = raise
    :class:`repro.shard.engine.ShardWorkerError` — the fail-fast mode
    the ``BrokenProcessPool`` propagation test pins."""

    shard_transport: str = "shm"
    """How shard workers receive their view of the graph. ``"shm"``
    (default): the driver packs the global CSR + partition index + colors
    into one ``multiprocessing.shared_memory`` arena
    (:class:`repro.shard.shm.ShmArena`) and workers attach zero-copy —
    the argument pipe carries a descriptor of a few hundred bytes and
    per-worker memory scales with interior + ghost size, not n.
    ``"pickle"``: each worker receives its
    :class:`~repro.simulator.network.ShardView` pickled through the pool
    pipe (O(n_i + m_i) bytes per worker) — the pooled path on hosts whose
    ``/dev/shm`` cannot hold the arena.  Results are byte-identical
    either way; the tests pin that."""

    shard_start_method: str = "default"
    """Multiprocessing start method for the shard worker pool:
    ``"default"`` (the platform's — fork on linux, fast), ``"fork"``,
    ``"forkserver"`` or ``"spawn"``.  Results are identical under all of
    them (the fault plan and every task ride the argument pipe
    explicitly).  ``"spawn"`` matters for *measurement*: forked workers
    inherit the driver's whole address space copy-on-write, so their RSS
    reflects the driver, not the shard — spawned workers start from a
    bare interpreter and fault in only the shared-memory pages they
    touch, which is how the per-worker ``peak_rss_mb`` ∝ interior+ghost
    claim is benchmarked."""

    # --- streaming service (repro.serve, DESIGN.md §8) ---
    serve_queue_max: int = 64
    """Admission control for ``repro serve``: the bounded depth of the
    ingest queue, in ``update_batch`` requests.  When the queue is full
    the server *rejects* the batch with a ``queue-full`` error frame
    carrying ``retry_after`` — it never blocks the socket reader, so a
    slow engine degrades into explicit backpressure instead of unbounded
    buffering (docs/PROTOCOL.md §Backpressure)."""

    serve_coalesce_max: int = 8
    """Batch coalescing under load: when the serve worker dequeues, it
    drains up to this many queued ``update_batch`` requests and merges
    them into one :class:`~repro.dynamic.UpdateBatch` (exact last-op-wins
    replay, :func:`repro.serve.coalesce.coalesce_batches`) before paying
    one detect/repair cycle.  1 disables coalescing — every request is
    applied individually (required when bit-exact equivalence with an
    in-process run matters, e.g. the E2E equivalence test)."""

    serve_snapshot_every: int = 0
    """Crash-recovery cadence for ``repro serve``: write a snapshot of the
    engine state (CSR + colors + active mask + batch index, see
    :mod:`repro.serve.snapshot`) after every N applied batches.  0
    disables periodic snapshots; a clean shutdown still writes a final
    one when ``--snapshot-path`` is configured."""

    serve_snapshot_keep: int = 2
    """Snapshot rotation depth for ``repro serve``: how many snapshot
    generations exist on disk (the current file plus ``.1``, ``.2``, …
    predecessors).  A torn or corrupt current snapshot falls back to the
    previous generation on restore (:func:`repro.serve.snapshot.restore_engine`).
    1 keeps only the current file — the pre-rotation behavior."""

    serve_idle_timeout_s: float = 0.0
    """Per-session idle timeout for ``repro serve`` (seconds): a
    connection that sends no frame for this long is closed by the
    server, reclaiming sessions abandoned by crashed clients.  Clients
    that idle legitimately keep the session alive with the ``ping``
    heartbeat verb.  0 disables the timeout."""

    # --- observability (repro.obs, DESIGN.md §10) ---
    obs_trace: bool = False
    """On = engines arm the :mod:`repro.obs` span tracer for this run
    (driver *and* pool workers — the config crosses the argument pipe,
    so workers arm themselves and ship their span buffers back inside
    ordinary result payloads).  Off (the default) leaves every
    instrumentation hook on its disarmed ~100 ns fast path.
    Tracing never touches any RNG: colorings are byte-identical with
    this knob on or off (pinned by tests/test_obs.py)."""

    obs_metrics: bool = False
    """On = engines arm the :mod:`repro.obs` metrics registry
    (counters/gauges/histograms) for this run.  ``repro serve`` arms it
    unconditionally — a daemon is what the registry is for; this knob
    covers one-shot runs (``repro top``, traced benches)."""

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
        # value of the wrong type, then what the pipeline cannot run.
        for name, (annotation, kind) in _FIELD_TYPES.items():
            value = getattr(self, name)
            # A bool is an Integral and a Real: only a bool field takes one.
            if (
                not isinstance(value, kind)
                or (isinstance(value, bool) and kind is not bool)
                or (kind is numbers.Integral and not -(1 << 63) <= value < 1 << 63)
                or (kind is numbers.Real and not _finite(value))
            ):
                width = _RANGES.get(kind, "")
                raise ValueError(f"{name} must be {annotation}{width}, got {value!r}")
        # An eps outside (0, 1) finds no cliques or too many, and the
        # validator, checking against the same eps, would pass either.
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps!r}")
        bits = self.acd_minhash_bits
        if not 1 <= bits <= 16:
            raise ValueError(f"acd_minhash_bits must be in [1, 16], got {bits!r}")
        # The sketch needs a sample.  CompressTry draws and charges k color
        # indices in each of its repeats: a count below 1 would charge
        # negative or phantom bits.  A shard count below 1 partitions
        # nothing.  MultiTrial tries at least one color per iteration,
        # never fewer than the iteration before: a bad count or growth
        # would fail deep inside the sparse phase, or silently skip it.
        for name, least in (
            ("acd_minhash_samples", 1),
            ("compress_try_colors", 1),
            ("compress_try_repeats", 1),
            ("shard_k", 1),
            ("multitrial_initial", 1),
            ("multitrial_cap", 1),
            ("multitrial_max_iters", 0),
            ("multitrial_growth", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
        # Checked here, not where they are used: an unknown victim rule
        # would fail only inside the first repair, after the batch had
        # changed the topology, an unknown sampler name would silently
        # run the expander, and an unknown start method would fail only
        # when a worker pool starts.
        for name, accepted in (
            ("multitrial_sampler", MULTITRIAL_SAMPLERS),
            ("conflict_victim", VICTIM_POLICIES),
            ("shard_strategy", STRATEGIES),
            ("shard_transport", TRANSPORTS),
            ("shard_start_method", START_METHODS),
        ):
            value = getattr(self, name)
            if value not in accepted:
                raise ValueError(f"{name} must be one of {accepted}, got {value!r}")

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
_FIELD_TYPES = {f.name: (f.type, _KINDS[f.type]) for f in fields(ColoringConfig)}
"""Field name → (its annotation, the type its value must have).  Built at
import, so a field annotated with any other type fails here."""


def _finite(value: numbers.Real) -> bool:
    """Whether ``value`` is a finite float: NaN and ±inf are not, and
    neither is an integer too large for a float (``float(10**400)``
    overflows)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
