"""Trial specifications: the unit of work of the experiment runner.

A :class:`TrialSpec` names one execution — (graph family, n, avg_degree,
seed, config preset + overrides, algorithm) — and nothing else.  Its
:func:`spec_key` is a content hash of that description, so two specs with
the same fields always collide in the :class:`~repro.runner.store.ResultStore`
(that is what makes re-runs skip already-computed trials) and a changed
field always misses.

Randomness is derived, never stored: :meth:`TrialSpec.graph_seed` and
:meth:`TrialSpec.algo_seed` feed the user-facing ``seed`` through
:class:`repro.simulator.rng.SeedSequencer`, keyed so that every algorithm
run under one (family, n, avg_degree, seed) sees the *same* graph — the
property ``repro compare`` relies on — while distinct algorithms draw
independent coins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.graphs.families import CHURN_FAMILIES, FAMILIES, split_family
from repro.simulator.rng import SeedSequencer

__all__ = [
    "ALGORITHMS",
    "TrialSpec",
    "TrialResult",
    "spec_key",
    "expand_matrix",
    "load_matrix",
    "dedupe",
]

ALGORITHMS = (
    "broadcast",
    "johansson",
    "luby",
    "greedy",
    "dynamic",
    "shard",
)

_MATRIX_FIELDS = ("family", "n", "avg_degree", "algorithm", "preset")


@dataclass(frozen=True)
class TrialSpec:
    """One experiment trial, fully determined by its fields."""

    family: str = "gnp"
    n: int = 1000
    avg_degree: float = 20.0
    seed: int = 0
    algorithm: str = "broadcast"
    preset: str = "practical"
    overrides: tuple[tuple[str, Any], ...] = ()
    """Config overrides applied on top of the preset, as sorted
    (name, value) pairs — a tuple so the spec stays hashable."""

    def __post_init__(self) -> None:
        base, arg = split_family(self.family)
        if base not in FAMILIES and base not in CHURN_FAMILIES:
            raise ValueError(f"unknown family: {self.family!r}")
        if arg is not None and base != "edgelist":
            # Only the file-backed family carries a ':' argument; letting
            # others through would content-hash 'gnp:x' apart from 'gnp'
            # while running the identical trial.
            raise ValueError(f"family {base!r} takes no ':' argument")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if base in CHURN_FAMILIES and self.algorithm != "dynamic":
            raise ValueError(
                f"churn family {self.family!r} requires algorithm='dynamic'"
            )
        if self.preset not in ("practical", "paper"):
            raise ValueError(f"unknown preset: {self.preset!r}")
        object.__setattr__(
            self, "overrides", tuple(sorted((str(k), v) for k, v in self.overrides))
        )

    # -- canonical serialisation ---------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "n": int(self.n),
            "avg_degree": float(self.avg_degree),
            "seed": int(self.seed),
            "algorithm": self.algorithm,
            "preset": self.preset,
            "overrides": {k: v for k, v in self.overrides},
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TrialSpec":
        return cls(
            family=d.get("family", "gnp"),
            n=int(d.get("n", 1000)),
            avg_degree=float(d.get("avg_degree", 20.0)),
            seed=int(d.get("seed", 0)),
            algorithm=d.get("algorithm", "broadcast"),
            preset=d.get("preset", "practical"),
            overrides=tuple(sorted(dict(d.get("overrides") or {}).items())),
        )

    @property
    def key(self) -> str:
        # Cached on first access: file-backed families hash the snapshot
        # file's bytes, and the key must stay stable for this instance's
        # lifetime (the runner indexes by it before and after execution)
        # even if the file changes mid-run.
        cached = getattr(self, "_cached_key", None)
        if cached is None:
            cached = spec_key(self)
            object.__setattr__(self, "_cached_key", cached)
        return cached

    # -- derived randomness --------------------------------------------
    def graph_seed(self) -> int:
        """Seed for the graph generator.  Independent of the algorithm so
        every algorithm compared under one spec family sees the same graph."""
        seq = SeedSequencer(self.seed)
        return seq.derive_seed("graph", self.family, self.n, repr(float(self.avg_degree)))

    def algo_seed(self) -> int:
        """Root seed for the algorithm's own coins."""
        seq = SeedSequencer(self.seed)
        return seq.derive_seed("algo", self.algorithm, self.preset)

    def with_seed(self, seed: int) -> "TrialSpec":
        return replace(self, seed=int(seed))


def spec_key(spec: TrialSpec) -> str:
    """Content-hash key: 128-bit blake2b over the canonical JSON form.

    File-backed families (``edgelist:PATH``) fold the *file contents*
    into the hash, not just the path — editing the snapshot must miss
    the store, or cached results would go silently stale.  A missing
    file hashes as such (the store lookup then consistently misses
    fresh runs, which will fail loudly when the loader runs)."""
    blob = json.dumps(spec.as_dict(), sort_keys=True, separators=(",", ":"))
    base, arg = split_family(spec.family)
    if base == "edgelist" and arg:
        try:
            digest = hashlib.blake2b(
                Path(arg).read_bytes(), digest_size=16
            ).hexdigest()
        except OSError:
            digest = "missing"
        blob += f"|edgelist-content:{digest}"
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


@dataclass
class TrialResult:
    """What one trial produced.

    ``payload`` holds only deterministic measurements — a pure function of
    the spec — so result rows are byte-identical no matter how many
    workers computed them or whether they came from the cache.  Wall-clock
    timing lives in ``elapsed_s``, outside the payload, and is never part
    of aggregation output.
    """

    spec: TrialSpec
    status: str = "ok"  # "ok" | "error" | "timeout"
    payload: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0
    error: str | None = None
    cached: bool = False
    """True when this result was served from the store, not computed."""
    timings: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per algorithm phase (empty for baselines).  Like
    ``elapsed_s`` this lives *outside* the payload: it is machine-dependent
    and never feeds deterministic aggregation.  The store keeps it, so a
    cached result carries the timings of the run that computed it."""
    stored_key: str | None = None
    """The content-hash key recorded when this result was computed.
    Results loaded from a store keep it so file-backed specs
    (``edgelist:PATH``) whose file changed since *miss* the store —
    recomputing the key on load would silently re-index stale results
    under the new contents' hash."""
    guard: str = "none"
    """Which timeout guard covered this trial: ``"sigalrm"`` (worker-side
    alarm was armed), ``"wallclock"`` (the pool driver's deadline fired —
    the worker never reported), or ``"none"`` (no timeout requested, or
    no usable guard — e.g. SIGALRM off the main thread / off POSIX).
    Surfacing this closes a silent hole: a ``timeout_s`` that quietly
    guarded nothing looked identical to one that did."""

    @property
    def key(self) -> str:
        return self.stored_key if self.stored_key is not None else self.spec.key

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> dict[str, Any]:
        """The JSON-lines record persisted by the store (``cached`` is a
        runtime flag and deliberately not serialised)."""
        return {
            "key": self.key,
            "spec": self.spec.as_dict(),
            "status": self.status,
            "payload": self.payload,
            "elapsed_s": round(float(self.elapsed_s), 6),
            "error": self.error,
            "timings": {k: round(float(v), 6) for k, v in self.timings.items()},
            "guard": self.guard,
        }

    @classmethod
    def from_record(cls, rec: Mapping[str, Any]) -> "TrialResult":
        return cls(
            spec=TrialSpec.from_dict(rec["spec"]),
            status=rec.get("status", "ok"),
            payload=dict(rec.get("payload") or {}),
            elapsed_s=float(rec.get("elapsed_s", 0.0)),
            error=rec.get("error"),
            timings={
                str(k): float(v) for k, v in dict(rec.get("timings") or {}).items()
            },
            stored_key=rec.get("key"),
            guard=str(rec.get("guard", "none")),
        )


# ----------------------------------------------------------------------
# Spec matrices (the `repro bench` input format)
# ----------------------------------------------------------------------
def _as_list(value: Any) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def expand_matrix(matrix: Mapping[str, Any]) -> list[TrialSpec]:
    """Cross-product expansion of a matrix description into specs.

    Every field of :data:`_MATRIX_FIELDS` accepts a scalar or a list.
    Seeds come either from ``seeds`` (an int: seeds ``0..seeds-1``) or
    ``seed`` (scalar or explicit list).  Example::

        {"family": ["gnp", "blobs"], "n": [256, 512],
         "avg_degree": 16, "seeds": 3, "algorithm": ["broadcast", "johansson"]}

    expands to 2 * 2 * 1 * 3 * 2 = 24 specs, in deterministic
    (family, n, avg_degree, seed, algorithm, preset) nesting order.
    """
    unknown = set(matrix) - set(_MATRIX_FIELDS) - {"seed", "seeds", "overrides"}
    if unknown:
        raise ValueError(f"unknown matrix fields: {sorted(unknown)}")
    if "seeds" in matrix and "seed" in matrix:
        raise ValueError("give either 'seeds' (a count) or 'seed' (values), not both")
    if "seeds" in matrix:
        seeds = list(range(int(matrix["seeds"])))
    else:
        seeds = [int(s) for s in _as_list(matrix.get("seed", 0))]
    overrides = tuple(sorted(dict(matrix.get("overrides") or {}).items()))
    specs = []
    for family in _as_list(matrix.get("family", "gnp")):
        for n in _as_list(matrix.get("n", 1000)):
            for deg in _as_list(matrix.get("avg_degree", 20.0)):
                for seed in seeds:
                    for algo in _as_list(matrix.get("algorithm", "broadcast")):
                        for preset in _as_list(matrix.get("preset", "practical")):
                            specs.append(
                                TrialSpec(
                                    family=str(family),
                                    n=int(n),
                                    avg_degree=float(deg),
                                    seed=int(seed),
                                    algorithm=str(algo),
                                    preset=str(preset),
                                    overrides=overrides,
                                )
                            )
    return specs


def load_matrix(path: str | Path) -> list[TrialSpec]:
    """Load a spec matrix from a TOML or JSON file.

    The file holds either a ``[matrix]`` table (cross-product expanded via
    :func:`expand_matrix`), a list of explicit ``[[trial]]`` tables, or
    both (trials are appended after the matrix expansion).
    """
    path = Path(path)
    if path.suffix.lower() == ".toml":
        import tomllib

        with path.open("rb") as fh:
            doc = tomllib.load(fh)
    else:
        with path.open("r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, Mapping):
        raise ValueError(f"{path}: expected a table/object at top level")
    specs: list[TrialSpec] = []
    if "matrix" in doc:
        specs.extend(expand_matrix(doc["matrix"]))
    for trial in doc.get("trial", []) or []:
        specs.extend(expand_matrix(trial))
    if not specs:
        raise ValueError(f"{path}: no [matrix] table and no [[trial]] entries")
    return specs


def dedupe(specs: Iterable[TrialSpec]) -> list[TrialSpec]:
    """Drop duplicate specs, keeping first-occurrence order."""
    seen: dict[str, TrialSpec] = {}
    for s in specs:
        seen.setdefault(s.key, s)
    return list(seen.values())
