"""Parallel experiment runner: sharded, resumable, deterministic trials.

The subsystem in one picture::

    TrialSpec  --run_trial-->  TrialResult  --ResultStore-->  results.jsonl
        |                           ^
        +----- ParallelRunner ------+        (ProcessPoolExecutor shards,
                                              cache hits skip execution)
    payloads  --aggregate-->  analysis.stats / analysis.fitting

See DESIGN.md ("Experiment runner") for the architecture notes and
EXPERIMENTS.md for the spec files that drive ``repro bench``.
"""

from repro.runner.aggregate import (
    fit_rounds,
    group_by,
    mean_by,
    series,
    summarize_payloads,
)
from repro.runner.execute import run_trial
from repro.runner.runner import ParallelRunner, RunReport
from repro.runner.spec import (
    ALGORITHMS,
    TrialResult,
    TrialSpec,
    expand_matrix,
    load_matrix,
    spec_key,
)
from repro.runner.store import ResultStore

__all__ = [
    "ALGORITHMS",
    "ParallelRunner",
    "ResultStore",
    "RunReport",
    "TrialResult",
    "TrialSpec",
    "expand_matrix",
    "fit_rounds",
    "group_by",
    "load_matrix",
    "mean_by",
    "run_trial",
    "series",
    "spec_key",
    "summarize_payloads",
]
