"""Aggregation: turn trial payloads into series, summaries and growth fits.

This is the bridge from the runner to :mod:`repro.analysis`: payload rows
group by arbitrary fields, collapse to means via
:class:`repro.analysis.stats.SweepResult`, and (n, value) series feed
:func:`repro.analysis.fitting.growth_fit` for the paper's shape claims.

Everything here is deterministic: groups are emitted in sorted key order
and rows keep their (already deterministic) runner order, so aggregated
reports are byte-identical across worker counts.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.fitting import GrowthFit, growth_fit
from repro.analysis.stats import SweepResult, summarize

__all__ = [
    "group_by",
    "mean_by",
    "series",
    "fit_rounds",
    "summarize_payloads",
]

Payload = Mapping[str, Any]


def _sort_token(value: Any) -> tuple:
    """Type-aware sort token: numbers order numerically (256 < 1024),
    everything else lexically, mixed types grouped by kind."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return ("str", 0.0, str(value))
    return ("num", float(value), "")


def group_by(payloads: Iterable[Payload], keys: Sequence[str]) -> dict[tuple, list[Payload]]:
    """Group payload rows by a tuple of field values, sorted by key."""
    groups: dict[tuple, list[Payload]] = {}
    for p in payloads:
        groups.setdefault(tuple(p.get(k) for k in keys), []).append(p)
    return dict(
        sorted(groups.items(), key=lambda kv: tuple(_sort_token(v) for v in kv[0]))
    )


def mean_by(
    payloads: Iterable[Payload], keys: Sequence[str], value: str = "rounds"
) -> dict[tuple, float]:
    """Mean of ``value`` per group (NaN-free: missing fields are skipped)."""
    out: dict[tuple, float] = {}
    for gkey, rows in group_by(payloads, keys).items():
        sweep = SweepResult(values=[float(r[value]) for r in rows if value in r])
        out[gkey] = sweep.mean
    return out


def series(
    payloads: Iterable[Payload],
    x: str = "n",
    value: str = "rounds",
    where: Mapping[str, Any] | None = None,
) -> tuple[list, list[float]]:
    """(xs, mean values) sorted by x, filtered by exact-match ``where``."""
    rows = [
        p for p in payloads
        if all(p.get(k) == v for k, v in (where or {}).items())
    ]
    means = mean_by(rows, [x], value=value)
    xs = sorted(k[0] for k in means)
    return xs, [means[(xv,)] for xv in xs]


def fit_rounds(
    payloads: Iterable[Payload], where: Mapping[str, Any] | None = None
) -> GrowthFit | None:
    """Growth-shape fit of mean rounds vs n (None when < 2 sizes ran)."""
    xs, ys = series(payloads, x="n", value="rounds", where=where)
    if len(xs) < 2:
        return None
    return growth_fit(xs, ys)


def summarize_payloads(
    payloads: Iterable[Payload], metrics: Sequence[str] = ("rounds", "num_colors_used")
) -> dict[str, dict]:
    """Column-wise summary stats over all rows (analysis.stats.summarize)."""
    return summarize([dict(p) for p in payloads], list(metrics))
