"""Snapshot/restore of the serving engine's state (crash recovery).

A snapshot is everything :class:`~repro.dynamic.DynamicColoring` needs
to resume as if it had never stopped (DESIGN.md §8):

* the current topology — the undirected edge list behind the CSR;
* the maintained ``colors`` array and the ``active`` mask;
* the ``batch_index`` (next timestep), because every per-batch seed
  stream is a pure function of ``(config.seed, batch_index)``;
* the full :class:`~repro.config.ColoringConfig` as a dict, so the
  restored engine repairs with identical knobs.

That makes restore ≡ never-crashed an *exact* property — a restored
engine replays byte-identical colors for the remaining batches — which
tests/test_serve.py pins (both in-process and through a killed server).

Format: a single ``.npz`` (numpy's zip container) holding the three
arrays plus a JSON metadata blob; written atomically (temp file +
``os.replace``) so a crash mid-write never leaves a torn snapshot, only
the previous one.  ``SNAPSHOT_FORMAT`` gates forward compatibility:
readers reject snapshots from a newer writer.

Robustness (DESIGN.md §9): ``save_snapshot`` keeps ``keep`` rotated
generations (``path``, ``path.1``, ``path.2``, …) so that even a torn
*current* snapshot — e.g. a crash between ``os.replace`` calls on a
filesystem without atomic rename, or byte corruption at rest — leaves a
restorable previous generation; :func:`restore_engine` walks the
generations oldest-last and :func:`load_snapshot` converts every
corruption mode into ``ValueError`` so the fallback logic has a single
failure type to catch.  :func:`sweep_stale_tmp` removes ``*.tmp``
leftovers of writes that died before their ``os.replace``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import sys
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import ColoringConfig
from repro.core.algorithm import MAX_CLEANUP_ROUNDS
from repro.dynamic.engine import REPAIR_MULTITRIAL_MIN, DynamicColoring
from repro.faults import plan as faults

__all__ = ["SNAPSHOT_FORMAT", "SnapshotInfo", "save_snapshot", "load_snapshot",
           "restore_engine", "snapshot_generations", "sweep_stale_tmp"]

SNAPSHOT_FORMAT = 1
"""Version stamp inside every snapshot; bumped on incompatible layout
changes.  ``load_snapshot`` refuses snapshots with a larger stamp."""

_RETIRED_CONFIG_FIELDS = frozenset(
    {
        "acd_sketch_engine",
        "group_size_target",
        "record_trace",
        "shard_repair_pool_min",
        "dynamic_shard_resketch",
        "shard_reconcile_max_iters",
        "serve_retry_after_s",
        "obs_trace_buffer",
        "shard_worker_timeout_s",
        "shard_max_retries",
        "shard_retry_backoff_s",
        "shard_inline_fallback",
        "shard_transport",
        "shard_start_method",
        "serve_queue_max",
        "serve_coalesce_max",
        "serve_snapshot_every",
        "serve_snapshot_keep",
        "serve_idle_timeout_s",
        "obs_trace",
        "obs_metrics",
    }
)
"""Config fields older snapshots carry that no longer exist.  None of
them changes what a restored engine computes: both sketch estimators
gave bit-identical estimates, nothing read the bucket size, the
:class:`DynamicColoring` a restore builds reads neither the trace
switches nor the shard knobs, the retry hint and the span-buffer cap are
constants now that never touched a coloring, and the daemon and
supervisor settings are constructor arguments now
(``ColoringServer``, ``ShardedColoring``).  So dropping them on load
restores exactly."""

_CONSTANT_CONFIG_FIELDS = {
    "max_cleanup_rounds": MAX_CLEANUP_ROUNDS,
    "dynamic_repair_multitrial_min": REPAIR_MULTITRIAL_MIN,
}
"""Config fields older snapshots carry that are constants now.  Both
change what an engine computes, so one is dropped on load only when it
holds the constant's value; any other value refuses the restore."""


@dataclass(frozen=True)
class SnapshotInfo:
    """What a snapshot on disk contains (the metadata half)."""

    path: str
    format: int
    n: int
    m: int
    batch_index: int
    bytes: int
    config: ColoringConfig

    def as_dict(self) -> dict:
        out = {
            "path": self.path,
            "format": self.format,
            "n": self.n,
            "m": self.m,
            "batch_index": self.batch_index,
            "bytes": self.bytes,
        }
        return out


def _generation_path(path: Path, gen: int) -> Path:
    """Generation ``0`` is ``path`` itself; older ones append ``.1``,
    ``.2``, … (newest-first numbering, logrotate style)."""
    return path if gen == 0 else path.with_name(f"{path.name}.{gen}")


def snapshot_generations(path: str | os.PathLike, limit: int = 64) -> list[Path]:
    """The existing snapshot generations for ``path``, newest first
    (``path``, then ``path.1``, …).  Stops at the first gap — rotation
    never creates one — or at ``limit`` as a runaway guard."""
    path = Path(path)
    out: list[Path] = []
    for gen in range(limit):
        p = _generation_path(path, gen)
        if not p.exists():
            if gen > 0:
                break
            continue
        out.append(p)
    return out


def _rotate(path: Path, keep: int) -> None:
    """Shift generations down one slot before a new ``path`` lands:
    ``path.{keep-2}`` → ``path.{keep-1}``, …, ``path`` → ``path.1``.
    With ``keep <= 1`` there is nothing to preserve."""
    if keep <= 1 or not path.exists():
        return
    for gen in range(keep - 1, 0, -1):
        src = _generation_path(path, gen - 1)
        if src.exists():
            os.replace(src, _generation_path(path, gen))


def sweep_stale_tmp(path: str | os.PathLike) -> list[str]:
    """Remove leftover ``<path>*.tmp`` files from writes that died before
    their ``os.replace`` (startup hygiene for the daemon).  A stale tmp
    is harmless to correctness — restore never reads it — but it pins
    disk and confuses operators; returns the paths removed."""
    path = Path(path)
    removed: list[str] = []
    parent = path.parent if str(path.parent) else Path(".")
    for p in sorted(parent.glob(path.name + "*.tmp")):
        try:
            p.unlink()
            removed.append(str(p))
        except OSError:  # pragma: no cover - racing unlink
            pass
    return removed


def save_snapshot(
    engine: DynamicColoring, path: str | os.PathLike, keep: int = 1
) -> SnapshotInfo:
    """Persist ``engine``'s resumable state to ``path``, atomically.

    The write goes to ``<path>.tmp`` in the same directory and is
    ``os.replace``d into place, so concurrent readers (and a crash at
    any byte) see either the old snapshot or the new one, never a mix.
    ``keep > 1`` rotates previous snapshots to ``path.1`` … before the
    replace, so torn or corrupted *current* files still leave a
    restorable generation (:func:`restore_engine`).

    This function is also the ``serve.snapshot.write`` fault-injection
    site: an armed torn-write fault truncates the payload mid-write —
    ``hard`` faults then kill the process (SIGKILL-mid-write: a stale
    ``.tmp`` remains, ``path`` is untouched), soft ones promote the torn
    bytes to ``path`` and raise, exercising the generation fallback.
    """
    path = Path(path)
    edges = engine.net.undirected_edges()
    meta = {
        "format": SNAPSHOT_FORMAT,
        "n": int(engine.n),
        "m": int(edges.shape[0]),
        "batch_index": int(engine.batch_index),
        "config": dataclasses.asdict(engine.cfg),
    }
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        edges=edges,
        colors=engine.colors,
        active=engine.active,
    )
    payload = buf.getvalue()
    fault = faults.inject(
        "serve.snapshot.write", batch_index=int(engine.batch_index)
    )
    tmp = path.with_name(path.name + ".tmp")
    if fault is not None and fault.kind == "torn-write":
        torn = payload[: max(1, len(payload) // 3)]
        with open(tmp, "wb") as f:
            f.write(torn)
            f.flush()
            os.fsync(f.fileno())
        if fault.hard:
            # Simulated SIGKILL mid-write: the stale .tmp stays behind,
            # the previous snapshot at ``path`` is never touched.
            os._exit(faults._EXIT_CODE)
        # Soft torn write: the corrupt bytes *do* land at ``path`` (a
        # non-atomic-rename filesystem), so recovery must fall back to
        # the rotated previous generation.
        _rotate(path, keep)
        os.replace(tmp, path)
        raise faults.FaultInjected(
            "serve.snapshot.write", "torn-write",
            f"snapshot at {path} truncated to {len(torn)}/{len(payload)} bytes",
        )
    with open(tmp, "wb") as f:
        f.write(payload)
    _rotate(path, keep)
    os.replace(tmp, path)
    return SnapshotInfo(
        path=str(path),
        format=SNAPSHOT_FORMAT,
        n=meta["n"],
        m=meta["m"],
        batch_index=meta["batch_index"],
        bytes=int(path.stat().st_size),
        config=engine.cfg,
    )


def load_snapshot(path: str | os.PathLike) -> tuple[SnapshotInfo, dict]:
    """Read a snapshot without instantiating an engine.

    Returns ``(info, arrays)`` where ``arrays`` holds ``edges``,
    ``colors`` and ``active``.  Raises ``ValueError`` for a snapshot
    written by a newer format or with unknown config fields (a snapshot
    is a contract, not a suggestion — silently dropping knobs would
    break the restore ≡ never-crashed guarantee); only the retired,
    result-neutral fields in ``_RETIRED_CONFIG_FIELDS`` are dropped, and
    the fields in ``_CONSTANT_CONFIG_FIELDS`` when they hold the
    constant's value.
    Every *corruption* mode — truncated zip, missing member, garbled
    JSON — is likewise normalized to ``ValueError`` so
    :func:`restore_engine` has a single failure type to fall back on;
    only a genuinely missing file keeps raising ``FileNotFoundError``.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {
                "edges": data["edges"].astype(np.int64, copy=True),
                "colors": data["colors"].astype(np.int64, copy=True),
                "active": data["active"].astype(bool, copy=True),
            }
        if not isinstance(meta, dict):
            raise ValueError("snapshot meta is not a JSON object")
    except FileNotFoundError:
        raise
    except ValueError:
        raise ValueError(f"snapshot {path} is corrupt or unreadable") from None
    except (zipfile.BadZipFile, KeyError, EOFError, UnicodeDecodeError,
            json.JSONDecodeError, OSError) as exc:
        raise ValueError(f"snapshot {path} is corrupt or unreadable: {exc!r}") from exc
    fmt = int(meta.get("format", 0))
    if fmt > SNAPSHOT_FORMAT:
        raise ValueError(
            f"snapshot {path} has format {fmt}; this build reads ≤ {SNAPSHOT_FORMAT}"
        )
    config = {
        k: v for k, v in meta["config"].items() if k not in _RETIRED_CONFIG_FIELDS
    }
    for name, constant in _CONSTANT_CONFIG_FIELDS.items():
        value = config.pop(name, constant)
        if value != constant:
            raise ValueError(
                f"snapshot {path} has {name}={value!r}; this build fixes it "
                f"at {constant}, so the restore would not continue the run"
            )
    known = {f.name for f in dataclasses.fields(ColoringConfig)}
    unknown = set(config) - known
    if unknown:
        raise ValueError(
            f"snapshot {path} carries unknown config fields {sorted(unknown)}"
        )
    cfg = ColoringConfig(**config)
    info = SnapshotInfo(
        path=str(path),
        format=fmt,
        n=int(meta["n"]),
        m=int(meta["m"]),
        batch_index=int(meta["batch_index"]),
        bytes=int(path.stat().st_size),
        config=cfg,
    )
    return info, arrays


def restore_engine(
    path: str | os.PathLike, fallback: bool = True
) -> DynamicColoring:
    """Rebuild the serving engine from a snapshot — the warm-restart /
    crash-recovery entry point (``repro serve --restore``).

    The returned engine's next :meth:`~DynamicColoring.apply_batch`
    behaves exactly as the snapshotted engine's would have: same
    topology, same colors, same batch index, same derived seed streams.

    With ``fallback=True`` a torn or corrupt current snapshot falls back
    to the rotated previous generations (``path.1``, ``path.2``, … — see
    :func:`save_snapshot`'s ``keep``), newest first; restoring an older
    generation simply resumes from an earlier ``batch_index``, and
    replaying the missing batches reproduces the exact same colors.  If
    every generation is unreadable the *first* error is re-raised.
    """
    candidates = snapshot_generations(path) if fallback else [Path(path)]
    if not candidates:
        candidates = [Path(path)]  # let load_snapshot raise FileNotFoundError
    first_exc: Exception | None = None
    for i, candidate in enumerate(candidates):
        try:
            info, arrays = load_snapshot(candidate)
            if i > 0:
                print(
                    f"[serve] snapshot {path} unreadable; restored previous "
                    f"generation {candidate} (batch_index={info.batch_index})",
                    file=sys.stderr,
                )
            return DynamicColoring(
                (info.n, arrays["edges"]),
                info.config,
                initial_colors=arrays["colors"],
                active=arrays["active"],
                batch_index=info.batch_index,
            )
        except (ValueError, OSError) as exc:
            if first_exc is None:
                first_exc = exc
    assert first_exc is not None
    raise first_exc
