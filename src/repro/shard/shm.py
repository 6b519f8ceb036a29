"""Zero-copy shared-memory arena for shard transport (DESIGN.md §7).

Spawning k shard workers used to pickle every :class:`ShardView`'s numpy
arrays through the pool's argument pipe — O(n + m) bytes serialized,
copied, and deserialized once per worker, which is exactly the
whole-graph touch-point that stops k shards from behaving like k
machines (OSERENA's partition-bounded-memory discipline in PAPERS.md is
the target: per-worker footprint proportional to interior + ghost
frontier only).  The arena removes it: the driver packs the view arrays
and the global colors array into one ``multiprocessing.shared_memory``
segment, and workers *attach* — the argument pipe carries only an
:class:`ArenaDescriptor` (segment name + per-array dtype/shape/offset
slices, a few hundred bytes at any n).  A worker's unique RSS is then
the pages of its own slices: shared-memory pages fault in on first
touch, and each shard only ever touches its region.

Lifecycle (the part that must be crash-safe):

* ``create`` — driver side: one segment, arrays copied in once,
  64-byte-aligned offsets.  Every created segment lands in a
  process-wide registry with an ``atexit`` sweep, so a driver that dies
  with an arena live still unlinks it on interpreter exit.
* ``attach`` — worker side: map the segment, build read-only numpy
  views (``writeable=False`` — the ghost contract survives transport),
  and *unregister* the segment from the worker's resource tracker: the
  worker is a borrower, not an owner, and must not fight the driver
  over who unlinks (the stdlib tracker would otherwise unlink a
  still-live segment when the first worker exits).
* ``close`` / ``unlink`` — views dropped, mapping closed; ``unlink``
  (creator only) removes the name.  :class:`ShardedColoring` unlinks in
  a ``finally`` and the chaos campaigns assert :func:`leaked_segments`
  is empty, so injected ``shard.worker`` / ``shard.shm`` faults cannot
  leak ``/dev/shm`` space.

Both lifecycle verbs are fault-injection sites (``"shard.shm"``,
``op="create"`` / ``op="attach"``): a chaos plan can kill the arena at
either end and the supervisor + registry must still leave ``/dev/shm``
clean.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator, Mapping

import numpy as np

from repro.faults import plan as faults

__all__ = [
    "ArraySpec",
    "ArenaDescriptor",
    "ShmArena",
    "leaked_segments",
    "NAME_PREFIX",
]

NAME_PREFIX = "repro-shard"
"""Every arena segment name starts with this — what
:func:`leaked_segments` (and the CI ``ls /dev/shm`` gate) scans for."""

_ALIGN = 64
"""Array offsets are aligned to cache lines so attached views keep
numpy's aligned-access fast paths."""


@dataclass(frozen=True)
class ArraySpec:
    """Where one named array lives inside the segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ArenaDescriptor:
    """The picklable handle workers receive instead of the arrays: the
    segment name plus one :class:`ArraySpec` slice per array.  A few
    hundred bytes at any n — this is the whole cost of handing a pool
    worker its shard."""

    segment: str
    specs: tuple[ArraySpec, ...]
    nbytes: int

    def names(self) -> tuple[str, ...]:
        """The packed array names, in segment layout order."""
        return tuple(s.name for s in self.specs)


class _untracked_attach:
    """Context manager suppressing resource-tracker registration while a
    *borrower* maps a segment (see module docstring).  Registering and
    then unregistering is not enough: under fork all workers share one
    tracker process, and interleaved register/unregister pairs from
    sibling workers race into spurious tracker KeyErrors and — worse —
    an early unlink of a live segment.  Not registering at all is the
    correct borrower semantics (python 3.13's ``track=False``,
    backported here by patching ``register`` around the attach)."""

    def __enter__(self) -> None:
        try:  # pragma: no cover - depends on interpreter internals
            from multiprocessing import resource_tracker

            self._mod = resource_tracker
            self._orig = resource_tracker.register

            def _skip_shm(name: str, rtype: str) -> None:
                if rtype != "shared_memory":
                    self._orig(name, rtype)

            resource_tracker.register = _skip_shm
        except Exception:
            self._mod = None

    def __exit__(self, *exc) -> None:
        if self._mod is not None:  # pragma: no branch
            self._mod.register = self._orig


class _Registry:
    """Process-wide account of segments this process *created* and has
    not yet unlinked — the crash-safety net behind ``atexit`` and the
    chaos campaigns' leak gate."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[str, shared_memory.SharedMemory] = {}

    def add(self, shm: shared_memory.SharedMemory) -> None:
        with self._lock:
            self._live[shm.name] = shm

    def remove(self, name: str) -> None:
        with self._lock:
            self._live.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._live)

    def sweep(self) -> list[str]:
        """Unlink every still-live created segment (idempotent); returns
        the names that were swept."""
        with self._lock:
            live = list(self._live.items())
            self._live.clear()
        swept = []
        for name, shm in live:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
                swept.append(name)
            except Exception:
                pass
        return swept


_REGISTRY = _Registry()
atexit.register(_REGISTRY.sweep)


def live_segments() -> list[str]:
    """Names of segments created by this process and not yet unlinked."""
    return _REGISTRY.names()


def leaked_segments() -> list[str]:
    """Arena segments visible system-wide (``/dev/shm`` scan on linux,
    falling back to this process's registry) — the chaos campaigns and
    the CI shard-smoke job assert this is empty after every run."""
    root = "/dev/shm"
    if os.path.isdir(root):
        try:
            return sorted(
                name for name in os.listdir(root) if name.startswith(NAME_PREFIX)
            )
        except OSError:  # pragma: no cover
            pass
    return live_segments()


class ShmArena:
    """A named shared-memory segment holding a set of numpy arrays.

    Driver side::

        arena = ShmArena.create({"colors": colors, "nodes": nodes})
        pool.submit(work, arena.descriptor())   # bytes on the pipe: O(1)
        ...
        arena.unlink()                          # in a finally

    Worker side::

        with ShmArena.attach(desc, writeable=("colors",)) as arena:
            nodes = arena.array("nodes")        # zero-copy, read-only
            colors = arena.array("colors")      # zero-copy, writable
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        descriptor: ArenaDescriptor,
        owner: bool,
        writeable: tuple[str, ...] = (),
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self._descriptor = descriptor
        self._owner = owner
        self._views: dict[str, np.ndarray] = {}
        for spec in descriptor.specs:
            view = np.frombuffer(
                shm.buf, dtype=np.dtype(spec.dtype), count=int(np.prod(spec.shape, dtype=np.int64)), offset=spec.offset
            ).reshape(spec.shape)
            view.flags.writeable = spec.name in writeable
            self._views[spec.name] = view

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, arrays: Mapping[str, np.ndarray], label: str = "arena"
    ) -> "ShmArena":
        """Pack ``arrays`` into one fresh segment (driver side).  The
        input arrays are copied in once; the returned arena's views are
        writable (the driver owns the data until it publishes)."""
        faults.inject("shard.shm", op="create", label=label)
        specs: list[ArraySpec] = []
        offset = 0
        items = [(name, np.ascontiguousarray(a)) for name, a in arrays.items()]
        for name, arr in items:
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            specs.append(
                ArraySpec(
                    name=name,
                    dtype=arr.dtype.str,
                    shape=tuple(int(s) for s in arr.shape),
                    offset=offset,
                )
            )
            offset += arr.nbytes
        nbytes = max(offset, 1)
        name = f"{NAME_PREFIX}-{label}-{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        _REGISTRY.add(shm)
        descriptor = ArenaDescriptor(segment=shm.name, specs=tuple(specs), nbytes=nbytes)
        arena = cls(shm, descriptor, owner=True, writeable=tuple(arrays))
        for (arr_name, arr) in items:
            if arr.size:
                arena._views[arr_name][...] = arr
        return arena

    @classmethod
    def attach(
        cls, descriptor: ArenaDescriptor, writeable: tuple[str, ...] = ()
    ) -> "ShmArena":
        """Map an existing segment (worker side).  Views come back
        read-only unless named in ``writeable``; the mapping is never
        registered with the resource tracker — the worker borrows, the
        creator owns (see :class:`_untracked_attach`)."""
        faults.inject("shard.shm", op="attach", segment=descriptor.segment)
        with _untracked_attach():
            shm = shared_memory.SharedMemory(name=descriptor.segment)
        return cls(shm, descriptor, owner=False, writeable=writeable)

    # ------------------------------------------------------------------
    def descriptor(self) -> ArenaDescriptor:
        """The picklable handle workers attach with."""
        return self._descriptor

    @property
    def name(self) -> str:
        """The ``/dev/shm`` segment name (``repro-shard-*``)."""
        return self._descriptor.segment

    @property
    def nbytes(self) -> int:
        """Total mapped segment size in bytes."""
        return self._descriptor.nbytes

    def array(self, name: str) -> np.ndarray:
        """Zero-copy view of one packed array."""
        return self._views[name]

    def arrays(self) -> dict[str, np.ndarray]:
        """All views, by name (the same objects every call)."""
        return dict(self._views)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the views and unmap (idempotent).  Any view still
        referenced elsewhere keeps its page mapping alive until released
        — close is best-effort by design, unlink is the authority."""
        self._views.clear()
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                # A view escaped (e.g. a network built over it, or a
                # caller's local still in scope).  The name can still be
                # unlinked; the mapping stays alive through the escaped
                # view's buffer chain and dies with it.  Detach the
                # stdlib handles so ``SharedMemory.__del__`` cannot
                # re-raise the BufferError as an unraisable later —
                # only the fd is ours to release now (closing it does
                # not unmap).
                shm = self._shm
                shm._buf = None
                shm._mmap = None
                fd = getattr(shm, "_fd", -1)
                if fd >= 0:
                    try:
                        os.close(fd)
                    except OSError:  # pragma: no cover
                        pass
                    shm._fd = -1
            if not self._owner:
                self._shm = None

    def unlink(self) -> None:
        """Remove the segment name (creator only, idempotent).  Safe to
        call with workers still attached: the memory lives until the
        last mapping closes, but nothing can leak past this call."""
        self.close()
        if self._shm is not None and self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            _REGISTRY.remove(self._shm.name)
            self._shm = None

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)
