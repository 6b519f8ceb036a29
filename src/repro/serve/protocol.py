"""The ``repro serve`` wire protocol: frames, framing, validation.

This module is the *normative registry* docs/PROTOCOL.md is linted
against (tests/test_docs.py): every frame type the service speaks is a
dataclass registered in :data:`MESSAGE_TYPES`, every error code the
server can emit is listed in :data:`ERROR_CODES`.  Change either and the
docs-lint CI step fails until the spec is updated.

A frame is a 4-byte big-endian length, then one JSON object ending in
``\\n`` (docs/PROTOCOL.md §Framing).  Validation happens at decode time,
from one schema: each frame's dataclass fields are its wire fields, the
annotation names the field's check and the class's ``REQUIRED`` tuple
names the fields a payload must carry.  :func:`decode_payload` dispatches
on ``"type"`` and the one :meth:`Frame.from_payload` applies that schema,
raising :class:`ProtocolError` with the error code the server echoes back
in an ``error`` frame.  Every integer on the wire is a signed 64-bit
integer, and a JSON boolean is never an integer.

Integer arrays whose length follows n, m or the batch (edges, node ids,
colours) travel *packed* (docs/PROTOCOL.md §Packed integer arrays): one
JSON string holding standard padded base64 of little-endian int64, pairs
row-major.  A packed field decodes with one ``b64decode`` and one
``np.frombuffer`` into a read-only int64 array, so no Python object is
built per entry at either end.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
from dataclasses import dataclass, field, fields
from typing import BinaryIO, Callable, ClassVar

import numpy as np

from repro.dynamic.events import UpdateBatch
from repro.simulator.network import MAX_NODES

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Frame",
    "Ints",
    "Pairs",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "MESSAGE_TYPES",
    "ERROR_CODES",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "read_frame_async",
]  # and every registered frame class, appended below its registry

PROTOCOL_VERSION = 2
"""The wire-protocol version this build speaks.  Negotiated in
``hello``/``welcome``: the client offers a list, the server picks the
highest it shares or rejects with ``bad-version``.  Version 2 packs the
integer arrays; a version-1 client gets ``bad-version``."""

MAX_FRAME_BYTES = 1 << 26
"""Hard ceiling on one frame's JSON payload (64 MiB) — a corrupted or
hostile length prefix must not make the peer allocate unboundedly."""

_HEADER = struct.Struct(">I")

ERROR_CODES = (
    "bad-frame",
    "frame-too-large",
    "bad-type",
    "bad-payload",
    "bad-version",
    "hello-required",
    "no-graph",
    "queue-full",
    "snapshot-failed",
    "internal",
)
"""Every ``code`` an ``error`` frame can carry (docs/PROTOCOL.md §Errors)."""


class ProtocolError(Exception):
    """A frame violated the wire contract.

    ``code`` is one of :data:`ERROR_CODES`; the server maps the exception
    onto an ``error`` frame (echoing ``id`` when the offending request's
    id was parseable) and, for framing-level codes (``bad-frame``,
    ``frame-too-large``), closes the connection — after a broken length
    prefix there is no way to resynchronize the stream.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        id: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.id = id
        self.retry_after = retry_after


# ----------------------------------------------------------------------
# Field checks: one per annotation a frame field may carry
# ----------------------------------------------------------------------
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _echo_id(payload: dict) -> int | None:
    """The payload's ``id`` when an ``error`` frame can echo it."""
    ident = payload.get("id")
    return ident if type(ident) is int and _INT64_MIN <= ident <= _INT64_MAX else None


def _in_int64(ints: list) -> None:
    # One min/max pass after the per-entry type test: a per-entry range
    # call would cost more than the type test itself.
    if ints and (min(ints) < _INT64_MIN or max(ints) > _INT64_MAX):
        raise ValueError("holds an integer outside the signed 64-bit range")


def _scalar(kind: type) -> Callable:
    def check(value):
        # ``type(...) is``, not isinstance: a JSON boolean is not an int.
        if type(value) is not kind:
            raise ValueError(f"must be {kind.__name__}, got {type(value).__name__}")
        if kind is int:
            _in_int64([value])
        return value

    return check


_int = _scalar(int)


def _float(value) -> float:
    if type(value) is int:
        return float(_int(value))  # range-checked before float() can overflow
    if type(value) is not float:
        raise ValueError(f"must be float, got {type(value).__name__}")
    return value


def _int_list(value) -> list:
    if type(value) is not list or set(map(type, value)) - {int}:
        raise ValueError("must be a list of ints")
    _in_int64(value)
    return value


# The packed annotations: an int64 array of ids or colours, shape (k,),
# or of pairs, shape (k, 2).
Ints = Pairs = np.ndarray
_PACKED_SHAPES = {"Ints": (-1,), "Pairs": (-1, 2)}


def _as_packed(value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` (an array or a list) as a read-only int64 view of ``shape``."""
    arr = np.asarray(value, dtype=np.int64).reshape(shape)
    arr.flags.writeable = False
    return arr


def _pack(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<i8", copy=False).tobytes()).decode("ascii")


def _unpacker(shape: tuple[int, ...]) -> Callable:
    entry = 8 * (shape[1] if len(shape) > 1 else 1)

    def check(value) -> np.ndarray:
        if type(value) is not str:
            raise ValueError(f"must be a packed int64 array, got {type(value).__name__}")
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise ValueError(f"is not strict base64: {exc}") from None
        if len(raw) % entry:
            raise ValueError(
                f"holds {len(raw)} bytes, not a whole number of {entry}-byte entries"
            )
        return np.frombuffer(raw, dtype="<i8").reshape(shape)

    return check


def _same(a, b) -> bool:
    """Field equality; arrays compare exactly (dtype, shape, values)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


_CHECKS: dict[str, Callable] = {
    "int": _int,
    "float": _float,
    "str": _scalar(str),
    "bool": _scalar(bool),
    "dict": _scalar(dict),
    "list[int]": _int_list,
    **{name: _unpacker(shape) for name, shape in _PACKED_SHAPES.items()},
}
"""Field annotation (with any ``| None`` stripped) → its wire check: the
check returns the decoded value or raises ``ValueError`` naming what the
field must be."""


# ----------------------------------------------------------------------
# Frame dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Frame:
    """Base class: a typed wire message.

    Subclasses set ``TYPE`` (the registry key) and declare their wire
    fields as dataclass fields, once: the annotation names the field's
    check (``int``, ``str``, ``bool``, ``dict``, ``float``,
    ``list[int]``, the packed ``Ints`` and ``Pairs``, any of them
    ``| None``) and ``REQUIRED`` names the fields a payload must carry;
    an absent or null optional field takes the dataclass default.  A
    packed field holds a read-only int64 array, whether built from a list
    or an array or decoded, and equality compares it exactly, so
    encode → decode is the identity.
    """

    TYPE: ClassVar[str] = ""
    REQUIRED: ClassVar[tuple[str, ...]] = ("id",)
    id: int = 0

    def __post_init__(self) -> None:
        for name, _, _, shape in _SCHEMA[type(self)]:
            value = getattr(self, name)
            if shape is not None and value is not None:
                object.__setattr__(self, name, _as_packed(value, shape))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def to_payload(self) -> dict:
        """The JSON object this frame serializes to."""
        out: dict = {"type": self.TYPE}
        for name, _, _, shape in _SCHEMA[type(self)]:
            value = getattr(self, name)
            out[name] = value if shape is None or value is None else _pack(value)
        return out

    @classmethod
    def from_payload(cls, payload: dict) -> "Frame":
        """Decode ``payload`` as this frame type, checking every field
        against its annotation.  A failure is ``bad-payload`` and echoes
        the payload's ``id`` when that is a valid int."""
        echo = _echo_id(payload)
        values = {}
        for name, check, required, _ in _SCHEMA[cls]:
            value = payload.get(name)
            if value is None:
                if required:
                    raise ProtocolError(
                        "bad-payload", f"{cls.TYPE}: missing field {name!r}", id=echo
                    )
                continue
            try:
                values[name] = check(value)
            except ValueError as exc:
                raise ProtocolError(
                    "bad-payload", f"{cls.TYPE}: field {name!r} {exc}", id=echo
                ) from None
        frame = cls(**values)
        problem = frame._problem()
        if problem:
            raise ProtocolError("bad-payload", f"{cls.TYPE}: {problem}", id=echo)
        return frame

    def _problem(self) -> str | None:
        """What breaks a rule the per-field checks cannot state (one
        spanning fields, or a value set), or None."""
        return None


# -- requests (client → server) ----------------------------------------
@dataclass(frozen=True, eq=False)
class Hello(Frame):
    """Session opener; MUST be the first frame on a connection.

    ``versions`` lists every protocol version the client can speak; the
    server answers :class:`Welcome` with its pick, or ``bad-version``.
    """

    TYPE: ClassVar[str] = "hello"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "versions")
    versions: list[int] = field(default_factory=lambda: [PROTOCOL_VERSION])
    client: str = ""


@dataclass(frozen=True, eq=False)
class LoadGraph(Frame):
    """Install the graph the service maintains (replacing any previous
    one): ``n`` nodes, an explicit undirected edge list, and optional
    :class:`~repro.config.ColoringConfig` field overrides (``seed``,
    ``shard_k``, ...).  One reserved key rides in ``config`` without
    being a config field: ``initial`` (``"pipeline"``/``"sharded"`` —
    which engine pays the initial coloring that the maintenance engine,
    :class:`~repro.dynamic.DynamicColoring`, adopts)."""

    TYPE: ClassVar[str] = "load_graph"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "n")
    n: int = 0
    edges: Pairs = ()
    config: dict = field(default_factory=dict)

    def _problem(self) -> str | None:
        if self.n <= 0:
            return "n must be positive"
        if self.n > MAX_NODES:
            return f"n must be at most {MAX_NODES}, got {self.n}"
        if not all(isinstance(k, str) for k in self.config):
            return "config keys must be strings"
        return None


@dataclass(frozen=True, eq=False)
class UpdateBatchFrame(Frame):
    """One :class:`~repro.dynamic.UpdateBatch` of topology churn to
    ingest.  Answered asynchronously by a :class:`BatchReportFrame`
    whose ``ids`` covers this frame's ``id`` — or immediately by a
    ``queue-full`` error when admission control rejects it."""

    TYPE: ClassVar[str] = "update_batch"
    insert_edges: Pairs = ()
    delete_edges: Pairs = ()
    arrivals: Ints = ()
    departures: Ints = ()

    @property
    def batch(self) -> UpdateBatch:
        """The event object the engine consumes, over this frame's arrays
        (may raise ``ValueError`` for e.g. a node arriving and departing
        at once — the server maps that onto ``bad-payload``)."""
        return UpdateBatch(**{f.name: getattr(self, f.name) for f in fields(UpdateBatch)})

    @classmethod
    def from_batch(cls, batch: UpdateBatch, id: int = 0) -> "UpdateBatchFrame":
        """Wrap an in-memory :class:`UpdateBatch` for the wire (its arrays,
        not copies)."""
        return cls(id=id, **{f.name: getattr(batch, f.name) for f in fields(UpdateBatch)})


@dataclass(frozen=True, eq=False)
class QueryColors(Frame):
    """Read the maintained coloring: all n entries (``nodes`` null) or
    the listed subset.  Departed nodes read as -1."""

    TYPE: ClassVar[str] = "query_colors"
    nodes: Ints | None = None


@dataclass(frozen=True, eq=False)
class QueryPalette(Frame):
    """Read one node's color and its free palette under the current
    [Δ_t+1] color space (free = not held by any colored neighbor)."""

    TYPE: ClassVar[str] = "query_palette"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "node")
    node: int = 0


@dataclass(frozen=True, eq=False)
class StatsRequest(Frame):
    """Ask for the service counters (queue depth, applied/coalesced/
    rejected batches, fallbacks, invariants, round/bit totals)."""

    TYPE: ClassVar[str] = "stats"


@dataclass(frozen=True, eq=False)
class MetricsRequest(Frame):
    """Ask for the Prometheus text exposition of the server's
    :mod:`repro.obs` registry — the same text ``--metrics-port`` serves
    over HTTP, for clients already speaking the framed protocol
    (``repro top`` in daemon mode)."""

    TYPE: ClassVar[str] = "metrics"


@dataclass(frozen=True, eq=False)
class SnapshotRequest(Frame):
    """Force a snapshot now, to ``path`` or the server's configured
    ``--snapshot-path``."""

    TYPE: ClassVar[str] = "snapshot"
    path: str | None = None


@dataclass(frozen=True, eq=False)
class Ping(Frame):
    """Liveness probe / idle-timeout heartbeat.  Costs the server nothing
    (answered inline by :class:`Pong`, never queued) and counts as
    session activity: a client that pings inside the server's
    ``--idle-timeout`` window keeps an otherwise quiet connection open."""

    TYPE: ClassVar[str] = "ping"


@dataclass(frozen=True, eq=False)
class Shutdown(Frame):
    """Stop the service: the server stops accepting work, drains the
    ingest queue, writes a final snapshot when configured, answers
    :class:`Goodbye`, and exits."""

    TYPE: ClassVar[str] = "shutdown"


# -- responses (server → client) ---------------------------------------
@dataclass(frozen=True, eq=False)
class Welcome(Frame):
    """Successful :class:`Hello`: the negotiated version plus what the
    server already holds (``n`` null until ``load_graph``)."""

    TYPE: ClassVar[str] = "welcome"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "v")
    v: int = PROTOCOL_VERSION
    server: str = ""
    n: int | None = None


@dataclass(frozen=True, eq=False)
class GraphLoaded(Frame):
    """Successful :class:`LoadGraph`: the installed graph's shape and the
    cost of the initial coloring (``initial`` names which engine paid it:
    ``"pipeline"`` or ``"sharded"``)."""

    TYPE: ClassVar[str] = "graph_loaded"
    REQUIRED: ClassVar[tuple[str, ...]] = (
        "id", "n", "m", "delta", "colors_used", "initial_rounds", "seconds")
    n: int = 0
    m: int = 0
    delta: int = 0
    colors_used: int = 0
    initial_rounds: int = 0
    seconds: float = 0.0
    initial: str = "pipeline"


@dataclass(frozen=True, eq=False)
class BatchReportFrame(Frame):
    """Pushed after the worker applies one engine batch: the
    :meth:`~repro.dynamic.BatchReport.as_dict` payload, the request ids
    it covers (> 1 when coalesced), and how many requests were merged.
    ``id`` is fixed at -1 — correlation runs through ``ids``."""

    TYPE: ClassVar[str] = "batch_report"
    REQUIRED: ClassVar[tuple[str, ...]] = ("coalesced", "report")
    id: int = -1
    ids: list[int] = field(default_factory=list)
    coalesced: int = 1
    report: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ColorsReply(Frame):
    """Answer to :class:`QueryColors`: colors aligned with ``nodes``
    (or with 0..n-1 when ``nodes`` is null), plus the two invariant
    bits every read can be checked against."""

    TYPE: ClassVar[str] = "colors"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "proper", "complete")
    nodes: Ints | None = None
    colors: Ints = ()
    proper: bool = True
    complete: bool = True


@dataclass(frozen=True, eq=False)
class PaletteReply(Frame):
    """Answer to :class:`QueryPalette`."""

    TYPE: ClassVar[str] = "palette"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "node", "color", "num_colors")
    node: int = 0
    color: int = -1
    num_colors: int = 0
    free: Ints = ()


@dataclass(frozen=True, eq=False)
class StatsReply(Frame):
    """Answer to :class:`StatsRequest`: one flat dict of counters
    (docs/PROTOCOL.md lists every key)."""

    TYPE: ClassVar[str] = "stats_report"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "stats")
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class MetricsReply(Frame):
    """Answer to :class:`MetricsRequest`: the Prometheus text exposition
    format 0.0.4 payload, verbatim (``''`` when the registry is
    disarmed — never the case for a running daemon)."""

    TYPE: ClassVar[str] = "metrics_report"
    text: str = ""


@dataclass(frozen=True, eq=False)
class SnapshotSaved(Frame):
    """Answer to :class:`SnapshotRequest`: where the snapshot landed and
    the batch index it captures (restores resume from there)."""

    TYPE: ClassVar[str] = "snapshot_saved"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "path", "batch_index", "bytes")
    path: str = ""
    batch_index: int = 0
    bytes: int = 0


@dataclass(frozen=True, eq=False)
class Pong(Frame):
    """Answer to :class:`Ping`, echoing its ``id`` — receipt proves the
    server's event loop is alive (not just the TCP/unix socket)."""

    TYPE: ClassVar[str] = "pong"


@dataclass(frozen=True, eq=False)
class Goodbye(Frame):
    """Answer to :class:`Shutdown` — the last frame the server sends."""

    TYPE: ClassVar[str] = "goodbye"


@dataclass(frozen=True, eq=False)
class ErrorFrame(Frame):
    """Any request can fail with this instead of its success reply.
    ``code`` ∈ :data:`ERROR_CODES`; ``retry_after`` (seconds) is set for
    ``queue-full`` — the backpressure contract: wait, then resubmit."""

    TYPE: ClassVar[str] = "error"
    REQUIRED: ClassVar[tuple[str, ...]] = ("code",)
    id: int | None = None
    code: str = "internal"
    message: str = ""
    retry_after: float | None = None

    def _problem(self) -> str | None:
        return None if self.code in ERROR_CODES else f"unknown code {self.code!r}"

    def to_exception(self) -> ProtocolError:
        """The exception form a client raises on receipt."""
        return ProtocolError(
            self.code, self.message, id=self.id, retry_after=self.retry_after
        )


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
REQUEST_TYPES: dict[str, type[Frame]] = {cls.TYPE: cls for cls in (
    Hello, LoadGraph, UpdateBatchFrame, QueryColors, QueryPalette,
    StatsRequest, MetricsRequest, SnapshotRequest, Ping, Shutdown,
)}
"""Frames a client may send (the ten verbs of the service)."""

RESPONSE_TYPES: dict[str, type[Frame]] = {cls.TYPE: cls for cls in (
    Welcome, GraphLoaded, BatchReportFrame, ColorsReply, PaletteReply,
    StatsReply, MetricsReply, SnapshotSaved, Pong, Goodbye, ErrorFrame,
)}
"""Frames a server may send (one success shape per verb, plus the pushed
batch report and the error frame)."""

MESSAGE_TYPES: dict[str, type[Frame]] = {**REQUEST_TYPES, **RESPONSE_TYPES}
"""The complete registry — the docs-lint source of truth."""

__all__ += [cls.__name__ for cls in MESSAGE_TYPES.values()]


def _schema(cls: type[Frame]) -> tuple[tuple[str, Callable, bool, tuple | None], ...]:
    """``(name, check, required, packed shape or None)`` per field of
    ``cls``, in wire order.  A field whose annotation has no check, or a
    ``REQUIRED`` name that is no field, fails here, at import."""
    if not {f.name for f in fields(cls)}.issuperset(cls.REQUIRED):
        raise TypeError(f"{cls.__name__}.REQUIRED names no field: {cls.REQUIRED}")
    out = []
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        check = _CHECKS.get(kind)
        if check is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no wire check for {f.type!r}")
        out.append((f.name, check, f.name in cls.REQUIRED, _PACKED_SHAPES.get(kind)))
    return tuple(out)


_SCHEMA = {cls: _schema(cls) for cls in MESSAGE_TYPES.values()}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` to its length-prefixed wire bytes."""
    body = json.dumps(frame.to_payload(), separators=(",", ":")).encode() + b"\n"
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}",
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(raw: bytes) -> Frame:
    """Parse one frame body (the bytes after the length prefix) into its
    typed dataclass, validating as it goes."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an integer literal past the
        # interpreter's int-string limit; RecursionError: nesting deeper
        # than the parser's stack.
        raise ProtocolError("bad-frame", f"frame body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("bad-frame", "frame body must be a JSON object")
    kind = payload.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("bad-payload", "frame is missing the 'type' field")
    cls = MESSAGE_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(
            "bad-type", f"unknown message type {kind!r}", id=_echo_id(payload)
        )
    return cls.from_payload(payload)


def _check_length(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame-too-large",
            f"announced frame of {length} bytes exceeds {MAX_FRAME_BYTES}",
        )
    return length


def write_frame(fp: BinaryIO, frame: Frame) -> None:
    """Blocking send of one frame onto a file-like byte stream."""
    fp.write(encode_frame(frame))
    fp.flush()


def read_frame(fp: BinaryIO) -> Frame | None:
    """Blocking receive of one frame; ``None`` on clean EOF (the peer
    closed between frames).  A mid-frame EOF is ``bad-frame``."""
    header = fp.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError("bad-frame", "truncated frame header")
    length = _check_length(header)
    body = fp.read(length)
    if len(body) < length:
        raise ProtocolError("bad-frame", "truncated frame body")
    return decode_payload(body)


async def read_frame_async(reader: asyncio.StreamReader) -> Frame | None:
    """Asyncio twin of :func:`read_frame` (the server's receive path)."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("bad-frame", "truncated frame header") from exc
    length = _check_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("bad-frame", "truncated frame body") from exc
    return decode_payload(body)
