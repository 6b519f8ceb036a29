"""The ``repro serve`` wire protocol: frames, framing, validation.

This module is the *normative registry* the documentation is linted
against (docs/PROTOCOL.md, enforced by tests/test_docs.py): every frame
type the service speaks is a dataclass registered in
:data:`MESSAGE_TYPES`, every error code the server can emit is listed in
:data:`ERROR_CODES`.  Change either and the docs-lint CI step fails
until the spec is updated.

Framing (docs/PROTOCOL.md §Framing)
-----------------------------------
A frame is a length-prefixed JSON line::

    +----------------+----------------------------------+
    | 4 bytes, u32BE | <length> bytes of UTF-8 JSON     |
    +----------------+----------------------------------+

The JSON payload is one object terminated by ``\\n`` (the newline is
included in the length, so a captured stream is also valid JSON lines).
Frames larger than :data:`MAX_FRAME_BYTES` are rejected with
``frame-too-large``.

Every payload carries ``"type"`` (a :data:`MESSAGE_TYPES` key) and
``"id"`` — the client-chosen correlation id echoed on the response.
The pushed :class:`BatchReportFrame` is the one exception: it answers
*one or more* requests (coalescing), so it carries ``"ids"`` instead.

Validation happens at decode time, from one schema: each frame's
dataclass fields are its wire fields, the annotation names the field's
check and the class's ``REQUIRED`` tuple names the fields a payload must
carry.  :func:`decode_payload` dispatches on ``"type"`` and the one
:meth:`Frame.from_payload` applies that schema, raising
:class:`ProtocolError` with the error code the server echoes back in an
``error`` frame.  Every integer on the wire is a signed 64-bit integer,
and a JSON boolean is never an integer.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import BinaryIO, Callable, ClassVar

from repro.dynamic.events import UpdateBatch
from repro.simulator.network import MAX_NODES

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Frame",
    "Hello",
    "LoadGraph",
    "UpdateBatchFrame",
    "QueryColors",
    "QueryPalette",
    "StatsRequest",
    "MetricsRequest",
    "SnapshotRequest",
    "Ping",
    "Shutdown",
    "Welcome",
    "Pong",
    "GraphLoaded",
    "BatchReportFrame",
    "ColorsReply",
    "PaletteReply",
    "StatsReply",
    "MetricsReply",
    "SnapshotSaved",
    "Goodbye",
    "ErrorFrame",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "MESSAGE_TYPES",
    "ERROR_CODES",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "read_frame_async",
]

PROTOCOL_VERSION = 1
"""The wire-protocol version this build speaks.  Negotiated in
``hello``/``welcome``: the client offers a list, the server picks the
highest it shares or rejects with ``bad-version``."""

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


def _pair_list(value) -> list:
    if (
        type(value) is not list
        or set(map(type, value)) - {list}
        or set(map(len, value)) - {2}
        or set(map(type, flat := list(chain.from_iterable(value)))) - {int}
    ):
        raise ValueError("must be a list of [u, v] int pairs")
    _in_int64(flat)
    return value


_CHECKS: dict[str, Callable] = {
    "int": _int,
    "float": _float,
    "str": _scalar(str),
    "bool": _scalar(bool),
    "dict": _scalar(dict),
    "list[int]": _int_list,
    "list[list[int]]": _pair_list,
}
"""Field annotation (with any ``| None`` stripped) → its wire check: the
check returns the decoded value or raises ``ValueError`` naming what the
field must be."""


# ----------------------------------------------------------------------
# Frame dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Frame:
    """Base class: a typed wire message.

    Subclasses set ``TYPE`` (the registry key) and declare their wire
    fields as dataclass fields, once: the annotation names the field's
    check (``int``, ``str``, ``bool``, ``dict``, ``float``,
    ``list[int]``, ``list[list[int]]``, any of them ``| None``) and
    ``REQUIRED`` names the fields a payload must carry; an absent or
    null optional field takes the dataclass default.  The one
    :meth:`from_payload` decodes every registered type from that schema.
    All fields are plain JSON-safe python values — conversions to numpy
    live at the edges (:meth:`UpdateBatchFrame.batch`), so
    round-tripping a frame through :func:`encode_frame`/
    :func:`decode_payload` is exact equality.
    """

    TYPE: ClassVar[str] = ""
    REQUIRED: ClassVar[tuple[str, ...]] = ("id",)
    id: int = 0

    def to_payload(self) -> dict:
        """The JSON object this frame serializes to."""
        out: dict = {"type": self.TYPE}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_payload(cls, payload: dict) -> "Frame":
        """Decode ``payload`` as this frame type, checking every field
        against its annotation.  A failure is ``bad-payload`` and echoes
        the payload's ``id`` when that is a valid int."""
        echo = _echo_id(payload)
        values = {}
        for name, check, required in _SCHEMA[cls]:
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
@dataclass(frozen=True)
class Hello(Frame):
    """Session opener; MUST be the first frame on a connection.

    ``versions`` lists every protocol version the client can speak; the
    server answers :class:`Welcome` with its pick, or ``bad-version``.
    """

    TYPE: ClassVar[str] = "hello"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "versions")
    versions: list[int] = field(default_factory=lambda: [PROTOCOL_VERSION])
    client: str = ""


@dataclass(frozen=True)
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
    edges: list[list[int]] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def _problem(self) -> str | None:
        if self.n <= 0:
            return "n must be positive"
        if self.n > MAX_NODES:
            return f"n must be at most {MAX_NODES}, got {self.n}"
        if not all(isinstance(k, str) for k in self.config):
            return "config keys must be strings"
        return None


@dataclass(frozen=True)
class UpdateBatchFrame(Frame):
    """One :class:`~repro.dynamic.UpdateBatch` of topology churn to
    ingest.  Answered asynchronously by a :class:`BatchReportFrame`
    whose ``ids`` covers this frame's ``id`` — or immediately by a
    ``queue-full`` error when admission control rejects it."""

    TYPE: ClassVar[str] = "update_batch"
    insert_edges: list[list[int]] = field(default_factory=list)
    delete_edges: list[list[int]] = field(default_factory=list)
    arrivals: list[int] = field(default_factory=list)
    departures: list[int] = field(default_factory=list)

    @property
    def batch(self) -> UpdateBatch:
        """The numpy event object the engine consumes (may raise
        ``ValueError`` for e.g. a node arriving and departing at once —
        the server maps that onto ``bad-payload``)."""
        events = {f.name: getattr(self, f.name) for f in fields(UpdateBatch)}
        return UpdateBatch(**events)

    @classmethod
    def from_batch(cls, batch: UpdateBatch, id: int = 0) -> "UpdateBatchFrame":
        """Wrap an in-memory :class:`UpdateBatch` for the wire."""
        events = {f.name: getattr(batch, f.name).tolist() for f in fields(UpdateBatch)}
        return cls(id=id, **events)


@dataclass(frozen=True)
class QueryColors(Frame):
    """Read the maintained coloring: all n entries (``nodes`` null) or
    the listed subset.  Departed nodes read as -1."""

    TYPE: ClassVar[str] = "query_colors"
    nodes: list[int] | None = None


@dataclass(frozen=True)
class QueryPalette(Frame):
    """Read one node's color and its free palette under the current
    [Δ_t+1] color space (free = not held by any colored neighbor)."""

    TYPE: ClassVar[str] = "query_palette"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "node")
    node: int = 0


@dataclass(frozen=True)
class StatsRequest(Frame):
    """Ask for the service counters (queue depth, applied/coalesced/
    rejected batches, fallbacks, invariants, round/bit totals)."""

    TYPE: ClassVar[str] = "stats"


@dataclass(frozen=True)
class MetricsRequest(Frame):
    """Ask for the Prometheus text exposition of the server's
    :mod:`repro.obs` registry — the same text ``--metrics-port`` serves
    over HTTP, for clients already speaking the framed protocol
    (``repro top`` in daemon mode)."""

    TYPE: ClassVar[str] = "metrics"


@dataclass(frozen=True)
class SnapshotRequest(Frame):
    """Force a snapshot now, to ``path`` or the server's configured
    ``--snapshot-path``."""

    TYPE: ClassVar[str] = "snapshot"
    path: str | None = None


@dataclass(frozen=True)
class Ping(Frame):
    """Liveness probe / idle-timeout heartbeat.  Costs the server nothing
    (answered inline by :class:`Pong`, never queued) and counts as
    session activity: a client that pings inside the server's
    ``--idle-timeout`` window keeps an otherwise quiet connection open."""

    TYPE: ClassVar[str] = "ping"


@dataclass(frozen=True)
class Shutdown(Frame):
    """Stop the service: the server stops accepting work, drains the
    ingest queue, writes a final snapshot when configured, answers
    :class:`Goodbye`, and exits."""

    TYPE: ClassVar[str] = "shutdown"


# -- responses (server → client) ---------------------------------------
@dataclass(frozen=True)
class Welcome(Frame):
    """Successful :class:`Hello`: the negotiated version plus what the
    server already holds (``n`` null until ``load_graph``)."""

    TYPE: ClassVar[str] = "welcome"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "v")
    v: int = PROTOCOL_VERSION
    server: str = ""
    n: int | None = None


@dataclass(frozen=True)
class GraphLoaded(Frame):
    """Successful :class:`LoadGraph`: the installed graph's shape and the
    cost of the initial coloring (``initial`` names which engine paid it:
    ``"pipeline"`` or ``"sharded"``)."""

    TYPE: ClassVar[str] = "graph_loaded"
    REQUIRED: ClassVar[tuple[str, ...]] = (
        "id", "n", "m", "delta", "colors_used", "initial_rounds", "seconds",
    )
    n: int = 0
    m: int = 0
    delta: int = 0
    colors_used: int = 0
    initial_rounds: int = 0
    seconds: float = 0.0
    initial: str = "pipeline"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ColorsReply(Frame):
    """Answer to :class:`QueryColors`: colors aligned with ``nodes``
    (or with 0..n-1 when ``nodes`` is null), plus the two invariant
    bits every read can be checked against."""

    TYPE: ClassVar[str] = "colors"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "proper", "complete")
    nodes: list[int] | None = None
    colors: list[int] = field(default_factory=list)
    proper: bool = True
    complete: bool = True


@dataclass(frozen=True)
class PaletteReply(Frame):
    """Answer to :class:`QueryPalette`."""

    TYPE: ClassVar[str] = "palette"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "node", "color", "num_colors")
    node: int = 0
    color: int = -1
    num_colors: int = 0
    free: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class StatsReply(Frame):
    """Answer to :class:`StatsRequest`: one flat dict of counters
    (docs/PROTOCOL.md lists every key)."""

    TYPE: ClassVar[str] = "stats_report"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "stats")
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsReply(Frame):
    """Answer to :class:`MetricsRequest`: the Prometheus text exposition
    format 0.0.4 payload, verbatim (``''`` when the registry is
    disarmed — never the case for a running daemon)."""

    TYPE: ClassVar[str] = "metrics_report"
    text: str = ""


@dataclass(frozen=True)
class SnapshotSaved(Frame):
    """Answer to :class:`SnapshotRequest`: where the snapshot landed and
    the batch index it captures (restores resume from there)."""

    TYPE: ClassVar[str] = "snapshot_saved"
    REQUIRED: ClassVar[tuple[str, ...]] = ("id", "path", "batch_index", "bytes")
    path: str = ""
    batch_index: int = 0
    bytes: int = 0


@dataclass(frozen=True)
class Pong(Frame):
    """Answer to :class:`Ping`, echoing its ``id`` — receipt proves the
    server's event loop is alive (not just the TCP/unix socket)."""

    TYPE: ClassVar[str] = "pong"


@dataclass(frozen=True)
class Goodbye(Frame):
    """Answer to :class:`Shutdown` — the last frame the server sends."""

    TYPE: ClassVar[str] = "goodbye"


@dataclass(frozen=True)
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
REQUEST_TYPES: dict[str, type[Frame]] = {
    cls.TYPE: cls
    for cls in (
        Hello,
        LoadGraph,
        UpdateBatchFrame,
        QueryColors,
        QueryPalette,
        StatsRequest,
        MetricsRequest,
        SnapshotRequest,
        Ping,
        Shutdown,
    )
}
"""Frames a client may send (the ten verbs of the service)."""

RESPONSE_TYPES: dict[str, type[Frame]] = {
    cls.TYPE: cls
    for cls in (
        Welcome,
        GraphLoaded,
        BatchReportFrame,
        ColorsReply,
        PaletteReply,
        StatsReply,
        MetricsReply,
        SnapshotSaved,
        Pong,
        Goodbye,
        ErrorFrame,
    )
}
"""Frames a server may send (one success shape per verb, plus the pushed
batch report and the error frame)."""

MESSAGE_TYPES: dict[str, type[Frame]] = {**REQUEST_TYPES, **RESPONSE_TYPES}
"""The complete registry — the docs-lint source of truth."""


def _schema(cls: type[Frame]) -> tuple[tuple[str, Callable, bool], ...]:
    """``(name, check, required)`` per field of ``cls``, in wire order.
    A field whose annotation has no check, or a ``REQUIRED`` name that
    is no field, fails here, at import."""
    if not {f.name for f in fields(cls)}.issuperset(cls.REQUIRED):
        raise TypeError(f"{cls.__name__}.REQUIRED names no field: {cls.REQUIRED}")
    out = []
    for f in fields(cls):
        check = _CHECKS.get(f.type.removesuffix(" | None"))
        if check is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no wire check for {f.type!r}")
        out.append((f.name, check, f.name in cls.REQUIRED))
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
