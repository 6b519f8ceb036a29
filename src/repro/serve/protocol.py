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

Validation happens at decode time: :func:`decode_payload` dispatches on
``"type"`` and each frame's ``from_payload`` checks field presence and
types, raising :class:`ProtocolError` with the error code the server
echoes back in an ``error`` frame.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass, field, fields
from typing import BinaryIO, ClassVar

from repro.dynamic.events import UpdateBatch

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
# Payload field validation helpers
# ----------------------------------------------------------------------
def _require(payload: dict, key: str, types: tuple[type, ...], what: str):
    if key not in payload:
        raise ProtocolError("bad-payload", f"{what}: missing field {key!r}")
    value = payload[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        names = "/".join(t.__name__ for t in types)
        raise ProtocolError(
            "bad-payload",
            f"{what}: field {key!r} must be {names}, got {type(value).__name__}",
        )
    return value


def _optional(payload: dict, key: str, types: tuple[type, ...], what: str, default=None):
    if key not in payload or payload[key] is None:
        return default
    return _require(payload, key, types, what)


def _frame_id(payload: dict, what: str) -> int:
    return int(_require(payload, "id", (int,), what))


def _edge_list(payload: dict, key: str, what: str) -> list:
    value = _optional(payload, key, (list,), what, default=[])
    for pair in value:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise ProtocolError(
                "bad-payload", f"{what}: {key!r} entries must be [u, v] int pairs"
            )
    return [list(pair) for pair in value]


def _node_list(payload: dict, key: str, what: str) -> list:
    value = _optional(payload, key, (list,), what, default=[])
    for x in value:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ProtocolError(
                "bad-payload", f"{what}: {key!r} entries must be ints"
            )
    return list(value)


# ----------------------------------------------------------------------
# Frame dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Frame:
    """Base class: a typed wire message.

    Subclasses set ``TYPE`` (the registry key) and implement
    ``to_payload``/``from_payload``.  All fields are plain JSON-safe
    python values — conversions to numpy live at the edges
    (:meth:`UpdateBatchFrame.batch`), so round-tripping a frame through
    :func:`encode_frame`/:func:`decode_payload` is exact equality.
    """

    TYPE: ClassVar[str] = ""
    id: int = 0

    def to_payload(self) -> dict:
        """The JSON object this frame serializes to."""
        out: dict = {"type": self.TYPE}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_payload(cls, payload: dict) -> "Frame":
        return cls(id=_frame_id(payload, cls.TYPE))


# -- requests (client → server) ----------------------------------------
@dataclass(frozen=True)
class Hello(Frame):
    """Session opener; MUST be the first frame on a connection.

    ``versions`` lists every protocol version the client can speak; the
    server answers :class:`Welcome` with its pick, or ``bad-version``.
    """

    TYPE: ClassVar[str] = "hello"
    versions: list = field(default_factory=lambda: [PROTOCOL_VERSION])
    client: str = ""

    @classmethod
    def from_payload(cls, payload: dict) -> "Hello":
        versions = _require(payload, "versions", (list,), cls.TYPE)
        for v in versions:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ProtocolError(
                    "bad-payload", "hello: 'versions' entries must be ints"
                )
        return cls(
            id=_frame_id(payload, cls.TYPE),
            versions=list(versions),
            client=_optional(payload, "client", (str,), cls.TYPE, default=""),
        )


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
    n: int = 0
    edges: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: dict) -> "LoadGraph":
        n = _require(payload, "n", (int,), cls.TYPE)
        if n <= 0:
            raise ProtocolError("bad-payload", "load_graph: n must be positive")
        config = _optional(payload, "config", (dict,), cls.TYPE, default={})
        if not all(isinstance(k, str) for k in config):
            raise ProtocolError(
                "bad-payload", "load_graph: config keys must be strings"
            )
        return cls(
            id=_frame_id(payload, cls.TYPE),
            n=n,
            edges=_edge_list(payload, "edges", cls.TYPE),
            config=dict(config),
        )


@dataclass(frozen=True)
class UpdateBatchFrame(Frame):
    """One :class:`~repro.dynamic.UpdateBatch` of topology churn to
    ingest.  Answered asynchronously by a :class:`BatchReportFrame`
    whose ``ids`` covers this frame's ``id`` — or immediately by a
    ``queue-full`` error when admission control rejects it."""

    TYPE: ClassVar[str] = "update_batch"
    insert_edges: list = field(default_factory=list)
    delete_edges: list = field(default_factory=list)
    arrivals: list = field(default_factory=list)
    departures: list = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: dict) -> "UpdateBatchFrame":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            insert_edges=_edge_list(payload, "insert_edges", cls.TYPE),
            delete_edges=_edge_list(payload, "delete_edges", cls.TYPE),
            arrivals=_node_list(payload, "arrivals", cls.TYPE),
            departures=_node_list(payload, "departures", cls.TYPE),
        )

    @property
    def batch(self) -> UpdateBatch:
        """The numpy event object the engine consumes (may raise
        ``ValueError`` for e.g. a node arriving and departing at once —
        the server maps that onto ``bad-payload``)."""
        return UpdateBatch.from_payload(
            {
                "insert_edges": self.insert_edges,
                "delete_edges": self.delete_edges,
                "arrivals": self.arrivals,
                "departures": self.departures,
            }
        )

    @classmethod
    def from_batch(cls, batch: UpdateBatch, id: int = 0) -> "UpdateBatchFrame":
        """Wrap an in-memory :class:`UpdateBatch` for the wire."""
        p = batch.as_payload()
        return cls(
            id=id,
            insert_edges=p["insert_edges"],
            delete_edges=p["delete_edges"],
            arrivals=p["arrivals"],
            departures=p["departures"],
        )


@dataclass(frozen=True)
class QueryColors(Frame):
    """Read the maintained coloring: all n entries (``nodes`` null) or
    the listed subset.  Departed nodes read as -1."""

    TYPE: ClassVar[str] = "query_colors"
    nodes: list | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryColors":
        nodes = None
        if payload.get("nodes") is not None:
            nodes = _node_list(payload, "nodes", cls.TYPE)
        return cls(id=_frame_id(payload, cls.TYPE), nodes=nodes)


@dataclass(frozen=True)
class QueryPalette(Frame):
    """Read one node's color and its free palette under the current
    [Δ_t+1] color space (free = not held by any colored neighbor)."""

    TYPE: ClassVar[str] = "query_palette"
    node: int = 0

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryPalette":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            node=_require(payload, "node", (int,), cls.TYPE),
        )


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

    @classmethod
    def from_payload(cls, payload: dict) -> "SnapshotRequest":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            path=_optional(payload, "path", (str,), cls.TYPE),
        )


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
    v: int = PROTOCOL_VERSION
    server: str = ""
    n: int | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "Welcome":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            v=_require(payload, "v", (int,), cls.TYPE),
            server=_optional(payload, "server", (str,), cls.TYPE, default=""),
            n=_optional(payload, "n", (int,), cls.TYPE),
        )


@dataclass(frozen=True)
class GraphLoaded(Frame):
    """Successful :class:`LoadGraph`: the installed graph's shape and the
    cost of the initial coloring (``initial`` names which engine paid it:
    ``"pipeline"`` or ``"sharded"``)."""

    TYPE: ClassVar[str] = "graph_loaded"
    n: int = 0
    m: int = 0
    delta: int = 0
    colors_used: int = 0
    initial_rounds: int = 0
    seconds: float = 0.0
    initial: str = "pipeline"

    @classmethod
    def from_payload(cls, payload: dict) -> "GraphLoaded":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            n=_require(payload, "n", (int,), cls.TYPE),
            m=_require(payload, "m", (int,), cls.TYPE),
            delta=_require(payload, "delta", (int,), cls.TYPE),
            colors_used=_require(payload, "colors_used", (int,), cls.TYPE),
            initial_rounds=_require(payload, "initial_rounds", (int,), cls.TYPE),
            seconds=float(_require(payload, "seconds", (int, float), cls.TYPE)),
            initial=_optional(payload, "initial", (str,), cls.TYPE, default="pipeline"),
        )


@dataclass(frozen=True)
class BatchReportFrame(Frame):
    """Pushed after the worker applies one engine batch: the
    :meth:`~repro.dynamic.BatchReport.as_dict` payload, the request ids
    it covers (> 1 when coalesced), and how many requests were merged.
    ``id`` is fixed at -1 — correlation runs through ``ids``."""

    TYPE: ClassVar[str] = "batch_report"
    id: int = -1
    ids: list = field(default_factory=list)
    coalesced: int = 1
    report: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: dict) -> "BatchReportFrame":
        return cls(
            ids=_node_list(payload, "ids", cls.TYPE),
            coalesced=_require(payload, "coalesced", (int,), cls.TYPE),
            report=_require(payload, "report", (dict,), cls.TYPE),
        )


@dataclass(frozen=True)
class ColorsReply(Frame):
    """Answer to :class:`QueryColors`: colors aligned with ``nodes``
    (or with 0..n-1 when ``nodes`` is null), plus the two invariant
    bits every read can be checked against."""

    TYPE: ClassVar[str] = "colors"
    nodes: list | None = None
    colors: list = field(default_factory=list)
    proper: bool = True
    complete: bool = True

    @classmethod
    def from_payload(cls, payload: dict) -> "ColorsReply":
        nodes = None
        if payload.get("nodes") is not None:
            nodes = _node_list(payload, "nodes", cls.TYPE)
        return cls(
            id=_frame_id(payload, cls.TYPE),
            nodes=nodes,
            colors=_node_list(payload, "colors", cls.TYPE),
            proper=bool(_require(payload, "proper", (bool,), cls.TYPE)),
            complete=bool(_require(payload, "complete", (bool,), cls.TYPE)),
        )


@dataclass(frozen=True)
class PaletteReply(Frame):
    """Answer to :class:`QueryPalette`."""

    TYPE: ClassVar[str] = "palette"
    node: int = 0
    color: int = -1
    num_colors: int = 0
    free: list = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: dict) -> "PaletteReply":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            node=_require(payload, "node", (int,), cls.TYPE),
            color=_require(payload, "color", (int,), cls.TYPE),
            num_colors=_require(payload, "num_colors", (int,), cls.TYPE),
            free=_node_list(payload, "free", cls.TYPE),
        )


@dataclass(frozen=True)
class StatsReply(Frame):
    """Answer to :class:`StatsRequest`: one flat dict of counters
    (docs/PROTOCOL.md lists every key)."""

    TYPE: ClassVar[str] = "stats_report"
    stats: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: dict) -> "StatsReply":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            stats=_require(payload, "stats", (dict,), cls.TYPE),
        )


@dataclass(frozen=True)
class MetricsReply(Frame):
    """Answer to :class:`MetricsRequest`: the Prometheus text exposition
    format 0.0.4 payload, verbatim (``''`` when the registry is
    disarmed — never the case for a running daemon)."""

    TYPE: ClassVar[str] = "metrics_report"
    text: str = ""

    @classmethod
    def from_payload(cls, payload: dict) -> "MetricsReply":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            text=_optional(payload, "text", (str,), cls.TYPE, default=""),
        )


@dataclass(frozen=True)
class SnapshotSaved(Frame):
    """Answer to :class:`SnapshotRequest`: where the snapshot landed and
    the batch index it captures (restores resume from there)."""

    TYPE: ClassVar[str] = "snapshot_saved"
    path: str = ""
    batch_index: int = 0
    bytes: int = 0

    @classmethod
    def from_payload(cls, payload: dict) -> "SnapshotSaved":
        return cls(
            id=_frame_id(payload, cls.TYPE),
            path=_require(payload, "path", (str,), cls.TYPE),
            batch_index=_require(payload, "batch_index", (int,), cls.TYPE),
            bytes=_require(payload, "bytes", (int,), cls.TYPE),
        )


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
    id: int | None = None
    code: str = "internal"
    message: str = ""
    retry_after: float | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "ErrorFrame":
        code = _require(payload, "code", (str,), cls.TYPE)
        if code not in ERROR_CODES:
            raise ProtocolError("bad-payload", f"error: unknown code {code!r}")
        id_ = payload.get("id")
        if id_ is not None and (not isinstance(id_, int) or isinstance(id_, bool)):
            raise ProtocolError("bad-payload", "error: 'id' must be int or null")
        retry = payload.get("retry_after")
        if retry is not None and not isinstance(retry, (int, float)):
            raise ProtocolError("bad-payload", "error: 'retry_after' must be a number")
        return cls(
            id=id_,
            code=code,
            message=_optional(payload, "message", (str,), cls.TYPE, default=""),
            retry_after=float(retry) if retry is not None else None,
        )

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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-frame", f"frame body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("bad-frame", "frame body must be a JSON object")
    kind = payload.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("bad-payload", "frame is missing the 'type' field")
    cls = MESSAGE_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(
            "bad-type",
            f"unknown message type {kind!r}",
            id=payload.get("id") if isinstance(payload.get("id"), int) else None,
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
