"""The ``repro serve`` daemon: asyncio sessions around the dynamic engine.

Architecture (DESIGN.md §8):

* **single-writer event loop** — one engine, one worker coroutine that
  applies batches; queries and ingestion run on the same loop, so every
  read observes a between-batches state and no lock ever guards the
  numpy arrays.  An ``apply_batch`` call blocks the loop for its
  duration; the admission control *in front* of it is what bounds the
  damage a slow apply can do.
* **bounded ingestion** — ``update_batch`` requests land in an
  ``asyncio.Queue`` of depth ``queue_max`` via ``put_nowait``:
  the reader never blocks on the engine.  A full queue rejects with a
  ``queue-full`` error frame carrying ``retry_after`` — backpressure is
  explicit and client-visible, not hidden in TCP buffers.
* **coalescing** — the worker drains up to ``coalesce_max``
  queued batches per cycle and merges them
  (:func:`~repro.serve.coalesce.coalesce_batches`) so a burst pays one
  detect/repair instead of k.  Each applied engine batch streams one
  :class:`~repro.serve.protocol.BatchReportFrame` back to every session
  that contributed to it.
* **snapshots** — every ``snapshot_every`` applied batches (and
  on clean shutdown) the engine state goes to ``--snapshot-path``
  atomically; ``--restore`` warm-starts from one.  Crash loss is
  bounded by the cadence; restored replay is byte-identical
  (:mod:`repro.serve.snapshot`).

Failure model: the server is single-tenant (one graph; ``load_graph``
replaces it after draining the queue) and applies each accepted batch
exactly once, in admission order.  A rejected batch was *not* applied —
the client owns the retry.  On a crash, accepted-but-unapplied batches
die with the queue; clients that never got a ``batch_report`` for an id
must treat it as lost and resubmit after restore.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import __version__, obs
from repro.config import ColoringConfig, check_setting
from repro.dynamic.engine import DynamicColoring
from repro.faults import plan as faults
from repro.serve import protocol as wire
from repro.serve.coalesce import coalesce_batches
from repro.serve.snapshot import (
    SnapshotInfo,
    restore_engine,
    save_snapshot,
    sweep_stale_tmp,
)
from repro.shard.engine import ShardedColoring

__all__ = ["ColoringServer"]

_SERVER_NAME = f"repro-serve/{__version__}"

_RETRY_AFTER_S = 0.05
"""The ``retry_after`` hint (seconds) carried by ``queue-full`` error
frames — the client-visible half of the admission-control contract.
Clients should wait at least this long before resubmitting."""


@dataclass
class _QueueItem:
    """One admitted ``update_batch``: who sent it, its correlation id,
    and the parsed event object."""

    session: "_Session"
    request_id: int
    batch: object  # UpdateBatch


class _Session:
    """One client connection: framed reader/writer plus a write lock (the
    worker and the handler both push frames down the same socket)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.hello_done = False
        self._lock = asyncio.Lock()

    async def send(self, frame: wire.Frame) -> None:
        """Serialize and flush one frame; closed peers are ignored (the
        handler notices EOF on its own)."""
        async with self._lock:
            if self.writer.is_closing():
                return
            try:
                self.writer.write(wire.encode_frame(frame))
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    async def close(self) -> None:
        with contextlib.suppress(Exception):
            self.writer.close()
            await self.writer.wait_closed()


class ColoringServer:
    """The streaming coloring service (tentpole of DESIGN.md §8).

    Parameters
    ----------
    config:
        Base :class:`ColoringConfig`: the default engine config
        ``load_graph`` overrides merge into.
    socket_path / host+port:
        Exactly one listening endpoint: a unix socket path, or a TCP
        port (default host 127.0.0.1 — the protocol has no auth; see
        docs/RUNBOOK.md before binding wider).
    snapshot_path:
        Where periodic/final/``snapshot``-requested snapshots go when
        the request doesn't name a path.
    restore:
        Snapshot to warm-start from: the engine (graph + colors + batch
        index + config) is rebuilt before the first connection, and its
        config replaces ``config``.  A torn current snapshot falls back
        to rotated generations
        (:func:`~repro.serve.snapshot.restore_engine`).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` armed at ``start()`` —
        the chaos harness's hook into the daemon's injection sites
        (``serve.snapshot.write``, ``serve.connection``).  ``None`` (the
        default) leaves every site a no-op.
    metrics_port:
        Optional loopback TCP port serving the Prometheus text
        exposition of the :mod:`repro.obs` registry over plain HTTP
        (``GET /metrics`` — any path answers).  The same text is
        available in-protocol via the ``metrics`` verb; this port
        exists for scrapers that speak HTTP, not our framing.

    The daemon's own settings, one ``repro serve`` flag each:

    queue_max:
        Admission control: the bounded depth of the ingest queue, in
        ``update_batch`` requests.  A full queue *rejects* the batch
        with a ``queue-full`` error frame carrying ``retry_after``; it
        never blocks the socket reader (docs/PROTOCOL.md
        §Backpressure).
    coalesce_max:
        How many queued ``update_batch`` requests the worker drains and
        merges into one :class:`~repro.dynamic.UpdateBatch`
        (:func:`~repro.serve.coalesce.coalesce_batches`) before paying
        one detect/repair cycle.  1 applies every request on its own,
        as bit-exact equivalence with an in-process run needs.
    snapshot_every:
        Write a snapshot after every N applied batches; 0 disables
        periodic snapshots (a clean shutdown still writes one when
        ``snapshot_path`` is set).
    snapshot_keep:
        Snapshot generations kept on disk (the current file plus
        ``.1``, ``.2``, … predecessors); restore falls back through
        them.  1 keeps only the current file.
    idle_timeout_s:
        Close a session that sends no frame for this many seconds
        (``ping`` keeps one alive); 0 disables the timeout.
    """

    def __init__(
        self,
        config: ColoringConfig | None = None,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        snapshot_path: str | None = None,
        restore: str | None = None,
        fault_plan: "faults.FaultPlan | None" = None,
        metrics_port: int | None = None,
        queue_max: int = 64,
        coalesce_max: int = 8,
        snapshot_every: int = 0,
        snapshot_keep: int = 2,
        idle_timeout_s: float = 0.0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path / port is required")
        check_setting("queue_max", queue_max, "int", least=1)
        check_setting("coalesce_max", coalesce_max, "int", least=1)
        check_setting("snapshot_every", snapshot_every, "int", least=0)
        check_setting("snapshot_keep", snapshot_keep, "int", least=1)
        check_setting("idle_timeout_s", idle_timeout_s, "float", least=0)
        self.cfg = config or ColoringConfig.practical()
        # Plain ints and floats: ``stats`` sends them as JSON.
        self.coalesce_max = int(coalesce_max)
        self.snapshot_every = int(snapshot_every)
        self.snapshot_keep = int(snapshot_keep)
        self.idle_timeout_s = float(idle_timeout_s)
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.snapshot_path = snapshot_path
        self.fault_plan = fault_plan
        self.metrics_port = metrics_port
        self._metrics_server: asyncio.base_events.Server | None = None

        self.engine: DynamicColoring | None = None
        self.initial_mode = "pipeline"
        self._queue: asyncio.Queue[_QueueItem] = asyncio.Queue(maxsize=int(queue_max))
        self._sessions: set[_Session] = set()
        self._server: asyncio.base_events.Server | None = None
        self._worker: asyncio.Task | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = time.monotonic()

        # Counters surfaced by the ``stats`` verb.
        self.batches_applied = 0
        self.coalesced_batches = 0
        self.rejected_batches = 0
        self.fallbacks = 0
        self.snapshots_written = 0
        self.last_snapshot_index = -1
        self.snapshot_failures = 0
        self.idle_disconnects = 0
        self.queue_high_water = 0
        self.frame_counts: dict[str, int] = {}
        self.last_snapshot_at: float | None = None  # time.monotonic()
        self.last_snapshot_seconds = 0.0

        if restore is not None:
            self.engine = restore_engine(restore)
            self.cfg = self.engine.cfg
            self.initial_mode = "restored"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the endpoint and start the ingest worker."""
        self._stop_event = asyncio.Event()
        # A daemon is what the metrics registry exists for: arm it
        # unconditionally (tracing is armed, if at all, by the caller).
        obs.enable(tracing=False, metrics=True)
        if self.fault_plan is not None:
            faults.arm(self.fault_plan)
        if self.snapshot_path:
            swept = sweep_stale_tmp(self.snapshot_path)
            if swept:
                print(
                    f"{_SERVER_NAME} swept {len(swept)} stale snapshot "
                    f"tmp file(s): {', '.join(swept)}",
                    file=sys.stderr,
                    flush=True,
                )
        if self.socket_path is not None:
            path = Path(self.socket_path)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(path)
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port
            )
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_scrape,
                host="127.0.0.1",
                port=self.metrics_port,
            )
        self._worker = asyncio.create_task(self._worker_loop())

    async def _handle_metrics_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1 responder for ``--metrics-port``: read the
        request head, answer the Prometheus exposition, close.  No
        routing, no keep-alive — exactly what a scraper needs."""
        try:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.LimitOverrunError):
            pass
        body = self.metrics_text().encode()
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n"
        )
        with contextlib.suppress(ConnectionError):
            writer.write(head + body)
            await writer.drain()
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()

    def metrics_text(self) -> str:
        """Prometheus text exposition: live server gauges refreshed into
        the :mod:`repro.obs` registry, then rendered.  Shared by the
        ``metrics`` verb and the ``--metrics-port`` scrape endpoint."""
        obs.gauge_set("repro_serve_queue_depth", self._queue.qsize())
        obs.gauge_set("repro_serve_sessions", len(self._sessions))
        obs.gauge_set(
            "repro_serve_uptime_seconds",
            round(time.monotonic() - self._started, 3),
        )
        return obs.render_metrics()

    @property
    def endpoint(self) -> str:
        """Human-readable listening address (for logs and the ready line)."""
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    async def run_until_stopped(self, install_signals: bool = True) -> None:
        """``start()`` + serve until ``shutdown`` (or SIGINT/SIGTERM),
        then drain, snapshot and tear down — the CLI entry point."""
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(sig, self.request_stop)
        print(f"{_SERVER_NAME} listening on {self.endpoint}", file=sys.stderr, flush=True)
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._teardown()

    def request_stop(self) -> None:
        """Flag the server to stop (idempotent; safe from signal handlers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def _teardown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if self._worker is not None:
            await self._drain()
            self._worker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._worker
        if self.snapshot_path and self.engine is not None:
            self._write_snapshot(self.snapshot_path)
        for session in list(self._sessions):
            await session.close()
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                Path(self.socket_path).unlink()
        print(f"{_SERVER_NAME} clean shutdown", file=sys.stderr, flush=True)

    async def _drain(self) -> None:
        """Wait until every admitted batch has been applied."""
        await self._queue.join()

    # ------------------------------------------------------------------
    # The apply worker (single writer)
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            items = [await self._queue.get()]
            while len(items) < self.coalesce_max:
                try:
                    items.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._apply(items)
            finally:
                for _ in items:
                    self._queue.task_done()

    async def _apply(self, items: list[_QueueItem]) -> None:
        engine = self.engine
        assert engine is not None
        batches = [item.batch for item in items]
        t_apply = time.perf_counter()
        try:
            batch = coalesce_batches(engine.net, batches)
            report = engine.apply_batch(batch)
        except Exception as exc:  # keep serving; the batch is lost
            frame = wire.ErrorFrame(
                id=None, code="internal", message=f"apply failed: {exc!r}"
            )
            for session in {item.session for item in items}:
                await session.send(frame)
            return
        self.batches_applied += 1
        self.coalesced_batches += len(items) - 1
        if report.mode == "fallback":
            self.fallbacks += 1
        obs.count("repro_serve_batches_applied_total")
        obs.count("repro_serve_batches_coalesced_total", len(items) - 1)
        obs.observe(
            "repro_serve_apply_us", (time.perf_counter() - t_apply) * 1e6
        )
        obs.gauge_set("repro_serve_queue_depth", self._queue.qsize())
        frame = wire.BatchReportFrame(
            ids=[item.request_id for item in items],
            coalesced=len(items),
            report=report.as_dict(),
        )
        for session in {item.session for item in items}:
            await session.send(frame)
        every = self.snapshot_every
        if every > 0 and self.snapshot_path and self.batches_applied % every == 0:
            # A failed *periodic* snapshot (disk trouble, injected torn
            # write) must not take the service down: the engine state is
            # intact, only recovery freshness suffers.  Note it and keep
            # serving; clean shutdown and explicit `snapshot` requests
            # still surface their own failures.
            try:
                self._write_snapshot(self.snapshot_path)
            except (faults.FaultInjected, OSError, ValueError) as exc:
                self.snapshot_failures += 1
                print(
                    f"{_SERVER_NAME} periodic snapshot failed: {exc!r}",
                    file=sys.stderr,
                    flush=True,
                )

    def _write_snapshot(self, path: str) -> SnapshotInfo:
        """Save the engine to ``path`` and record it in the snapshot
        stats and metrics; every snapshot the daemon writes goes here."""
        assert self.engine is not None
        t0 = time.perf_counter()
        info = save_snapshot(self.engine, path, keep=self.snapshot_keep)
        self.snapshots_written += 1
        self.last_snapshot_index = info.batch_index
        self.last_snapshot_seconds = time.perf_counter() - t0
        self.last_snapshot_at = time.monotonic()
        obs.count("repro_serve_snapshots_total")
        obs.observe("repro_serve_snapshot_us", self.last_snapshot_seconds * 1e6)
        return info

    # ------------------------------------------------------------------
    # Per-connection handler
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(reader, writer)
        self._sessions.add(session)
        try:
            while True:
                try:
                    frame = await asyncio.wait_for(
                        wire.read_frame_async(reader),
                        timeout=self.idle_timeout_s or None,
                    )
                except asyncio.TimeoutError:
                    # Quiet client past the idle window: reclaim the
                    # session (pings count as activity — see `ping`).
                    self.idle_disconnects += 1
                    break
                except wire.ProtocolError as exc:
                    await session.send(
                        wire.ErrorFrame(id=exc.id, code=exc.code, message=exc.message)
                    )
                    if exc.code in ("bad-frame", "frame-too-large"):
                        break  # framing lost; cannot resynchronize
                    continue
                if frame is None:
                    break
                try:
                    # Chaos site: an armed `serve.connection` fault drops
                    # the session right here (mid-conversation hangup).
                    faults.inject("serve.connection", frame_type=frame.TYPE)
                except faults.FaultInjected:
                    break
                try:
                    done = await self._dispatch(session, frame)
                except wire.ProtocolError as exc:
                    await session.send(
                        wire.ErrorFrame(
                            id=exc.id if exc.id is not None else frame.id,
                            code=exc.code,
                            message=exc.message,
                            retry_after=exc.retry_after,
                        )
                    )
                    continue
                except Exception as exc:
                    await session.send(
                        wire.ErrorFrame(
                            id=frame.id, code="internal", message=repr(exc)
                        )
                    )
                    continue
                if done:
                    break
        finally:
            self._sessions.discard(session)
            await session.close()

    async def _dispatch(self, session: _Session, frame: wire.Frame) -> bool:
        """Handle one request frame; returns True when the connection (or
        the whole server, for ``shutdown``) should wind down."""
        self.frame_counts[frame.TYPE] = self.frame_counts.get(frame.TYPE, 0) + 1
        obs.count("repro_serve_frames_total", verb=frame.TYPE)
        if isinstance(frame, wire.Hello):
            common = set(frame.versions) & {wire.PROTOCOL_VERSION}
            if not common:
                raise wire.ProtocolError(
                    "bad-version",
                    f"server speaks version {wire.PROTOCOL_VERSION}, "
                    f"client offered {frame.versions}",
                    id=frame.id,
                )
            session.hello_done = True
            await session.send(
                wire.Welcome(
                    id=frame.id,
                    v=max(common),
                    server=_SERVER_NAME,
                    n=None if self.engine is None else self.engine.n,
                )
            )
            return False
        if not session.hello_done:
            raise wire.ProtocolError(
                "hello-required", "first frame must be 'hello'", id=frame.id
            )

        if isinstance(frame, wire.LoadGraph):
            await self._handle_load_graph(session, frame)
            return False
        if isinstance(frame, wire.UpdateBatchFrame):
            self._handle_update_batch(session, frame)
            return False
        if isinstance(frame, wire.QueryColors):
            await session.send(self._handle_query_colors(frame))
            return False
        if isinstance(frame, wire.QueryPalette):
            await session.send(self._handle_query_palette(frame))
            return False
        if isinstance(frame, wire.Ping):
            await session.send(wire.Pong(id=frame.id))
            return False
        if isinstance(frame, wire.StatsRequest):
            await session.send(wire.StatsReply(id=frame.id, stats=self.stats()))
            return False
        if isinstance(frame, wire.MetricsRequest):
            await session.send(
                wire.MetricsReply(id=frame.id, text=self.metrics_text())
            )
            return False
        if isinstance(frame, wire.SnapshotRequest):
            await session.send(self._handle_snapshot(frame))
            return False
        if isinstance(frame, wire.Shutdown):
            await self._drain()
            if self.snapshot_path and self.engine is not None:
                self._write_snapshot(self.snapshot_path)
            await session.send(wire.Goodbye(id=frame.id))
            self.request_stop()
            return True
        # A well-formed *response* type sent by a client.
        raise wire.ProtocolError(
            "bad-type", f"{frame.TYPE!r} is not a request", id=frame.id
        )

    # ------------------------------------------------------------------
    # Verb implementations
    # ------------------------------------------------------------------
    def _engine_or_raise(self, request_id: int) -> DynamicColoring:
        if self.engine is None:
            raise wire.ProtocolError(
                "no-graph", "no graph loaded (send 'load_graph' first)",
                id=request_id,
            )
        return self.engine

    async def _handle_load_graph(
        self, session: _Session, frame: wire.LoadGraph
    ) -> None:
        overrides = dict(frame.config)
        # "initial" is a reserved protocol key, not a ColoringConfig
        # field: it picks which engine pays for the initial coloring the
        # maintenance engine adopts.
        initial = overrides.pop("initial", None)
        if initial is None:
            initial = "pipeline"
        if initial not in ("pipeline", "sharded"):
            raise wire.ProtocolError(
                "bad-payload",
                f"load_graph: 'initial' must be 'pipeline' or 'sharded', "
                f"got {initial!r}",
                id=frame.id,
            )
        known = {f.name for f in dataclasses.fields(ColoringConfig)}
        unknown = set(overrides) - known
        if unknown:
            raise wire.ProtocolError(
                "bad-payload",
                f"load_graph: unknown config fields {sorted(unknown)}",
                id=frame.id,
            )
        try:
            cfg = dataclasses.replace(self.cfg, **overrides)
        except ValueError as exc:
            raise wire.ProtocolError(
                "bad-payload", f"load_graph: {exc}", id=frame.id
            ) from exc
        edges = frame.edges
        if edges.size and (edges.min() < 0 or edges.max() >= frame.n):
            raise wire.ProtocolError(
                "bad-payload", "load_graph: edge endpoint out of range", id=frame.id
            )
        # Pending batches belong to the engine being replaced: flush them
        # first so every admitted batch is applied exactly once.
        if self.engine is not None:
            await self._drain()
        t0 = time.perf_counter()
        if initial == "sharded":
            sharded = ShardedColoring((frame.n, edges), cfg).run()
            engine = DynamicColoring(
                (frame.n, edges), cfg, initial_colors=sharded.colors
            )
            initial_rounds = int(sharded.rounds_total)
            self.initial_mode = "sharded"
        else:
            engine = DynamicColoring((frame.n, edges), cfg)
            initial_rounds = int(engine.initial_rounds)
            self.initial_mode = "pipeline"
        self.engine = engine
        self.batches_applied = 0
        self.coalesced_batches = 0
        self.rejected_batches = 0
        self.fallbacks = 0
        await session.send(
            wire.GraphLoaded(
                id=frame.id,
                n=engine.n,
                m=int(engine.net.m),
                delta=int(engine.net.delta),
                colors_used=engine.colors_used(),
                initial_rounds=initial_rounds,
                seconds=time.perf_counter() - t0,
                initial=self.initial_mode,
            )
        )

    def _handle_update_batch(
        self, session: _Session, frame: wire.UpdateBatchFrame
    ) -> None:
        engine = self._engine_or_raise(frame.id)
        try:
            batch = frame.batch
            batch.validate(engine.n)
        except ValueError as exc:
            raise wire.ProtocolError("bad-payload", str(exc), id=frame.id) from exc
        try:
            self._queue.put_nowait(_QueueItem(session, frame.id, batch))
            depth = self._queue.qsize()
            if depth > self.queue_high_water:
                self.queue_high_water = depth
                obs.gauge_set("repro_serve_queue_high_water", depth)
        except asyncio.QueueFull:
            self.rejected_batches += 1
            obs.count("repro_serve_batches_rejected_total")
            raise wire.ProtocolError(
                "queue-full",
                f"ingest queue at capacity ({self._queue.maxsize})",
                id=frame.id,
                retry_after=_RETRY_AFTER_S,
            ) from None

    def _handle_query_colors(self, frame: wire.QueryColors) -> wire.Frame:
        engine = self._engine_or_raise(frame.id)
        nodes = frame.nodes
        if nodes is None:
            # A copy: the reply is encoded after an await, and a batch
            # applied meanwhile rewrites the engine's array in place.
            colors = engine.colors.copy()
        else:
            if nodes.size and (nodes.min() < 0 or nodes.max() >= engine.n):
                raise wire.ProtocolError(
                    "bad-payload", "query_colors: node id out of range", id=frame.id
                )
            colors = engine.colors[nodes]
        return wire.ColorsReply(
            id=frame.id,
            nodes=nodes,
            colors=colors,
            # The last audit's verdict: only batches change colors, so it
            # still holds; ``stats`` runs the full scan on demand.
            proper=engine.audited_proper,
            complete=engine.is_complete(),
        )

    def _handle_query_palette(self, frame: wire.QueryPalette) -> wire.Frame:
        engine = self._engine_or_raise(frame.id)
        if not 0 <= frame.node < engine.n:
            raise wire.ProtocolError(
                "bad-payload", f"query_palette: node {frame.node} out of range",
                id=frame.id,
            )
        num_colors = engine.net.delta + 1
        neigh = engine.net.neighbors(frame.node)
        held = engine.colors[neigh]
        held = held[(held >= 0) & (held < num_colors)]
        free = np.setdiff1d(np.arange(num_colors, dtype=np.int64), held)
        return wire.PaletteReply(
            id=frame.id,
            node=frame.node,
            color=int(engine.colors[frame.node]),
            num_colors=num_colors,
            free=free,
        )

    def _handle_snapshot(self, frame: wire.SnapshotRequest) -> wire.Frame:
        self._engine_or_raise(frame.id)
        path = frame.path or self.snapshot_path
        if not path:
            raise wire.ProtocolError(
                "snapshot-failed",
                "no path: pass one in the request or start with --snapshot-path",
                id=frame.id,
            )
        try:
            info = self._write_snapshot(path)
        except (OSError, faults.FaultInjected) as exc:
            raise wire.ProtocolError(
                "snapshot-failed", f"cannot write {path}: {exc}", id=frame.id
            ) from exc
        return wire.SnapshotSaved(
            id=frame.id,
            path=info.path,
            batch_index=info.batch_index,
            bytes=info.bytes,
        )

    def stats(self) -> dict:
        """The ``stats_report`` payload (docs/PROTOCOL.md §stats)."""
        out = {
            "server": _SERVER_NAME,
            "protocol_version": wire.PROTOCOL_VERSION,
            "endpoint": self.endpoint,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "graph_loaded": self.engine is not None,
            "initial": self.initial_mode,
            "queue_depth": self._queue.qsize(),
            "queue_max": self._queue.maxsize,
            "coalesce_max": self.coalesce_max,
            "snapshot_every": self.snapshot_every,
            "snapshot_keep": self.snapshot_keep,
            "idle_timeout_s": self.idle_timeout_s,
            "batches_applied": self.batches_applied,
            "coalesced_batches": self.coalesced_batches,
            "rejected_batches": self.rejected_batches,
            "fallbacks": self.fallbacks,
            "snapshots_written": self.snapshots_written,
            "last_snapshot_index": self.last_snapshot_index,
            "snapshot_failures": self.snapshot_failures,
            "idle_disconnects": self.idle_disconnects,
            "fault_plan": None if self.fault_plan is None else self.fault_plan.name,
            # Observability enrichment (PROTOCOL.md 1.4.0).
            "queue_depth_high_water": self.queue_high_water,
            "coalesce_ratio": (
                round(
                    (self.batches_applied + self.coalesced_batches)
                    / self.batches_applied,
                    4,
                )
                if self.batches_applied
                else None
            ),
            "snapshot_generation": self.snapshots_written,
            "snapshot_age_s": (
                None
                if self.last_snapshot_at is None
                else round(time.monotonic() - self.last_snapshot_at, 3)
            ),
            "last_snapshot_seconds": round(self.last_snapshot_seconds, 6),
            "frames": dict(sorted(self.frame_counts.items())),
        }
        engine = self.engine
        if engine is not None:
            metrics = engine.net.metrics
            out.update(
                {
                    "n": engine.n,
                    "active": int(engine.active.sum()),
                    "m": int(engine.net.m),
                    "delta": int(engine.net.delta),
                    "colors_used": engine.colors_used(),
                    "batch_index": engine.batch_index,
                    "proper": engine.is_proper(),
                    "complete": engine.is_complete(),
                    "rounds_total": int(metrics.total_rounds),
                    "bits_total": int(metrics.total_bits),
                }
            )
        return out
