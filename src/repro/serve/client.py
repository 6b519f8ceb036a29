"""Blocking client for the ``repro serve`` protocol.

:class:`ServeClient` is the reference consumer of docs/PROTOCOL.md —
the CLI, the tests and ``examples/streaming_demo.py`` all talk to the
daemon through it.  It is deliberately synchronous (a socket plus a
buffered file object): the protocol is request/response per connection
except for the pushed ``batch_report`` frames, which the client stashes
in :attr:`reports` as they interleave with replies.

Error frames surface as :class:`~repro.serve.protocol.ProtocolError`
(``exc.code``/``exc.retry_after`` carry the wire fields), except inside
:meth:`update_batch`'s retry loop, which honors the ``queue-full`` →
``retry_after`` backpressure contract for you.

Both retry loops — connect (racing a booting daemon) and ``queue-full``
resubmission — wait with **capped exponential backoff plus deterministic
jitter** (:func:`_backoff_delay`): waits grow geometrically so a dead or
saturated server is not hammered, and the jitter (a pure hash of the
attempt number and a caller key) decorrelates clients without making
tests flaky.  Exhaustion raises the typed :class:`RetriesExhausted`
carrying how many attempts were made and how long was spent waiting.
"""

from __future__ import annotations

import hashlib
import socket
import time
from types import TracebackType

from repro.dynamic.events import UpdateBatch
from repro.serve import protocol as wire

__all__ = ["ServeClient", "RetriesExhausted", "connect"]


class RetriesExhausted(wire.ProtocolError):
    """A client retry loop gave up: every attempt failed (connect) or was
    rejected (``queue-full``).  Subclasses :class:`ProtocolError` so
    existing ``except ProtocolError`` handlers keep working; adds the
    retry ledger — ``attempts`` made and ``total_wait`` seconds slept."""

    def __init__(
        self, code: str, message: str, *, attempts: int, total_wait: float
    ) -> None:
        super().__init__(code, message)
        self.attempts = attempts
        self.total_wait = total_wait


def _backoff_delay(
    base: float, cap: float, attempt: int, *key: object
) -> float:
    """The wait before retry number ``attempt`` (0-based):
    ``min(cap, base·2^attempt) · u`` with jitter ``u ∈ [0.5, 1.0)``
    derived by hashing ``(attempt, *key)`` — deterministic for a given
    caller (reproducible tests) yet decorrelated across callers that
    pass distinct keys."""
    material = "\x1f".join(str(k) for k in (attempt, *key)).encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    u = 0.5 + (int.from_bytes(digest, "big") % 4096) / 8192.0
    return min(float(cap), float(base) * (2.0 ** attempt)) * u


def _open(
    socket_path: str | None, host: str, port: int | None, timeout: float
) -> socket.socket:
    """One connect attempt; a socket whose connect fails is closed."""
    if socket_path is None:
        return socket.create_connection((host, port), timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(socket_path)
    except OSError:
        sock.close()
        raise
    return sock


class ServeClient:
    """One connection to a coloring server.

    Parameters
    ----------
    socket_path / host+port:
        The server endpoint — exactly one of unix path or TCP port.
    timeout:
        Socket timeout in seconds for connect and each read.
    retries / retry_delay:
        Connection attempts while the daemon boots (the CLI and the
        demo spawn the server as a subprocess and race its bind).
        ``retry_delay`` is the backoff *base*: waits double per attempt
        up to a 1-second cap, with deterministic jitter
        (:func:`_backoff_delay`).

    Use as a context manager; :meth:`hello` (version negotiation) runs
    automatically on entry::

        with ServeClient(socket_path=p) as c:
            c.load_graph(n, edges, seed=7)
            report = c.update_batch(batch)
    """

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float = 60.0,
        retries: int = 50,
        retry_delay: float = 0.1,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path / port is required")
        last: Exception | None = None
        attempts = max(1, retries)
        total_wait = 0.0
        endpoint = socket_path if socket_path is not None else f"{host}:{port}"
        for attempt in range(attempts):
            try:
                self.sock = _open(socket_path, host, port, timeout)
                break
            except OSError as exc:
                last = exc
                if attempt + 1 < attempts:
                    delay = _backoff_delay(retry_delay, 1.0, attempt, "connect", endpoint)
                    total_wait += delay
                    time.sleep(delay)
        else:
            raise ConnectionError(
                f"cannot reach server after {attempts} attempt(s) "
                f"({total_wait:.2f}s waiting): {last}"
            ) from last
        self.fp = self.sock.makefile("rwb")
        self.reports: list[wire.BatchReportFrame] = []
        """Pushed ``batch_report`` frames, in arrival order."""
        self.welcome: wire.Welcome | None = None
        self._next_id = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send(self, frame: wire.Frame) -> None:
        """Fire one frame without waiting for anything back."""
        wire.write_frame(self.fp, frame)

    def recv(self) -> wire.Frame | None:
        """Read one frame (``None`` on clean EOF).  Does *not* filter
        pushed reports — most callers want :meth:`_rpc` instead."""
        return wire.read_frame(self.fp)

    def _rpc(self, frame: wire.Frame) -> wire.Frame:
        """Send ``frame``, then read until its response arrives, stashing
        any interleaved ``batch_report`` pushes.  Error frames raise."""
        self.send(frame)
        return self._wait_reply(frame.id)

    def _wait_reply(self, request_id: int) -> wire.Frame:
        while True:
            reply = self.recv()
            if reply is None:
                raise ConnectionError("server closed the connection mid-request")
            if isinstance(reply, wire.BatchReportFrame):
                self.reports.append(reply)
                continue
            if isinstance(reply, wire.ErrorFrame):
                raise reply.to_exception()
            if reply.id != request_id:
                raise wire.ProtocolError(
                    "bad-payload",
                    f"response id {reply.id} does not match request {request_id}",
                )
            return reply

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def hello(self, client: str = "repro-client") -> wire.Welcome:
        """Negotiate the protocol version (must precede everything else)."""
        reply = self._rpc(
            wire.Hello(
                id=self._fresh_id(),
                versions=[wire.PROTOCOL_VERSION],
                client=client,
            )
        )
        assert isinstance(reply, wire.Welcome)
        self.welcome = reply
        return reply

    def load_graph(self, n: int, edges, **config) -> wire.GraphLoaded:
        """Install the graph: ``edges`` is a (m, 2) int array (or anything
        ``np.asarray`` makes one of); keyword args become config
        overrides (``seed=...``, ``initial="sharded"``, any ColoringConfig
        field)."""
        reply = self._rpc(
            wire.LoadGraph(id=self._fresh_id(), n=int(n),
                           edges=() if edges is None else edges, config=config)
        )
        assert isinstance(reply, wire.GraphLoaded)
        return reply

    def submit_batch(self, batch: UpdateBatch) -> int:
        """Fire-and-forget one batch; returns its request id.  The matching
        report (or ``queue-full`` error) arrives on a later read —
        pipelined ingestion, used by the backpressure test."""
        request_id = self._fresh_id()
        self.send(wire.UpdateBatchFrame.from_batch(batch, id=request_id))
        return request_id

    def update_batch(
        self,
        batch: UpdateBatch,
        *,
        wait: bool = True,
        max_retries: int = 100,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> wire.BatchReportFrame | int:
        """Submit one batch, honoring backpressure.

        With ``wait=True`` (default) blocks until the ``batch_report``
        covering this request arrives and returns it; on ``queue-full``
        waits and resubmits, up to ``max_retries`` times.  Each wait is
        the larger of the server-suggested ``retry_after`` and the
        capped exponential backoff (:func:`_backoff_delay`), so repeated
        rejections slow the client down geometrically instead of
        retrying on a fixed cadence against a saturated server.
        Exhaustion raises :class:`RetriesExhausted` (code
        ``queue-full``) with the attempt count and total wait.  With
        ``wait=False`` behaves like :meth:`submit_batch` (no retry,
        returns the id).
        """
        if not wait:
            return self.submit_batch(batch)
        attempts = max(1, max_retries)
        total_wait = 0.0
        for attempt in range(attempts):
            request_id = self.submit_batch(batch)
            try:
                return self._wait_report(request_id)
            except wire.ProtocolError as exc:
                if exc.code != "queue-full":
                    raise
                if attempt + 1 < attempts:
                    delay = max(
                        float(exc.retry_after or 0.0),
                        _backoff_delay(
                            backoff_base, backoff_cap, attempt, "queue-full", request_id
                        ),
                    )
                    total_wait += delay
                    time.sleep(delay)
        raise RetriesExhausted(
            "queue-full",
            f"batch still rejected after {attempts} attempt(s) "
            f"({total_wait:.2f}s waiting)",
            attempts=attempts,
            total_wait=total_wait,
        )

    def _wait_report(self, request_id: int) -> wire.BatchReportFrame:
        for report in self.reports:
            if request_id in report.ids:
                return report
        while True:
            reply = self.recv()
            if reply is None:
                raise ConnectionError("server closed the connection mid-request")
            if isinstance(reply, wire.BatchReportFrame):
                self.reports.append(reply)
                if request_id in reply.ids:
                    return reply
                continue
            if isinstance(reply, wire.ErrorFrame):
                raise reply.to_exception()
            raise wire.ProtocolError(
                "bad-payload", f"unexpected {reply.TYPE!r} while awaiting report"
            )

    def collect(self, request_ids) -> list[wire.BatchReportFrame]:
        """Block until every id in ``request_ids`` is covered by a stashed
        report; returns the covering reports in arrival order."""
        pending = set(request_ids)
        for report in self.reports:
            pending -= set(report.ids)
        while pending:
            report = self._wait_report(next(iter(pending)))
            pending -= set(report.ids)
        out, seen = [], set()
        wanted = set(request_ids)
        for report in self.reports:
            if wanted & set(report.ids) and id(report) not in seen:
                seen.add(id(report))
                out.append(report)
        return out

    def query_colors(self, nodes=None) -> wire.ColorsReply:
        """Read the maintained coloring (all nodes, or the int array
        ``nodes``); the reply's ``colors`` is an int64 array."""
        reply = self._rpc(wire.QueryColors(id=self._fresh_id(), nodes=nodes))
        assert isinstance(reply, wire.ColorsReply)
        return reply

    def query_palette(self, node: int) -> wire.PaletteReply:
        """Read one node's color and free palette."""
        reply = self._rpc(wire.QueryPalette(id=self._fresh_id(), node=int(node)))
        assert isinstance(reply, wire.PaletteReply)
        return reply

    def ping(self) -> wire.Pong:
        """Liveness probe: round-trips a ``ping`` through the server's
        event loop (also refreshes the server's idle-timeout window)."""
        reply = self._rpc(wire.Ping(id=self._fresh_id()))
        assert isinstance(reply, wire.Pong)
        return reply

    def stats(self) -> dict:
        """The server's counter dict (docs/PROTOCOL.md §stats)."""
        reply = self._rpc(wire.StatsRequest(id=self._fresh_id()))
        assert isinstance(reply, wire.StatsReply)
        return reply.stats

    def metrics(self) -> str:
        """The server's Prometheus text exposition (docs/PROTOCOL.md
        §metrics) — same payload the ``--metrics-port`` endpoint serves."""
        reply = self._rpc(wire.MetricsRequest(id=self._fresh_id()))
        assert isinstance(reply, wire.MetricsReply)
        return reply.text

    def snapshot(self, path: str | None = None) -> wire.SnapshotSaved:
        """Force a snapshot now (to ``path`` or the server default)."""
        reply = self._rpc(wire.SnapshotRequest(id=self._fresh_id(), path=path))
        assert isinstance(reply, wire.SnapshotSaved)
        return reply

    def shutdown(self) -> wire.Goodbye:
        """Ask the server to drain, snapshot and exit; waits for Goodbye."""
        reply = self._rpc(wire.Shutdown(id=self._fresh_id()))
        assert isinstance(reply, wire.Goodbye)
        return reply

    # ------------------------------------------------------------------
    # Context manager / teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the connection (without asking the server to exit —
        that's :meth:`shutdown`).  Safe to call twice."""
        for closer in (self.fp.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        self.hello()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def connect(**kwargs) -> ServeClient:
    """Open a connection and run ``hello`` — the one-liner form of the
    context-manager entry, for callers that manage lifetime themselves."""
    client = ServeClient(**kwargs)
    client.hello()
    return client
