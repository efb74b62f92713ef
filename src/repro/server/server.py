"""The asyncio DBPL server: accept loop, dispatch, graceful drain.

:class:`DBPLServer` binds a TCP socket and speaks the frame protocol of
:mod:`repro.server.protocol`.  Per connection:

1. **handshake** — the client's ``hello`` must arrive within
   ``handshake_timeout`` and carry the right protocol version; the
   reply names the server, the assigned session id, and the limits;
2. **admission** — :class:`~repro.server.broker.SessionBroker` grants a
   slot, queues the connection, or bounces it with a ``busy`` error;
3. **request loop** — ``run``, ``stat``, ``obs``, and the transaction
   frames ``begin``/``commit``/``abort`` are answered with
   ``result``/``stat``/``obs``/``txn``/``error`` frames.  A request
   predicted short that cannot fsync runs inline on the event loop
   while the broker's worker pool is idle; everything else runs on the
   pool, so sessions still run concurrently under MVCC snapshot
   isolation (see TRANSACTIONS.md) and no fsync ever blocks the loop
   (the rule is spelled out in :meth:`DBPLServer._serve_session`);
   protocol violations get an ``error`` frame where the stream is
   still trustworthy, and the connection is dropped where it is not
   (oversized or truncated frames);
4. **teardown** — ``bye`` from either side, an idle timeout, or server
   shutdown.  :meth:`DBPLServer.stop` *drains*: it stops accepting,
   lets every in-flight query finish and deliver its result, says
   ``bye`` (reason ``shutdown``), and only then closes sockets.

:class:`ServerThread` runs the whole thing on a private event loop in a
daemon thread — the embedding used by the REPL's tests, the benchmark,
and ``examples/server.py``, where the main thread stays a plain
blocking client.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time
from typing import Dict, Optional, Set

from repro.errors import (
    BrokerBusyError,
    ProtocolError,
    ReproError,
    SessionClosedError,
    TransactionConflictError,
)
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.server import protocol
from repro.stats import adaptive as _adaptive
from repro.server.broker import SessionBroker
from repro.server.session import Session

__all__ = ["DBPLServer", "ServerThread", "main"]

SERVER_NAME = "repro-server/3"


class _Connection:
    """Per-connection bookkeeping for the drain logic and the routing."""

    __slots__ = ("writer", "busy", "session", "last_seconds", "may_extern")

    def __init__(self, writer):
        self.writer = writer
        self.busy = False
        self.session: Optional[Session] = None
        # How long the session's previous request ran (None before its
        # first; set by _dispatch), and whether any evaluated source has
        # mentioned ``extern`` — after that a binding may call it under
        # any name.
        self.last_seconds: Optional[float] = None
        self.may_extern = False


class DBPLServer:
    """A multi-session DBPL server over one shared store."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store=None,
        limit: int = 16,
        queue_limit: int = 8,
        idle_timeout: Optional[float] = None,
        handshake_timeout: float = 10.0,
        drain_timeout: float = 5.0,
        max_frame: int = protocol.MAX_FRAME,
        session_factory=None,
        requests_capacity: int = 64,
        workers: Optional[int] = None,
    ):
        self.host = host
        self.port = port  # rebound to the real port after start()
        self.idle_timeout = idle_timeout
        self.handshake_timeout = handshake_timeout
        self.drain_timeout = drain_timeout
        self.max_frame = max_frame
        self.broker = SessionBroker(
            store=store,
            limit=limit,
            queue_limit=queue_limit,
            session_factory=session_factory,
            requests_capacity=requests_capacity,
            workers=workers,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set[asyncio.Task] = set()
        self._connections: Set[_Connection] = set()
        self._draining = False

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "DBPLServer":
        """Bind and start accepting; resolves the real port for port 0."""
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if _events.CURRENT.enabled:
            _events.publish(
                "INFO", "server", "listening", address=self.address,
                limit=self.broker.limit,
            )
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (``python -m repro.server``)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight queries, then close.

        Connections mid-query get their ``result`` frame and a ``bye``;
        idle connections get a ``bye`` immediately.  Handlers still
        running after ``drain_timeout`` are cancelled.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge idle connections: their pending read sees EOF and the
        # handler exits; busy ones finish their request first (the
        # request loop checks _draining after every reply).
        for connection in list(self._connections):
            if not connection.busy:
                await self._say_bye(connection.writer, "shutdown")
                connection.writer.close()
        if self._handlers:
            done, pending = await asyncio.wait(
                list(self._handlers), timeout=self.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            _metrics.REGISTRY.counter("server.shutdown.drained").inc(len(done))
            _metrics.REGISTRY.counter("server.shutdown.cancelled").inc(
                len(pending)
            )
        if _events.CURRENT.enabled:
            _events.publish("INFO", "server", "shutdown", address=self.address)
        self.broker.close()

    # -- connection handling ------------------------------------------------

    def _accept(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(self, reader, writer) -> None:
        _metrics.REGISTRY.counter("server.connections.opened").inc()
        connection = _Connection(writer)
        self._connections.add(connection)
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            connection.session = session
            try:
                await self._serve_session(reader, writer, connection, session)
            finally:
                self.broker.release(session)
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer vanished or shutdown cancelled us — nothing to say
        finally:
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(self, reader, writer) -> Optional[Session]:
        try:
            hello = await asyncio.wait_for(
                protocol.read_frame(reader, self.max_frame),
                timeout=self.handshake_timeout,
            )
        except asyncio.TimeoutError:
            await self._send_error(writer, "handshake timed out")
            return None
        except ProtocolError as exc:
            await self._send_error(writer, str(exc))
            return None
        if hello is None:
            return None  # connected and left without a word
        if hello.get("type") != "hello":
            await self._send_error(
                writer, "expected a hello frame, got %r" % hello.get("type")
            )
            return None
        version = hello.get("protocol")
        if version not in protocol.SUPPORTED_PROTOCOLS:
            await self._send_error(
                writer,
                "protocol version mismatch: server speaks %d (accepts"
                " %d through %d), client sent %r"
                % (
                    protocol.PROTOCOL_VERSION,
                    protocol.MIN_PROTOCOL_VERSION,
                    protocol.PROTOCOL_VERSION,
                    version,
                ),
                kind="version",
            )
            return None
        if self._draining:
            await self._send_error(
                writer, "server is shutting down", kind="busy"
            )
            return None
        try:
            session = await self.broker.admit()
        except (BrokerBusyError, SessionClosedError) as exc:
            await self._send_error(writer, str(exc), kind="busy")
            return None
        await protocol.write_frame(
            writer,
            {
                # Echo the *client's* (accepted) version: an old client
                # checks for its own number, a new one reads the
                # negotiated level from here.
                "type": "hello",
                "protocol": version,
                "server": SERVER_NAME,
                "session": session.session_id,
                "limits": {
                    "max_frame": self.max_frame,
                    "idle_timeout": self.idle_timeout,
                },
                # A clock sample for trace merging: the client brackets
                # this reply between two perf_counter readings of its
                # own and estimates the inter-process monotonic offset.
                "clock": {
                    "mono": time.perf_counter(),
                    "wall": time.time(),
                },
            },
            self.max_frame,
        )
        return session

    async def _serve_session(self, reader, writer, connection, session) -> None:
        """Answer one session's frames until ``bye``, idle, or shutdown.

        A request runs **inline** on the event loop when it is predicted
        to finish within :func:`sys.getswitchinterval` — the GIL's time
        slice, about as long as a pooled request could hold the GIL
        before the loop gets a turn — and cannot fsync.  Everything
        else runs on the broker's worker pool.  The full rule is
        :meth:`_runs_inline`:

        1. nothing is in flight on the pool (``broker.in_flight``), so
           an inline request never delays another session's reply and
           concurrent sessions keep overlapping on the pool;
        2. the frame is a ``begin`` or an ``abort`` (constant time), or
           a ``run`` that cannot autocommit an ``extern`` and whose
           prediction holds: the *same text's* last run was in the same
           mode and took less than the switch interval (its parse-cache
           entry keeps both), and so did the session's previous request.
           A new text always takes the pool.

        The prediction is a guess, not a bound: the same text can cost
        more in another session or against a grown store.  Such a run
        holds the loop once; its recorded time then sends the text to
        the pool.  Inline, a short request skips two thread hand-offs
        (the submit to a worker and the worker waking the loop with the
        reply), which on small requests cost more than the evaluation.
        """
        while True:
            try:
                if self.idle_timeout is not None:
                    message = await asyncio.wait_for(
                        protocol.read_frame(reader, self.max_frame),
                        timeout=self.idle_timeout,
                    )
                else:
                    message = await protocol.read_frame(reader, self.max_frame)
            except asyncio.TimeoutError:
                _metrics.REGISTRY.counter("server.sessions.idle_closed").inc()
                if session.journal.enabled:
                    session.journal.publish(
                        "INFO", "server", "idle_timeout",
                        seconds=self.idle_timeout,
                    )
                await self._say_bye(writer, "idle")
                return
            except ProtocolError as exc:
                # The stream can no longer be framed — say why and hang up.
                _metrics.REGISTRY.counter("server.protocol_errors").inc()
                await self._send_error(writer, str(exc))
                return
            if message is None:
                _metrics.REGISTRY.counter("server.connections.lost").inc()
                return  # client vanished between frames
            frame_type = message.get("type")
            if frame_type == "bye":
                await self._say_bye(writer, "bye")
                return
            if frame_type not in ("run", "stat", "obs", "begin", "commit", "abort"):
                # A well-framed but unknown request: answer and carry on.
                _metrics.REGISTRY.counter("server.protocol_errors").inc()
                await self._send_frame(
                    writer,
                    protocol.error_frame(
                        "unknown message type %r" % (frame_type,),
                        request_id=message.get("id"),
                    ),
                )
                continue
            if self._runs_inline(connection, message):
                _metrics.REGISTRY.counter("server.dispatch.inline").inc()
                reply = self._dispatch(connection, message)
            else:
                _metrics.REGISTRY.counter("server.dispatch.pooled").inc()
                connection.busy = True
                try:
                    reply = await self.broker.run_pooled(
                        self._dispatch, connection, message
                    )
                finally:
                    connection.busy = False
            if not await self._send_frame(writer, reply):
                return  # client disconnected mid-query; reply undeliverable
            if self._draining:
                await self._say_bye(writer, "shutdown")
                return

    def _runs_inline(
        self, connection: _Connection, message: Dict[str, object]
    ) -> bool:
        """The routing rule of :meth:`_serve_session` for ``message``."""
        frame_type = message["type"]
        source = message.get("source")
        mode = message.get("mode", "eval")
        if frame_type == "run" and mode == "eval" and isinstance(source, str):
            # Inside a transaction an extern only buffers; outside one it
            # autocommits (one fsync).  Textual and sticky, so it errs
            # towards the pool: a false positive costs only the hop.
            if "extern" in source:
                connection.may_extern = True
            if (
                connection.may_extern
                and connection.session.interpreter.transaction is None
            ):
                return False
        if self.broker.in_flight:
            return False
        if frame_type in ("begin", "abort"):
            return True
        if not (
            frame_type == "run"
            and isinstance(source, str)
            and isinstance(mode, str)
        ):
            return False  # commit fsyncs; stat and obs are not predicted
        threshold = sys.getswitchinterval()
        last = connection.last_seconds
        if last is None or last >= threshold:
            return False
        seconds = self.broker.parse_cache.last_run(source, mode)
        return seconds is not None and seconds < threshold

    def _dispatch(
        self, connection: _Connection, message: Dict[str, object]
    ) -> Dict[str, object]:
        """Execute one request (inline on the loop or on a worker).

        How long it ran feeds ``server.request.seconds`` and the two
        predictions :meth:`_runs_inline` reads: the session's
        ``last_seconds`` and, for a ``run``, its text's cache entry.
        """
        session = connection.session
        frame_id = message.get("id")
        _metrics.REGISTRY.counter("server.requests").inc()
        started = time.perf_counter()
        try:
            if message["type"] == "run":
                source = message.get("source")
                if not isinstance(source, str):
                    raise ProtocolError("run frame needs a string source")
                mode = message.get("mode", "eval")
                if not isinstance(mode, str):
                    raise ProtocolError("run mode must be a string")
                # Protocol 2 clients propagate their trace context;
                # a missing/old-style frame leaves request_id None
                # and the session mints its own.
                context = message.get("trace")
                request_id = (
                    context.get("request_id")
                    if isinstance(context, dict)
                    else None
                )
                if request_id is not None and not isinstance(
                    request_id, str
                ):
                    raise ProtocolError(
                        "trace request_id must be a string"
                    )
                result = session.run(
                    source, mode=mode, request_id=request_id
                )
                reply: Dict[str, object] = {"type": "result"}
                reply.update(result)
            elif message["type"] in ("begin", "commit", "abort"):
                action = message["type"]
                result = getattr(session, action)()
                reply = {"type": "txn", "action": action}
                reply.update(result)
            elif message["type"] == "obs":
                what = message.get("what")
                if not isinstance(what, str):
                    raise ProtocolError("obs frame needs a string what")
                args = message.get("args") or {}
                if not isinstance(args, dict):
                    raise ProtocolError("obs args must be an object")
                result = session.obs(what, **args)
                reply = {"type": "obs", "what": what}
                reply.update(result)
            else:
                kind = message.get("kind")
                if not isinstance(kind, str):
                    raise ProtocolError("stat frame needs a string kind")
                args = message.get("args") or {}
                if not isinstance(args, dict):
                    raise ProtocolError("stat args must be an object")
                result = session.stat(kind, **args)
                reply = {"type": "stat", "kind": kind}
                reply.update(result)
        except ReproError as exc:
            _metrics.REGISTRY.counter("server.request_errors").inc()
            reply = protocol.error_frame(
                str(exc), kind=type(exc).__name__
            )
            if isinstance(exc, TransactionConflictError):
                # Carry the conflict detail so remote retry loops
                # can see which handles were contested and by whom.
                reply["conflict"] = {
                    "keys": list(exc.keys),
                    "winner_epoch": exc.winner_epoch,
                }
        except Exception as exc:  # noqa: BLE001 — a reply, not a crash
            _metrics.REGISTRY.counter("server.request_errors").inc()
            reply = protocol.error_frame(
                "internal error: %s" % exc, kind="internal"
            )
        seconds = time.perf_counter() - started
        _metrics.REGISTRY.histogram("server.request.seconds").observe(seconds)
        connection.last_seconds = seconds
        source = message.get("source")
        mode = message.get("mode", "eval")
        if (
            message["type"] == "run"
            and isinstance(source, str)
            and isinstance(mode, str)
        ):
            self.broker.parse_cache.note_run(source, mode, seconds)
        if frame_id is not None:
            reply["id"] = frame_id
        return reply

    # -- small senders (best-effort: the peer may already be gone) ----------

    async def _send_frame(self, writer, message: Dict[str, object]) -> bool:
        try:
            await protocol.write_frame(writer, message, self.max_frame)
            return True
        except (ConnectionError, OSError):
            return False

    async def _send_error(
        self, writer, message: str, kind: str = "protocol"
    ) -> None:
        await self._send_frame(writer, protocol.error_frame(message, kind))

    async def _say_bye(self, writer, reason: str) -> None:
        await self._send_frame(writer, {"type": "bye", "reason": reason})


class ServerThread:
    """A :class:`DBPLServer` on a private event loop in a daemon thread.

    ::

        with ServerThread(store=path, limit=8) as server:
            client = Client(server.host, server.port)
            ...

    ``stop()`` (or leaving the ``with`` block) runs the server's
    graceful drain on the loop, then joins the thread.
    """

    def __init__(self, **kwargs):
        self.server = DBPLServer(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="dbpl-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server thread failed to start in time")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(asyncio.sleep(0))
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            )
            try:
                future.result(timeout=self.server.drain_timeout + 10.0)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def main(argv=None) -> int:
    """``python -m repro.server [--host H] [--port P] [store-path]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve DBPL sessions over TCP.",
    )
    parser.add_argument("store", nargs="?", default=None,
                        help="log-store path shared by all sessions")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474)
    parser.add_argument("--limit", type=int, default=16,
                        help="maximum concurrent sessions")
    parser.add_argument("--queue-limit", type=int, default=8)
    parser.add_argument("--idle-timeout", type=float, default=300.0)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads (default: min(8, cpu count))")
    args = parser.parse_args(argv)

    # The serving stance matches the interactive REPL's: journal on
    # (anomalies land in :events) and adaptive estimation on (repeated
    # :explain runs self-correct); :events off / :adaptive off undo it.
    _events.enable()
    _adaptive.enable()

    async def _serve() -> None:
        server = DBPLServer(
            host=args.host,
            port=args.port,
            store=args.store,
            limit=args.limit,
            queue_limit=args.queue_limit,
            idle_timeout=args.idle_timeout,
            workers=args.workers,
        )
        await server.start()
        print("dbpl server listening on %s (store: %s)"
              % (server.address, args.store or "in-memory"))
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            # Reached on Ctrl-C too: asyncio.run turns SIGINT into a
            # cancellation of this task, which serve_forever absorbs
            # above — so announce the drain here, not in an (unreached
            # on 3.11+) KeyboardInterrupt handler.
            print("\nshutting down — draining sessions")
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0
