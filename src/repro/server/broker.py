"""The session broker: admission control over one shared store.

SNIPPETS.md's ``PersistenceBroker`` pattern — clients *connect*, then
save and query through a broker that owns the storage connection —
done natively.  The broker owns three shared things:

* the **store** every session's ``extern``/``intern`` hits (a
  :class:`~repro.persistence.store.LogStore` for a path, or one shared
  in-memory dict when the server runs storeless);
* the **admission state**: at most ``limit`` concurrent sessions, with
  a bounded FIFO accept queue of ``queue_limit`` waiters — one past
  that is rejected immediately (``server.connections.rejected``), so a
  stampede degrades into fast bounces instead of unbounded queueing;
* the **executor**: a pool of ``workers`` threads for the requests
  the server does not run inline on its event loop — anything that
  can fsync, anything slow, and anything arriving while another
  request is on the pool (see :meth:`DBPLServer._serve_session
  <repro.server.server.DBPLServer._serve_session>`).  Off the loop,
  long queries leave it free to accept, time out idle sessions, and
  answer handshakes, and sessions genuinely run concurrently.
  :meth:`SessionBroker.run_pooled` submits work and keeps the
  ``in_flight`` count the server's routing reads; store consistency
  comes from the broker's shared
  :class:`~repro.persistence.mvcc.TransactionManager`, which gives
  every session snapshot-isolated ``extern``/``intern`` (MVCC with
  first-committer-wins commits — see TRANSACTIONS.md) and serializes
  the actual store writes;
* the **transaction manager** itself: one per broker, handed to every
  session's interpreter, so their snapshots and conflict checks see
  each other;
* the **parse cache**: one :class:`ParseCache` shared by every
  session's interpreter, so a source text sent again — by any session
  — skips the parser.  Checking still runs per request, against the
  sending session's bindings.  Each entry also keeps the text's last
  run time, from which the server predicts whether it may run inline.

Gauges ``server.sessions.active`` / ``server.sessions.limit`` /
``server.workers`` and the accepted/rejected counters feed the
``server.sessions`` health probe; ``server.parse_cache.hits`` /
``.misses`` / ``.entries`` watch the cache.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional

from repro.errors import BrokerBusyError, SessionClosedError
from repro.lang import ast as _ast
from repro.lang import eval as _eval
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.persistence.mvcc import TransactionManager
from repro.persistence.store import LogStore
from repro.server.session import Session

# Parsed programs the broker's cache keeps.  The bound keeps memory
# flat when texts never repeat (an ``extern`` of fresh data is a new
# text each time); 512 entries cost about 1 MB of server memory.
PARSE_CACHE_SIZE = 512


def default_workers() -> int:
    """The default worker-pool size: enough threads that read-only
    sessions overlap (and nobody stalls behind a committing writer's
    fsync), without oversubscribing small machines."""
    return min(8, max(2, os.cpu_count() or 2))

__all__ = ["SessionBroker", "ParseCache", "PARSE_CACHE_SIZE"]


class _Parsed:
    """One parse-cache entry: the program and its last run (mode, time)."""

    __slots__ = ("program", "mode", "seconds")

    def __init__(self, program: _ast.Program):
        self.program = program
        self.mode: Optional[str] = None
        self.seconds = 0.0


class ParseCache:
    """A thread-safe LRU from DBPL source text to its parsed program.

    Sharing entries across sessions is sound because parsing reads no
    session state and the :mod:`repro.lang.ast` nodes are frozen.
    Parse errors propagate and are never cached, so a bad text is
    re-parsed (and re-reported) on every send.  A miss calls
    ``parse_program`` through :mod:`repro.lang.eval`, the same binding
    an :class:`~repro.lang.eval.Interpreter` without a cache uses.

    Each entry also keeps the mode and duration of the text's last run
    (:meth:`note_run`), which the server reads to predict whether a
    request is short enough to run on its event loop.
    """

    def __init__(self):
        self._entries: "OrderedDict[str, _Parsed]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def parse(self, source: str) -> _ast.Program:
        """The parsed ``source``, from the cache when it was seen."""
        with self._lock:
            entry = self._entries.get(source)
            if entry is not None:
                self._entries.move_to_end(source)
        registry = _metrics.REGISTRY
        if entry is not None:
            registry.counter("server.parse_cache.hits").inc()
            return entry.program
        registry.counter("server.parse_cache.misses").inc()
        program = _eval.parse_program(source)
        with self._lock:
            self._entries[source] = _Parsed(program)
            if len(self._entries) > PARSE_CACHE_SIZE:
                self._entries.popitem(last=False)
            entries = len(self._entries)
        registry.gauge("server.parse_cache.entries").set(float(entries))
        return program

    def last_run(self, source: str, mode: str) -> Optional[float]:
        """Seconds the last run of ``source`` took, or ``None`` when the
        text is not cached or its last run was in another mode."""
        with self._lock:
            entry = self._entries.get(source)
            if entry is None or entry.mode != mode:
                return None
            return entry.seconds

    def note_run(self, source: str, mode: str, seconds: float) -> None:
        """Record a run of a cached ``source``; an uncached one (a parse
        error, or evicted meanwhile) is left alone."""
        with self._lock:
            entry = self._entries.get(source)
            if entry is not None:
                entry.mode, entry.seconds = mode, seconds


class SessionBroker:
    """Admission control + shared-store ownership for server sessions.

    ``session_factory`` is injectable (tests swap in slow or failing
    sessions); it is called with the same keyword arguments
    :class:`~repro.server.session.Session` takes.
    """

    def __init__(
        self,
        store=None,
        limit: int = 16,
        queue_limit: int = 8,
        session_factory=None,
        requests_capacity: int = 64,
        workers: Optional[int] = None,
    ):
        if limit <= 0:
            raise ValueError("connection limit must be positive")
        if queue_limit < 0:
            raise ValueError("queue limit cannot be negative")
        if workers is not None and workers <= 0:
            raise ValueError("worker count must be positive")
        self.limit = limit
        self.queue_limit = queue_limit
        self.requests_capacity = requests_capacity
        self.workers = workers if workers is not None else default_workers()
        self._session_factory = session_factory or Session
        self._owns_store = isinstance(store, str)
        self._store: Optional[LogStore] = (
            LogStore(store) if isinstance(store, str) else store
        )
        self._memory_store: Optional[Dict[str, object]] = (
            {} if self._store is None else None
        )
        # One transaction manager for the whole server: every session's
        # extern/intern goes through it, giving snapshot isolation with
        # first-committer-wins commits across sessions — and funnelling
        # all store writes through one lock (the LogStore itself is not
        # thread-safe).
        self.txns = TransactionManager(
            store=self._store, memory=self._memory_store
        )
        self.parse_cache = ParseCache()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._active: Dict[str, Session] = {}
        self._in_use = 0
        self._waiters: Deque[asyncio.Future] = deque()
        self._closed = False
        # A pool: read-only sessions genuinely run concurrently, and a
        # committing writer's fsync no longer stalls every reader.  The
        # threads also give the asyncio loop back its latency —
        # evaluation never blocks it.
        self.executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="dbpl-session"
        )
        # Requests submitted to the pool and not yet answered.  Only the
        # event loop's thread touches it (run_pooled), so it needs no
        # lock; the server runs a request inline only while it is 0.
        self.in_flight = 0
        registry = _metrics.REGISTRY
        registry.gauge("server.sessions.limit").set(float(limit))
        registry.gauge("server.sessions.active").set(0.0)
        registry.gauge("server.workers").set(float(self.workers))
        registry.gauge("server.parse_cache.entries").set(0.0)
        for name in (
            "server.dispatch.inline",
            "server.dispatch.pooled",
            "server.parse_cache.hits",
            "server.parse_cache.misses",
        ):
            registry.counter(name)  # listed in :stats from the start

    @property
    def store(self) -> Optional[LogStore]:
        """The shared log store (``None`` when running in memory)."""
        return self._store

    @property
    def active(self) -> int:
        """Currently-open sessions."""
        with self._lock:
            return len(self._active)

    @property
    def queued(self) -> int:
        """Connections waiting for a slot."""
        return len(self._waiters)

    async def run_pooled(self, fn, *args):
        """``fn(*args)`` on the worker pool, counted in :attr:`in_flight`.

        Call from the event loop's thread only.
        """
        self.in_flight += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self.executor, fn, *args
            )
        finally:
            self.in_flight -= 1

    # -- admission ----------------------------------------------------------

    async def admit(self) -> Session:
        """Admit one connection: a :class:`Session` when a slot is (or
        becomes) free.

        Raises :class:`~repro.errors.BrokerBusyError` when the limit is
        reached *and* the accept queue is full, and
        :class:`~repro.errors.SessionClosedError` once the broker shut
        down (including waiters abandoned by shutdown).
        """
        if self._closed:
            raise SessionClosedError("broker is shut down")
        if self._in_use >= self.limit:
            if len(self._waiters) >= self.queue_limit:
                _metrics.REGISTRY.counter("server.connections.rejected").inc()
                if _events.CURRENT.enabled:
                    _events.publish(
                        "WARN",
                        "server",
                        "connection_rejected",
                        active=self._in_use,
                        queued=len(self._waiters),
                    )
                raise BrokerBusyError(
                    "server at connection limit (%d active, %d queued)"
                    % (self._in_use, len(self._waiters))
                )
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            _metrics.REGISTRY.counter("server.connections.queued").inc()
            await waiter  # resolved by release(), failed by close()
        else:
            self._in_use += 1
        return self._open_session()

    def _open_session(self) -> Session:
        session_id = "s%02d" % next(self._ids)
        session = self._session_factory(
            store=self._store,
            session_id=session_id,
            memory_store=self._memory_store,
            broker=self,
            publish_runs=True,
            requests_capacity=self.requests_capacity,
            txn_manager=self.txns,
        )
        with self._lock:
            self._active[session_id] = session
            active = len(self._active)
        _metrics.REGISTRY.counter("server.connections.accepted").inc()
        _metrics.REGISTRY.gauge("server.sessions.active").set(float(active))
        if _events.CURRENT.enabled:
            _events.publish(
                "INFO", "server", "session_open", session=session_id,
                active=active,
            )
        return session

    def release(self, session: Session) -> None:
        """Close ``session`` and hand its slot to the oldest waiter."""
        session.close()
        with self._lock:
            self._active.pop(session.session_id, None)
            active = len(self._active)
        _metrics.REGISTRY.gauge("server.sessions.active").set(float(active))
        if _events.CURRENT.enabled:
            _events.publish(
                "INFO",
                "server",
                "session_close",
                session=session.session_id,
                requests=session.requests,
                active=active,
            )
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():  # skip waiters whose connection died
                waiter.set_result(None)
                return
        self._in_use = max(0, self._in_use - 1)

    # -- introspection ------------------------------------------------------

    def sessions(self) -> List[Session]:
        """The open sessions, oldest first (a snapshot copy)."""
        with self._lock:
            return sorted(self._active.values(), key=lambda s: s.opened)

    def format_sessions(self) -> str:
        """The ``stat("sessions")`` table."""
        rows = self.sessions()
        lines = [
            "sessions: %d active / %d limit (%d queued, queue limit %d)"
            % (len(rows), self.limit, len(self._waiters), self.queue_limit)
        ]
        for session in rows:
            lines.append("  " + session.describe())
        return "\n".join(lines)

    # -- shutdown -----------------------------------------------------------

    def close(self) -> None:
        """Shut the broker down: fail waiters, close sessions, stop the
        executor, and close an owned store."""
        if self._closed:
            return
        self._closed = True
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    SessionClosedError("broker is shutting down")
                )
        for session in self.sessions():
            self.release(session)
        self.executor.shutdown(wait=True)
        if self._owns_store and self._store is not None:
            self._store.close()
        _metrics.REGISTRY.gauge("server.sessions.active").set(0.0)

    def __repr__(self) -> str:
        return "SessionBroker(active=%d, limit=%d)" % (self.active, self.limit)
