"""Traced server launcher: ``python -m repro.server`` with layer spans.

Usage (from the repository root)::

    python3 perfbench/launch.py --spans <dump.json> <store> --port 0

The launcher imports the server, wraps the public functions that sit at
each module boundary (see :data:`WRAPS`) *where they are called* —
``repro.lang.eval`` imports ``parse_program`` by name, so it is that
binding that gets replaced — and then runs the unmodified
``repro.server.server.main`` with the remaining arguments.  Nothing
inside ``src/`` changes.

Each wrapped call records one span ``(name, start, duration, self,
request, extra)`` in memory.  ``self`` is the duration minus the time
covered by the spans it directly encloses on the same thread, so the
self times of one request's spans add up to its server-side time.
``request`` is the request id a ``run`` frame carries (the client mints
it), which lets the load generator join server spans to its own round
trips.  ``extra`` is a per-span quantity: frame bytes for the protocol
spans, 1 for a parse of a source text seen before, user bytes for a
store batch.

Two signals drive the recorder from the load generator:

* ``SIGUSR2`` marks the start of the measured load: the mark time and a
  snapshot of the server's metrics registry are kept, and
  ``<dump>.mark`` is created once they are;
* ``SIGUSR1`` writes every span, the mark, and a second registry
  snapshot to ``<dump>`` (atomically), after which the load generator
  kills the server.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# (module, attribute path, span name).  A missing module or attribute is
# skipped, so a later change to the server's internals loses a span, not
# the benchmark.
WRAPS = (
    ("repro.server.protocol", "decode_payload", "server.protocol.decode"),
    ("repro.server.protocol", "encode_frame", "server.protocol.encode"),
    ("repro.server.server", "DBPLServer._dispatch", "server.broker.run"),
    ("repro.server.session", "Session.run", "server.session"),
    ("repro.server.session", "Session.stat", "server.session"),
    ("repro.server.session", "Session.begin", "server.session"),
    ("repro.server.session", "Session.commit", "server.session"),
    ("repro.server.session", "Session.abort", "server.session"),
    ("repro.server.session", "parse_program", "lang.parser.parse"),
    ("repro.server.session", "check_program", "lang.checker.check"),
    ("repro.server.session", "optimize", "core.query.optimize"),
    ("repro.server.session", "explain_analyze", "core.query.execute"),
    ("repro.lang.eval", "Interpreter.run", "lang.eval"),
    ("repro.lang.eval", "parse_program", "lang.parser.parse"),
    ("repro.lang.eval", "check_program", "lang.checker.check"),
    ("repro.lang.eval", "serialize", "persistence.serialize.encode"),
    ("repro.lang.eval", "deserialize", "persistence.serialize.decode"),
    ("repro.core.relation", "join_with_fastpath", "core.relation.join"),
    ("repro.core.relation", "GeneralizedRelation.matching", "core.relation.algebra"),
    ("repro.core.relation", "GeneralizedRelation.project", "core.relation.algebra"),
    ("repro.core.relation", "GeneralizedRelation.insert", "core.relation.algebra"),
    ("repro.core.flat", "FlatRelation.from_generalized", "core.flat.convert"),
    ("repro.core.flat", "FlatRelation.to_generalized", "core.flat.convert"),
    ("repro.core.flat", "FlatRelation.natural_join", "core.flat.join"),
    ("repro.core.kernel", "join_pairs", "core.kernel.join"),
    ("repro.persistence.mvcc", "TransactionManager.get", "persistence.mvcc.get"),
    ("repro.persistence.mvcc", "SessionTransaction.read", "persistence.mvcc.get"),
    ("repro.persistence.mvcc", "TransactionManager.put", "persistence.mvcc.put"),
    ("repro.persistence.mvcc", "SessionTransaction.commit", "persistence.mvcc.commit"),
    ("repro.persistence.mvcc", "TransactionManager._backing_write", "persistence.store.batch"),
    ("repro.persistence.store", "LogStore.sync", "persistence.store.sync"),
)


def _frame_request(message):
    """The request id a run frame (or its result frame) carries."""
    if not isinstance(message, dict):
        return None
    trace = message.get("trace")
    if isinstance(trace, dict):
        return trace.get("request_id")
    return message.get("request_id")


class Recorder:
    """In-memory span store with per-thread nesting."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._sources = set()
        self.mark = None

    def wrap(self, name, fn):
        """``fn`` timed as span ``name``; ``extra`` depends on the name."""
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        extra_of = self._extra_for(name)
        from_frame = name.startswith("server.protocol.")
        dispatch = name == "server.broker.run"

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if dispatch:
                queued = getattr(local, "queued", None)
                local.queued = None
                local.request = _frame_request(args[-1]) if args else None
            enclosed = [0.0]
            stack.append(enclosed)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                if from_frame:
                    request = _frame_request(
                        result if name.endswith("decode") else args[0]
                    )
                else:
                    request = getattr(local, "request", None)
                if dispatch:
                    if queued is not None:
                        wait = start - queued
                        spans.append(
                            ("server.broker.queue_wait", queued, wait, wait,
                             request, 0)
                        )
                    local.request = None
                spans.append(
                    (name, start, duration, duration - enclosed[0], request,
                     extra_of(args, result))
                )

        return wrapper

    def _extra_for(self, name):
        if name == "server.protocol.decode":
            return lambda args, result: len(args[0]) + 4
        if name == "server.protocol.encode":
            return lambda args, result: len(result) if result else 0
        if name == "lang.parser.parse":
            sources = self._sources

            def repeated(args, result):
                source = args[0] if args else ""
                if source in sources:
                    return 1
                sources.add(source)
                return 0

            return repeated
        if name == "persistence.store.batch":
            return lambda args, result: sum(
                len(json.dumps(doc, separators=(",", ":")))
                for doc in args[-1].values()
            )
        return lambda args, result: 0

    def time_submits(self, executor):
        """Time the executor hop: submit → the worker starting the call."""
        local = self._local
        clock = time.perf_counter
        submit = executor.submit

        def timed_submit(fn, *args, **kwargs):
            queued = clock()

            def started():
                local.queued = queued
                return fn(*args, **kwargs)

            return submit(started)

        executor.submit = timed_submit


def _resolve(module_name, path):
    """``(owner, attribute, raw value)`` for ``module.path``, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = (
        owner.__dict__.get(parts[-1])
        if isinstance(owner, type)
        else getattr(owner, parts[-1], None)
    )
    if raw is None:
        return None
    return owner, parts[-1], raw


def install(recorder):
    """Install every wrapper of :data:`WRAPS`; returns the ones skipped."""
    skipped = []
    for module_name, path, name in WRAPS:
        found = _resolve(module_name, path)
        if found is None:
            skipped.append("%s.%s" % (module_name, path))
            continue
        owner, attribute, raw = found
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(owner, attribute, recorder.wrap(name, raw))
    found = _resolve("repro.server.broker", "SessionBroker.__init__")
    if found is not None:
        owner, attribute, init = found

        def timed_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            executor = getattr(self, "executor", None)
            if executor is not None and hasattr(executor, "submit"):
                recorder.time_submits(executor)

        setattr(owner, attribute, timed_init)
    return skipped


def _counters():
    from repro.obs.metrics import REGISTRY

    return REGISTRY.counters()


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launch.py --spans <dump.json> <server args...>",
              file=sys.stderr)
        return 2
    dump_path, server_args = argv[1], argv[2:]
    recorder = Recorder()
    skipped = install(recorder)

    def on_mark(signum, frame):
        recorder.mark = (time.perf_counter(), _counters())
        with open(dump_path + ".mark", "w") as handle:
            handle.write("%r\n" % recorder.mark[0])

    def on_dump(signum, frame):
        mark_time, mark_counters = recorder.mark or (0.0, {})
        document = {
            "pid": os.getpid(),
            "skipped": skipped,
            "mark": mark_time,
            "counters_mark": mark_counters,
            "counters_end": _counters(),
            "spans": list(recorder.spans),
        }
        partial = dump_path + ".part"
        with open(partial, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
        os.replace(partial, dump_path)

    signal.signal(signal.SIGUSR2, on_mark)
    signal.signal(signal.SIGUSR1, on_dump)
    from repro.server.server import main as serve

    return serve(server_args)


if __name__ == "__main__":
    raise SystemExit(main())
