"""Per-connection DBPL sessions, and the backend the REPL drives.

A :class:`Session` owns what the paper's interactive tradition calls a
*binding environment*: an :class:`~repro.lang.eval.Interpreter` whose
``let``/``fun``/``type`` declarations accumulate privately, plus the
table statistics ``analyze`` collects — all against a **shared** store,
so persistent extents (``extern``/``intern``) are visible across
sessions while bindings stay isolated.

The class is deliberately transport-free.  Its entry points mirror the
wire protocol:

* :meth:`Session.run` — evaluate DBPL source (``mode`` ``eval`` /
  ``type`` / ``ast``), returning the formatted value and output lines.
  Every run executes under a ``request_id`` (the client's trace
  context, or a minted ``<session>-r<n>``): span trees grown on the
  global tracer are harvested out under that id, slowlog entries
  recorded during the run carry it exactly, and the completed request
  lands as one *wide event* in the session's bounded
  :class:`~repro.obs.wide.RequestLog`;
* :meth:`Session.stat` — the observability surface behind ``:stats``,
  ``:health``, ``:watch``, ``:metrics``, ``:slow``, ``:events``,
  ``:adaptive``, ``:columnar``, ``:analyze``, ``:explain``,
  ``:trace``, ``:profile``, ``:requests``, and ``:sessions``,
  returning rendered text;
* :meth:`Session.obs` — the same observability state as plain data
  (span trees, profiler rows, journal slices, wide events), which is
  what a remote ``:export`` merges onto one timeline.

The REPL in local mode calls these directly; the server calls the same
methods from its dispatch loop; the REPL in ``:connect`` mode sends
them as ``run``/``stat`` frames which the server routes right back
here.  One implementation, three transports — which is what makes
``:watch`` and ``:metrics`` behave identically locally and remotely.

Each session publishes its journal events through a
:class:`~repro.obs.events.ScopedJournal` tagged ``session=<id>``, so a
shared flight-recorder ring still yields per-session journals.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core import columnar as _columnar
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import Plan, eq, explain_analyze, optimize, scan
from repro.core.relation import GeneralizedRelation, flat_schema_of
from repro.errors import EvalError, SessionClosedError
from repro.lang import ast as _ast
from repro.lang.checker import CheckEnv, check_program
from repro.lang.eval import Interpreter, format_value
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import monitor as _monitor
from repro.obs import profile as _profile
from repro.obs import slowlog as _slowlog
from repro.obs import trace as _trace
from repro.obs import wide as _wide
from repro.stats import adaptive as _adaptive
from repro.stats import feedback as _feedback
from repro.stats.collect import TableStats
from repro.stats.collect import analyze as _analyze_stats

__all__ = ["Session", "STAT_KINDS", "OBS_KINDS"]

STAT_KINDS = frozenset(
    {
        "stats",
        "analyze",
        "explain",
        "health",
        "slow",
        "watch",
        "metrics",
        "events",
        "adaptive",
        "columnar",
        "sessions",
        "trace",
        "profile",
        "requests",
    }
)

# The structured observability surface: unlike ``stat`` (rendered
# text), ``obs`` answers with plain data — span trees, profiler rows,
# journal slices, wide events — so a remote ``:export`` can merge them
# into one trace file instead of scraping tables.
OBS_KINDS = frozenset({"spans", "profile", "journal", "requests"})


class Session:
    """One client's DBPL state against the shared store.

    ``store`` is a shared :class:`~repro.persistence.store.LogStore`
    (or a path, or ``None``); ``memory_store`` is the broker's shared
    in-memory extent dict for path-less servers.  ``publish_runs``
    turns on per-request journal events (the server sets it; the local
    REPL keeps it off so interactive journals match the pre-server
    behaviour).
    """

    def __init__(
        self,
        store=None,
        session_id: str = "local",
        memory_store: Optional[Dict[str, object]] = None,
        broker=None,
        publish_runs: bool = False,
        requests_capacity: int = 64,
        txn_manager=None,
    ):
        self.session_id = session_id
        self.broker = broker
        self.publish_runs = publish_runs
        self.requests = 0
        self.opened = time.time()
        self.closed = False
        self.journal = _events.scoped(session=session_id)
        # One wide event per completed run() — the session's bounded
        # request history behind :requests and the obs surface.
        self.request_log = _wide.RequestLog(capacity=requests_capacity)
        self._interp = Interpreter(
            store,
            session_id=session_id,
            memory_store=memory_store,
            txn_manager=txn_manager,
        )
        # A served session parses through its broker's shared cache;
        # a local (REPL) session keeps calling the parser directly.
        self._interp.parse_cache = getattr(broker, "parse_cache", None)
        self._table_stats: Dict[str, TableStats] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def interpreter(self) -> Interpreter:
        """The session's interpreter (the REPL's ``:explain`` compiler
        and tests reach through this)."""
        return self._interp

    def close(self) -> None:
        """Mark the session closed; later requests raise.

        An open transaction is aborted: a dropped connection must not
        pin its snapshot (which would hold version history alive) or
        leak buffered writes.
        """
        if not self.closed and self._interp.transaction is not None:
            self._interp.abort_transaction()
        self.closed = True

    def describe(self) -> str:
        """One line for ``stat("sessions")`` tables and logs."""
        return "%-8s %4d request(s)  %5.1fs old" % (
            self.session_id,
            self.requests,
            time.time() - self.opened,
        )

    def _touch(self) -> None:
        if self.closed:
            raise SessionClosedError(
                "session %s is closed" % self.session_id
            )
        self.requests += 1

    # -- run ----------------------------------------------------------------

    def run(
        self,
        source: str,
        mode: str = "eval",
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Evaluate ``source``; returns ``{"value", "output", "elapsed",
        "request_id"}`` (plus ``"trace"`` while tracing is on).

        ``value`` is the formatted result (``None`` for declarations),
        ``output`` the lines ``print`` produced during this run.  Modes
        ``type`` and ``ast`` answer without evaluating — the static
        type against the session's environment, or the pretty-printed
        syntax tree.  Language and type errors propagate to the caller
        (the server turns them into ``error`` frames; the REPL prints
        ``error: ...``).

        ``request_id`` is the caller's trace context (a remote client
        stamps its ``run`` frames); absent one the session mints
        ``<session>-r<n>``.  The id is installed as the thread's
        request context for the duration (exact slowlog correlation),
        any span trees the run grew on the global tracer are harvested
        out under it, and the whole request lands in the session's
        :class:`~repro.obs.wide.RequestLog` as one wide event.
        """
        self._touch()
        if request_id is None:
            request_id = "%s-r%d" % (self.session_id, self.requests)
        tracer = _trace.CURRENT
        counters_before = _wide.counters_snapshot()
        slow_before = getattr(_slowlog.CURRENT, "total", 0)
        previous_request = _trace.set_request_id(request_id)
        started = time.perf_counter()
        try:
            if mode == "eval":
                reply = self._run_eval(source)
            elif mode == "type":
                reply = {"value": self._run_type(source), "output": []}
            elif mode == "ast":
                reply = {
                    "value": pretty_program(self._interp.parse(source)),
                    "output": [],
                }
            else:
                raise EvalError("unknown run mode %r" % (mode,))
        except BaseException as exc:
            elapsed = time.perf_counter() - started
            _trace.set_request_id(previous_request)
            roots = self._harvest_spans(tracer, request_id)
            self._record_request(
                request_id, mode, source, False, str(exc), elapsed,
                roots, counters_before, slow_before,
            )
            raise
        elapsed = time.perf_counter() - started
        _trace.set_request_id(previous_request)
        roots = self._harvest_spans(tracer, request_id)
        self._record_request(
            request_id, mode, source, True, None, elapsed,
            roots, counters_before, slow_before,
        )
        reply["elapsed"] = elapsed
        reply["request_id"] = request_id
        if roots:
            reply["trace"] = "\n".join(root.format() for root in roots)
        return reply

    def _harvest_spans(self, tracer, request_id: str):
        """Claim the root spans this request grew on the global tracer.

        Root spans are stamped with the thread's request id as they
        open, so :meth:`~repro.obs.trace.Tracer.harvest_request` pulls
        exactly this request's trees even when the broker's worker pool
        runs several requests concurrently.  The roots are *removed*
        from the tracer (so a long session does not accumulate trees)
        and annotated with the session — they live on in the wide
        event.  Returns the claimed :class:`~repro.obs.trace.Span` roots.
        """
        if not tracer.enabled:
            return []
        roots = tracer.harvest_request(request_id)
        for root in roots:
            root.annotate(request_id=request_id, session=self.session_id)
        return roots

    def _record_request(
        self,
        request_id: str,
        mode: str,
        source: str,
        ok: bool,
        error: Optional[str],
        elapsed: float,
        roots,
        counters_before: Dict[str, int],
        slow_before: int,
    ) -> None:
        """Fold one completed run into the wide-event request log."""
        counters_after = _wide.counters_snapshot()
        deltas = {
            field: counters_after[field] - counters_before.get(field, 0)
            for field in counters_after
        }
        # The optimizer's last feedback observation, when this request
        # produced one, supplies estimated-vs-actual row counts.
        est_rows = act_rows = None
        if deltas.get("feedback"):
            recent = _feedback.FEEDBACK.last(1)
            if recent:
                est_rows = recent[0].estimate
                act_rows = recent[0].rows_out
        # Exact slowlog correlation: entries recorded during this run
        # carry our request id (via the thread's request context).
        slow_ms = None
        log = _slowlog.CURRENT
        if log.enabled and log.total > slow_before:
            tripped = log.for_request(request_id)
            if tripped:
                slow_ms = max(entry.elapsed_ms for entry in tripped)
        event = _wide.WideEvent(
            request_id=request_id,
            session=self.session_id,
            mode=mode,
            query=source,
            ok=ok,
            error=error,
            elapsed_ms=elapsed * 1000.0,
            spans=[root.to_dict() for root in roots],
            counters=deltas,
            est_rows=est_rows,
            act_rows=act_rows,
            slow_ms=slow_ms,
        )
        self.request_log.append(event)
        _metrics.REGISTRY.counter("session.requests").inc()
        if roots:
            _metrics.REGISTRY.counter("session.requests.traced").inc()
        if self.publish_runs and self.journal.enabled:
            self.journal.publish(
                "INFO" if ok else "WARN",
                "server",
                "request",
                request=request_id,
                mode=mode,
                ok=ok,
                ms=round(elapsed * 1000.0, 3),
                slow=slow_ms is not None,
            )

    def _run_eval(self, source: str) -> Dict[str, object]:
        buffer = self._interp.output
        before = len(buffer)
        try:
            result = self._interp.run(source)
            output = buffer[before:]
        finally:
            # Each reply carries its own lines; emptying the buffer keeps
            # a long-lived session from growing it (and from copying all
            # of it into every RunResult) for its whole life.
            buffer.clear()
        value = (
            format_value(result.value) if result.value is not None else None
        )
        return {"value": value, "output": output}

    def _run_type(self, source: str) -> str:
        program = self._interp.parse(source)
        # Check against a *copy* of the session env: a type query must
        # not commit declarations.
        env = CheckEnv(
            self._interp._check_env.values,
            self._interp._check_env.type_names,
            self._interp._check_env.bounds,
        )
        inferred, __ = check_program(program, env)
        return str(inferred) if inferred is not None else "<declaration>"

    # -- transactions -------------------------------------------------------

    def begin(self) -> Dict[str, object]:
        """Open a snapshot-isolated transaction (the ``begin`` frame).

        Until commit, every ``intern`` in this session resolves at the
        pinned snapshot and every ``extern`` buffers privately.
        Raises :class:`~repro.errors.TransactionError` when one is
        already open.
        """
        self._touch()
        epoch = self._interp.begin_transaction()
        if self.publish_runs and self.journal.enabled:
            self.journal.publish(
                "INFO", "server", "txn_begin", snapshot=epoch
            )
        return {
            "text": "transaction open (snapshot epoch %d)" % epoch,
            "epoch": epoch,
        }

    def commit(self) -> Dict[str, object]:
        """Commit the open transaction (the ``commit`` frame).

        Raises a retryable
        :class:`~repro.errors.TransactionConflictError` when a
        concurrent commit won (first-committer-wins); the transaction is
        then already aborted — ``:begin`` again and retry.
        """
        self._touch()
        epoch, written = self._interp.commit_transaction()
        if self.publish_runs and self.journal.enabled:
            self.journal.publish(
                "INFO", "server", "txn_commit", epoch=epoch, written=written
            )
        if written:
            text = "committed epoch %d (%d handle(s) written)" % (
                epoch, written,
            )
        else:
            text = "committed (read-only, snapshot epoch %d)" % epoch
        return {"text": text, "epoch": epoch, "written": written}

    def abort(self) -> Dict[str, object]:
        """Abort the open transaction (the ``abort`` frame)."""
        self._touch()
        self._interp.abort_transaction()
        if self.publish_runs and self.journal.enabled:
            self.journal.publish("INFO", "server", "txn_abort")
        return {"text": "transaction aborted", "written": 0}

    # -- stat ---------------------------------------------------------------

    def stat(self, kind: str, **args: object) -> Dict[str, object]:
        """Answer one observability request; returns ``{"text": ...}``.

        Unknown kinds raise :class:`~repro.errors.EvalError` so remote
        callers get an ``error`` frame, not a dead connection.
        """
        self._touch()
        handler = getattr(self, "_stat_%s" % kind, None)
        if kind not in STAT_KINDS or handler is None:
            raise EvalError("unknown stat kind %r" % (kind,))
        return handler(**args)

    def _stat_stats(self, target: str = "", **__) -> Dict[str, object]:
        target = str(target).strip()
        if target.lower() == "reset":
            _metrics.reset_metrics()
            return {"text": "metrics reset"}
        if target.lower() == "feedback":
            return {"text": self._feedback_table()}
        if not target:
            return {"text": _metrics.REGISTRY.format()}
        if target in self._table_stats:
            return {"text": self._table_stats[target].format()}
        return {
            "text": "no statistics for %r — run :analyze %s first"
            % (target, target)
        }

    def _stat_analyze(self, name: str = "", **__) -> Dict[str, object]:
        name = str(name).strip()
        if not name:
            raise EvalError("analyze needs a relation name")
        value = self._interp._globals.lookup(name)
        if not isinstance(value, GeneralizedRelation):
            raise EvalError(
                "%s is not a relation (use relation([...]))" % name
            )
        stats = _analyze_stats(value, name=name)
        self._table_stats[name] = stats
        return {
            "text": "analyzed %s: %d rows, %d columns"
            % (name, stats.row_count, len(stats.columns))
        }

    def _stat_explain(self, source: str = "", **__) -> Dict[str, object]:
        program = parse_program(str(source))
        declarations = program.declarations
        if len(declarations) != 1 or not isinstance(
            declarations[0], _ast.ExprStmt
        ):
            raise EvalError(":explain takes a single relational expression")
        catalog = Catalog()
        plan = self._compile_plan(declarations[0].expr, catalog)
        plan = optimize(plan, catalog)
        return {"text": explain_analyze(plan, catalog)}

    def _stat_health(self, **__) -> Dict[str, object]:
        return {"text": _monitor.format_health(_monitor.health_report())}

    def _stat_slow(
        self, action: str = "report", count: int = 10, threshold: float = 0.0, **__
    ) -> Dict[str, object]:
        if action == "on":
            log = _slowlog.enable()
            return {
                "text": "slow-query log on (threshold %.1fms)"
                % log.threshold_ms
            }
        if action == "off":
            _slowlog.disable()
            return {"text": "slow-query log off"}
        if action == "threshold":
            _slowlog.set_threshold(float(threshold))
            return {"text": "slow threshold %.1fms" % float(threshold)}
        return {"text": _slowlog.slowlog_report(int(count))}

    def _stat_watch(self, horizon: Optional[float] = None, **__) -> Dict[str, object]:
        monitor = _monitor.enable()
        monitor.tick()
        return {
            "text": monitor.format(
                horizon=float(horizon) if horizon is not None else None
            )
        }

    def _stat_metrics(self, **__) -> Dict[str, object]:
        return {"text": _monitor.render_openmetrics()}

    def _stat_events(
        self, action: str = "show", count: int = 20, mine: bool = False, **__
    ) -> Dict[str, object]:
        if action == "on":
            _events.enable()
            return {"text": "journal on"}
        if action == "off":
            _events.disable()
            return {"text": "journal off"}
        journal = _events.CURRENT
        if not journal.enabled:
            return {"text": "journal is off — :events on"}
        source = self.journal if mine else journal
        recent = source.events(int(count))
        if not recent:
            return {"text": "(journal is empty)"}
        return {"text": "\n".join(event.format() for event in recent)}

    def _stat_adaptive(self, action: str = "status", **__) -> Dict[str, object]:
        if action == "on":
            _adaptive.enable()
            return {"text": "adaptive estimation on"}
        if action == "off":
            _adaptive.disable()
            return {"text": "adaptive estimation off"}
        store = _adaptive.ADAPTIVE
        return {
            "text": "adaptive estimation is %s (%d keys)"
            % ("on" if store.enabled else "off", len(store))
        }

    def _stat_columnar(self, action: str = "status", **__) -> Dict[str, object]:
        if action == "on":
            _columnar.enable()
            return {"text": "columnar execution on"}
        if action == "off":
            _columnar.disable()
            return {"text": "columnar execution off"}
        registry = _metrics.REGISTRY
        return {
            "text": "columnar execution is %s (%d plans lowered, %d batches,"
            " %d rows)"
            % (
                "on" if _columnar.COLUMNAR.enabled else "off",
                registry.value("columnar.lowered"),
                registry.value("columnar.batches"),
                registry.value("columnar.rows"),
            )
        }

    def _stat_trace(self, action: str = "status", **__) -> Dict[str, object]:
        if action == "on":
            _trace.enable()
            return {"text": "tracing on"}
        if action == "off":
            _trace.disable()
            return {"text": "tracing off"}
        return {
            "text": "tracing is %s"
            % ("on" if _trace.CURRENT.enabled else "off")
        }

    def _stat_profile(
        self, action: str = "report", top: int = 10, **__
    ) -> Dict[str, object]:
        if action == "on":
            _profile.enable()
            return {"text": "profiling on"}
        if action == "off":
            _profile.disable()
            return {"text": "profiling off"}
        return {"text": _profile.profile_report(int(top))}

    def _stat_requests(self, count: int = 10, **__) -> Dict[str, object]:
        return {"text": self.request_log.format(int(count))}

    def _stat_sessions(self, **__) -> Dict[str, object]:
        if self.broker is None:
            return {
                "text": "(no broker — single local session)\n%s"
                % self.describe()
            }
        return {"text": self.broker.format_sessions()}

    # -- obs: structured observability pulls ---------------------------------

    def obs(self, what: str, **args: object) -> Dict[str, object]:
        """Answer one structured observability request with plain data.

        The ``stat`` surface renders text for humans; this one hands
        back the underlying records — what a remote ``:export`` merges
        into a trace file and tooling consumes.  Unknown kinds raise
        :class:`~repro.errors.EvalError` (an ``error`` frame remotely).
        """
        self._touch()
        handler = getattr(self, "_obs_%s" % what, None)
        if what not in OBS_KINDS or handler is None:
            raise EvalError("unknown obs kind %r" % (what,))
        return handler(**args)

    def _obs_spans(self, count: int = 32, **__) -> Dict[str, object]:
        """Per-request span trees of the most recent traced requests.

        ``mono`` is the session process's ``perf_counter()`` at answer
        time — alongside the handshake clock sample it lets a client
        sanity-check its offset estimate.
        """
        requests = []
        for event in self.request_log.last(int(count)):
            if event.spans:
                requests.append(
                    {
                        "request_id": event.request_id,
                        "spans": event.spans,
                    }
                )
        return {
            "session": self.session_id,
            "mono": time.perf_counter(),
            "requests": requests,
        }

    def _obs_profile(self, top: int = 0, **__) -> Dict[str, object]:
        ops = _profile.CURRENT.snapshot()
        if top:
            ops = ops[: int(top)]
        return {
            "session": self.session_id,
            "enabled": bool(_profile.CURRENT.enabled),
            "ops": ops,
        }

    def _obs_journal(self, count: int = 100, **__) -> Dict[str, object]:
        return {
            "session": self.session_id,
            "events": [
                event.to_dict() for event in self.journal.events(int(count))
            ],
        }

    def _obs_requests(
        self, count: int = 20, spans: bool = False, **__
    ) -> Dict[str, object]:
        return {
            "session": self.session_id,
            "requests": [
                event.to_dict(spans=bool(spans))
                for event in self.request_log.last(int(count))
            ],
        }

    # -- feedback / explain internals (moved out of the REPL) ---------------

    def _feedback_table(self, count: int = 10) -> str:
        recent = _feedback.FEEDBACK.last(count)
        if not recent:
            return "(no feedback recorded — run :explain on a selection)"
        lines = [
            "%-28s %-10s %9s %8s %8s %6s %6s %12s"
            % ("predicate", "relation", "estimate", "rows_in",
               "rows_out", "sel", "drift", "blend")
        ]
        for obs in recent:
            posterior = _adaptive.ADAPTIVE.posterior(
                obs.relation, obs.attribute, obs.op, obs.operand,
                epoch=obs.epoch,
            )
            blend_text = (
                "%.3f (w=%.1f)" % (posterior.mean, posterior.weight)
                if posterior is not None
                else "-"
            )
            lines.append(
                "%-28s %-10s %9.1f %8d %8d %6.3f %6.2f %12s"
                % (
                    obs.predicate[:28],
                    (obs.relation or "-")[:10],
                    obs.estimate,
                    obs.rows_in,
                    obs.rows_out,
                    obs.observed_selectivity,
                    obs.drift_ratio,
                    blend_text,
                )
            )
        return "\n".join(lines)

    def _compile_plan(self, expr: "_ast.Expr", catalog: Catalog) -> Plan:
        """Translate a relational DBPL expression into a query plan.

        Supported shapes: a variable bound to a flat relation (becomes a
        ``Scan``, registered in ``catalog`` — with fresh statistics when
        the name was ``analyze``d), ``rjoin(a, b)``, ``rproject(a,
        [labels])``, and ``rmatch(a, {field = literal, ...})`` (one
        equality selection per field).
        """
        if isinstance(expr, _ast.Var):
            value = self._interp._globals.lookup(expr.name)
            if not isinstance(value, GeneralizedRelation):
                raise EvalError("%s is not a relation" % expr.name)
            schema = flat_schema_of(value)
            if schema is None:
                raise EvalError(
                    "%s is not flat (partial or nested members); :explain"
                    " plans over flat relations only" % expr.name
                )
            catalog.bind(expr.name, FlatRelation.from_generalized(value, schema))
            if expr.name in self._table_stats:
                catalog.analyze(expr.name)
            return scan(expr.name)
        if isinstance(expr, _ast.Apply) and isinstance(
            expr.function, _ast.Var
        ):
            function = expr.function.name
            arguments = expr.arguments
            if function == "rjoin" and len(arguments) == 2:
                return self._compile_plan(arguments[0], catalog).join(
                    self._compile_plan(arguments[1], catalog)
                )
            if function == "rproject" and len(arguments) == 2:
                labels_expr = arguments[1]
                if not isinstance(labels_expr, _ast.ListLit) or not all(
                    isinstance(e, _ast.StringLit)
                    for e in labels_expr.elements
                ):
                    raise EvalError(
                        ":explain needs a literal label list in rproject"
                    )
                return self._compile_plan(arguments[0], catalog).project(
                    [e.value for e in labels_expr.elements]
                )
            if function == "rmatch" and len(arguments) == 2:
                pattern = arguments[1]
                if not isinstance(pattern, _ast.RecordLit):
                    raise EvalError(
                        ":explain needs a literal record pattern in rmatch"
                    )
                plan = self._compile_plan(arguments[0], catalog)
                for label, field in pattern.fields:
                    if not isinstance(
                        field,
                        (
                            _ast.IntLit,
                            _ast.FloatLit,
                            _ast.StringLit,
                            _ast.BoolLit,
                        ),
                    ):
                        raise EvalError(
                            ":explain needs scalar literals in the rmatch"
                            " pattern; %s is not one" % label
                        )
                    plan = plan.where(eq(label, field.value))
                return plan
        raise EvalError(
            ":explain supports relation variables, rjoin, rproject and"
            " rmatch only"
        )

    def __repr__(self) -> str:
        return "Session(%r, requests=%d)" % (self.session_id, self.requests)
