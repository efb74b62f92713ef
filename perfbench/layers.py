"""Per-layer metrics from the traced server's span dumps.

``launch.py`` records spans in the server process; this module turns
the dumps of one run's traced rounds, plus the load generator's own
round trips, into the ``per_layer`` metrics of ``BENCHMARK.json`` and
the printed per-layer table.

Scopes.  A dump holds the server's whole life: set-up, the warm-up
that touches every layer once, and the load.  A metric is computed
over the *load window* (spans that started after the load mark), and
over the whole life only for a layer the load never reached — the
table marks those rows ``(set-up)``.  "Per request" divides by the
requests the server answered in the same scope.

The p50 breakdown joins server spans to client round trips by the
request id every ``run`` frame carries.  For the requests whose round
trip lies between the 45th and 55th percentile, each row is the mean
self time of a layer; ``server.wire`` is the round trip minus all
server-side span time (client framing, loopback TCP, event-loop
scheduling); the unattributed residual is what remains — the
dispatcher's own code between the executor hop and the session.
"""

from __future__ import annotations

import statistics

# (metric stem, span name, p50 taken over self time rather than duration)
TIMED = (
    ("server.protocol.decode", "server.protocol.decode", False),
    ("server.protocol.encode", "server.protocol.encode", False),
    ("server.broker.queue_wait", "server.broker.queue_wait", False),
    ("server.broker.run", "server.broker.run", False),
    ("server.session.self", "server.session", True),
    ("lang.parser.parse", "lang.parser.parse", False),
    ("lang.checker.check", "lang.checker.check", False),
    ("lang.eval.self", "lang.eval", True),
    ("core.relation.join", "core.relation.join", False),
    ("core.relation.algebra", "core.relation.algebra", False),
    ("core.flat.convert", "core.flat.convert", False),
    ("core.flat.join", "core.flat.join", False),
    ("core.kernel.join", "core.kernel.join", False),
    ("core.query.optimize", "core.query.optimize", False),
    ("core.query.execute", "core.query.execute", False),
    ("persistence.serialize.encode", "persistence.serialize.encode", False),
    ("persistence.serialize.decode", "persistence.serialize.decode", False),
    ("persistence.mvcc.get", "persistence.mvcc.get", False),
    ("persistence.mvcc.put", "persistence.mvcc.put", False),
    ("persistence.mvcc.commit", "persistence.mvcc.commit", False),
    ("persistence.store.batch", "persistence.store.batch", False),
    ("persistence.store.sync", "persistence.store.sync", False),
)

# Metrics derived from counters, span extras, or the run itself:
# (name, unit, better).
DERIVED = (
    ("server.wire_us", "us", "lower"),
    ("server.wire_busy_us", "us", "lower"),
    ("server.protocol.frame_bytes", "bytes", "lower"),
    ("lang.parser.repeat_share", "ratio", "higher"),
    ("core.relation.fastpath_hit_ratio", "ratio", "higher"),
    ("core.kernel.pairs_tried", "pairs/call", "lower"),
    ("core.kernel.pruned_ratio", "ratio", "higher"),
    ("core.columnar.lowered", "plans/call", "higher"),
    ("core.columnar.batches", "batches/call", "lower"),
    ("core.columnar.scan_cache_hit_ratio", "ratio", "higher"),
    ("persistence.mvcc.conflicts", "count", "lower"),
    ("persistence.mvcc.commits_per_attempt", "ratio", "higher"),
    ("persistence.store.syncs_per_commit", "ratio", "lower"),
    ("persistence.store.bytes_per_user_byte", "ratio", "lower"),
    ("persistence.store.replay_s", "s", "lower"),
    ("persistence.store.replay_records", "count", "lower"),
    ("tracing_overhead", "ratio", "lower"),
    ("unattributed_us", "us", "lower"),
    ("attributed_share", "ratio", "higher"),
)


def metric_specs():
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = []
    for stem, __, __ in TIMED:
        specs.append((stem + "_us", "us", "lower"))
        specs.append((stem + "_calls", "calls/req", "lower"))
        specs.append((stem + "_busy_us", "us", "lower"))
    specs.extend(DERIVED)
    return specs


class _Scope:
    """Spans and counter deltas of one scope (load window or whole life)."""

    def __init__(self):
        self.spans = {}  # name -> list of (duration, self, request, extra)
        self.counters = {}
        self.requests = 0

    def add_counters(self, after, before):
        for name, value in after.items():
            self.counters[name] = self.counters.get(name, 0) + value - before.get(name, 0)
        self.requests = self.counters.get("server.requests", 0)

    def count(self, name):
        return self.counters.get(name, 0)


def _ratio(num, den):
    return num / den if den else 0.0


class Analysis:
    """Per-layer metrics over the dumps of one run's traced rounds."""

    def __init__(self, rounds):
        """``rounds``: ``(dump, {request_id: seconds})`` per traced round.

        Request ids restart with every server, so requests are keyed by
        ``(round, request id)``.
        """
        self.window, self.life = _Scope(), _Scope()
        self.by_request = {}
        self.round_trips = {}
        for index, (dump, round_trips) in enumerate(rounds):
            mark = dump["mark"]
            self.window.add_counters(dump["counters_end"], dump["counters_mark"])
            self.life.add_counters(dump["counters_end"], {})
            for name, start, duration, own, request, extra in dump["spans"]:
                item = (duration, own, request, extra)
                self.life.spans.setdefault(name, []).append(item)
                if start >= mark:
                    self.window.spans.setdefault(name, []).append(item)
                    if request is not None:
                        rows = self.by_request.setdefault((index, request), {})
                        rows[name] = rows.get(name, 0.0) + own
            self.round_trips.update(
                ((index, request), rtt) for request, rtt in round_trips.items()
                if (index, request) in self.by_request)

    def scope_of(self, name):
        return self.window if self.window.spans.get(name) else self.life

    def spans_of(self, name):
        return self.scope_of(name).spans.get(name, [])

    def timed(self, name, use_self):
        """``(p50 us, calls per request, busy us per request)`` of a span."""
        scope = self.scope_of(name)
        items = scope.spans.get(name, [])
        timings = [item[1] if use_self else item[0] for item in items]
        return (statistics.median(timings) * 1e6 if timings else 0.0,
                _ratio(len(items), scope.requests),
                _ratio(sum(item[1] for item in items), scope.requests) * 1e6)

    def metrics(self, extra):
        """The per-layer metric values; ``extra`` supplies run-level ones."""
        values = {}
        for stem, name, use_self in TIMED:
            p50, calls, busy = self.timed(name, use_self)
            values[stem + "_us"] = p50
            values[stem + "_calls"] = calls
            values[stem + "_busy_us"] = busy
        wires = self.wires()
        values["server.wire_us"] = statistics.median(wires) * 1e6 if wires else 0.0
        values["server.wire_busy_us"] = statistics.fmean(wires) * 1e6 if wires else 0.0
        frames = self.spans_of("server.protocol.decode") + self.spans_of("server.protocol.encode")
        values["server.protocol.frame_bytes"] = _ratio(sum(f[3] for f in frames), len(frames))
        parses = self.spans_of("lang.parser.parse")
        values["lang.parser.repeat_share"] = _ratio(sum(p[3] for p in parses), len(parses))
        values["core.relation.fastpath_hit_ratio"] = self._counter_ratio(
            ["relation.join_fastpath.hit"],
            ["relation.join_fastpath.hit", "relation.join_fastpath.miss"])
        values["core.kernel.pairs_tried"] = self._counter_ratio(
            ["relation.join.pairs_tried"], ["relation.join"])
        values["core.kernel.pruned_ratio"] = self._counter_ratio(
            ["relation.join.pairs_pruned"], ["relation.join.pairs"])
        for metric, counter, span in (
            ("core.columnar.lowered", "columnar.lowered", "core.query.optimize"),
            ("core.columnar.batches", "columnar.batches", "core.query.execute"),
        ):
            values[metric] = _ratio(self.scope_of(span).count(counter), len(self.spans_of(span)))
        values["core.columnar.scan_cache_hit_ratio"] = self._counter_ratio(
            ["columnar.scan.cache_hits"],
            ["columnar.scan.cache_hits", "columnar.scan.cache_misses"])
        values["persistence.mvcc.conflicts"] = float(self.window.count("txn.conflict"))
        values["persistence.mvcc.commits_per_attempt"] = self._counter_ratio(
            ["txn.commit"], ["txn.commit", "txn.conflict"])
        values["persistence.store.syncs_per_commit"] = self._counter_ratio(
            ["store.syncs"], ["store.batch_commits"])
        user_bytes = sum(b[3] for b in self.spans_of("persistence.store.batch"))
        values["persistence.store.bytes_per_user_byte"] = _ratio(
            self.scope_of("persistence.store.batch").count("store.bytes_written"), user_bytes)
        band = self.p50_band()
        values["unattributed_us"] = band["unattributed"] * 1e6
        values["attributed_share"] = band["attributed_share"]
        values.update(extra)
        return values

    def _counter_ratio(self, numerator, denominator):
        for scope in (self.window, self.life):
            den = sum(scope.count(name) for name in denominator)
            if den:
                return sum(scope.count(name) for name in numerator) / den
        return 0.0

    def wires(self):
        return [rtt - sum(self.by_request[request].values())
                for request, rtt in self.round_trips.items()]

    def p50_band(self):
        """Mean per-layer self time of the requests around the p50 round trip."""
        ordered = sorted(self.round_trips.items(), key=lambda item: item[1])
        if not ordered:
            return {"rows": [], "rtt": 0.0, "p50": 0.0, "unattributed": 0.0,
                    "attributed_share": 0.0, "requests": 0}
        low, high = int(len(ordered) * 0.45), max(int(len(ordered) * 0.55), int(len(ordered) * 0.45) + 1)
        band = ordered[low:high]
        totals = {}
        for request, rtt in band:
            for name, own in self.by_request[request].items():
                totals[name] = totals.get(name, 0.0) + own
            totals["server.wire"] = totals.get("server.wire", 0.0) + rtt - sum(
                self.by_request[request].values())
        mean_rtt = statistics.fmean(rtt for __, rtt in band)
        rows = [(name, total / len(band)) for name, total in totals.items()
                if name != "server.broker.run"]
        rows.sort(key=lambda row: -row[1])
        attributed = sum(value for __, value in rows)
        return {
            "rows": rows,
            "rtt": mean_rtt,
            "p50": statistics.median(rtt for __, rtt in ordered),
            "unattributed": mean_rtt - attributed,
            "attributed_share": _ratio(attributed, mean_rtt),
            "requests": len(band),
        }

    def table(self):
        """The printed per-layer table (lines)."""
        lines = ["per-layer (traced rounds; p50 per call, calls and busy = self"
                 " time per request):",
                 "  %-32s %10s %10s %12s" % ("layer", "p50_us", "calls/req", "busy_us/req")]
        for stem, name, use_self in TIMED:
            lines.append("  %-32s %10.1f %10.3f %12.1f%s" % (
                (stem,) + self.timed(name, use_self)
                + ("" if self.scope_of(name) is self.window else "  (set-up)",)))
        band = self.p50_band()
        lines.append("p50 breakdown: %d requests around the p50 round trip"
                     " (band mean %.1f us, p50 %.1f us):"
                     % (band["requests"], band["rtt"] * 1e6, band["p50"] * 1e6))
        for name, value in band["rows"]:
            lines.append("  %-32s %10.1f us %6.1f%%" % (
                name, value * 1e6, 100.0 * _ratio(value, band["rtt"])))
        lines.append("  %-32s %10.1f us %6.1f%%" % (
            "unattributed (dispatcher self)", band["unattributed"] * 1e6,
            100.0 * _ratio(band["unattributed"], band["rtt"])))
        lines.append("  attributed share of the band's round trip: %.1f%%"
                     % (100.0 * band["attributed_share"]))
        return lines
