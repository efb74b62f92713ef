"""The workloads: their inputs, their request streams, their oracle.

``point`` and ``ingest`` are the benchmark's workloads (``BENCHMARK.json``).
``analytic`` runs the same way (``--workload analytic``) but is not one
of them: on a two-core shared machine its engine-bound rounds move by
10–40% with the neighbours' load (a server pinned to one core is steady
while that core is quiet and 25% slower while it is not), so two sets
of ten runs of the same code do not agree within any usable bound.

Every workload is generated from the ``--seed``; the server only ever
sees the generated DBPL sources.  A workload object holds the load
generator's *model* of what each reply must be — arithmetic computed
here, interned values from a ledger of acknowledged writes, and join,
``rcount`` and ``explain`` cardinalities computed once at set-up with
``repro.core`` in-process — and every step checks its reply against it.

A step is a callable ``step(client, call)``: it issues one or more
requests through ``call(kind, send, expect)`` (see ``run.Caller``),
which times the round trip, checks the reply and records the outcome.
``call`` returns the reply, or ``None`` when the request failed.
"""

from __future__ import annotations

import bisect
import itertools
import random
import string
import threading

# ---------------------------------------------------------------------------
# Reply rendering (the oracle's own, independent of the server's printer)
# ---------------------------------------------------------------------------


def render(value):
    """A model value as the server prints it: sorted record labels."""
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%s = %s" % (label, render(value[label])) for label in sorted(value)
        )
    if isinstance(value, str):
        return '"%s"' % value
    return str(value)


def record_type(fields):
    """A record type as DBPL source and as the server prints it."""
    return "{%s}" % "; ".join("%s: %s" % item for item in sorted(fields.items()))


def type_source(fields):
    return "{%s}" % ", ".join("%s: %s" % item for item in sorted(fields.items()))


def value_equals(expected):
    """An ``expect`` for ``run`` replies: the printed value is ``expected``."""
    return lambda reply: reply.get("value") == expected


def is_declaration(reply):
    return reply.get("value") is None


class Zipf:
    """Ranks 0..n-1 drawn with probability proportional to 1/(rank+1)^s."""

    def __init__(self, n, s, rng):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        self.cumulative = list(itertools.accumulate(w / total for w in weights))
        self.rng = rng

    def draw(self):
        index = bisect.bisect_left(self.cumulative, self.rng.random())
        return min(index, len(self.cumulative) - 1)


def _mix(schedule):
    """Each request kind's share of a step schedule."""
    return {kind: schedule.count(kind) / len(schedule) for kind in sorted(set(schedule))}


def _payload(rng, length):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


# ---------------------------------------------------------------------------
# Shared set-up: the warm-up that touches every layer once
# ---------------------------------------------------------------------------

PROBE = {"Seq": 7, "Who": -1}
PROBE_TYPE = {"Seq": "Int", "Who": "Int"}


def warmup_steps():
    """Requests every workload's set-up sends once, on its set-up session.

    They finish lazy imports and caches before the timed load, and give
    every layer of the per-layer table at least one call on every
    workload: a flat join (fast path), a join over partial records
    (kernel), an ``rmatch``, an ``explain`` above the columnar break-even (optimizer
    and columnar engine), an autocommit ``extern`` of the restart probe
    and its ``intern`` (MVCC get/put, serializer, store).
    """
    wa = ", ".join("{Wk = %d, Wv = %d}" % (i, i % 5) for i in range(40))
    wb = ", ".join('{Wv = %d, Wn = "b%d"}' % (j, j) for j in range(5))
    wp = ", ".join(
        "{Wv = %d, Wx = %d}" % (v, v) for v in range(5)
    ) + ", " + ", ".join("{Wv = %d, Wy = %d}" % (v, 10 + v) for v in range(5))
    return [
        ("setup", lambda c: c.run("let wa = relation([%s]); let wb = relation([%s]);"
                                  " let wp = relation([%s])" % (wa, wb, wp)),
         is_declaration),
        ("setup", lambda c: c.run("rcount(rjoin(wa, wb))"), value_equals("40")),
        ("setup", lambda c: c.run("rcount(rjoin(wp, wb))"), value_equals("10")),
        ("setup", lambda c: c.run("rcount(rmatch(wa, {Wv = 2}))"), value_equals("8")),
        ("setup", lambda c: c.stat("columnar", action="on"),
         lambda reply: "on" in reply.get("text", "")),
        ("setup", lambda c: c.stat("explain", source='rmatch(rjoin(wa, wb), {Wn = "b1"})'),
         lambda reply: explain_rows(reply) == 8),
        ("setup", lambda c: c.run('extern("probe", dynamic %s)' % render(PROBE)),
         is_declaration),
        ("setup", lambda c: c.run("coerce intern(\"probe\") to %s" % type_source(PROBE_TYPE)),
         value_equals(render(PROBE))),
        ("setup", lambda c: c.run("rcount(wa) + 1", mode="type"), value_equals("Int")),
    ]


def explain_rows(reply):
    """The row count of an ``explain`` reply's top plan node."""
    text = reply.get("text", "")
    first = text.splitlines()[0] if text else ""
    marker = first.find(" rows=")
    if marker < 0:
        return None
    digits = first[marker + 6:].split()[0].rstrip(")")
    return int(digits) if digits.isdigit() else None


def seed_source(handles):
    """One DBPL source that externs every handle of ``handles``."""
    return "; ".join(
        'extern("%s", dynamic %s)' % (handle, render(value))
        for handle, value in sorted(handles.items())
    )


class Workload:
    """What the three workloads share: the ledger and the durability check."""

    name = ""
    why = ""
    clients = 1
    sized_by_count = False
    # Steps per throughput window: one cycle of the workload's kind
    # schedule, so every window holds the same mix of requests.
    window = 1

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.rng = random.Random(seed)
        # handle -> latest acknowledged value (the durability oracle).
        self.ledger = {"probe": dict(PROBE)}
        self.handle_types = {"probe": PROBE_TYPE}
        self.sent = 0
        self.distinct = set()
        self._sources = threading.Lock()

    # -- set-up -------------------------------------------------------------

    def prepare(self):
        """Oracle work done in-process before the round's server starts."""

    def seed_handles(self):
        """Handles externed at set-up in one transaction: ``{handle: value}``."""
        return {}

    def bind(self, index):
        """Session-local bindings of load client ``index`` (DBPL sources)."""
        return []

    def steps(self, index):
        """The endless step stream of load client ``index``."""
        raise NotImplementedError

    def note_source(self, source):
        with self._sources:
            self.sent += 1
            self.distinct.add(source)

    def repeat_share(self):
        return 1.0 - len(self.distinct) / self.sent if self.sent else 0.0

    def describe(self):
        return {"workload": self.name, "why": self.why, "clients": self.clients,
                "loop": "closed"}

    # -- durability ---------------------------------------------------------

    def verify_steps(self):
        """After a restart: every acknowledged write interns exactly."""
        steps = []
        for handle, value in sorted(self.ledger.items()):
            source = "coerce intern(\"%s\") to %s" % (
                handle, type_source(self.handle_types[handle]))
            steps.append(("verify", (lambda s: lambda c: c.run(s))(source),
                          value_equals(render(value))))
        return steps


# ---------------------------------------------------------------------------
# point: short reads, where the engine does almost nothing
# ---------------------------------------------------------------------------

POINT_TYPE = {"Id": "Int", "Name": "String", "Score": "Int"}
# A fixed kind schedule keeps the request mix identical across seeds;
# the seed only chooses which texts of each kind's pool are sent.
POINT_SCHEDULE = ("intern", "arith", "intern", "type", "arith", "intern",
                  "arith", "type")


class Point(Workload):
    name = "point"
    why = ("short reads: wire, loop, executor hop, Session.run, parse, check,"
           " MVCC get and deserialize carry the request; the engine idles")
    clients = 1
    window = len(POINT_SCHEDULE)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.keys = 16 if tiny else 256
        self.pool = 32 if tiny else 400
        self.zipf_s = 1.1
        rng = self.rng
        self.values = {
            "h%d" % k: {"Id": k, "Name": "n%d" % rng.randrange(10 ** 6),
                        "Score": rng.randrange(1000)}
            for k in range(self.keys)
        }
        self.ledger.update(self.values)
        self.handle_types.update({h: POINT_TYPE for h in self.values})
        self.bases = [rng.randrange(1, 10 ** 6) for _ in range(self.clients)]
        # A text's form (and, for type texts, its shape) follows from its
        # Zipf rank, so every seed sends the same mix of forms and the
        # seed only chooses the constants.
        self.arith = []
        for i in range(self.pool):
            a, b = rng.randrange(1, 1000), rng.randrange(1, 50)
            form = i % 3
            if form == 0:
                self.arith.append(("base + %d" % a, lambda x, a=a: x + a))
            elif form == 1:
                self.arith.append(("base * %d - %d" % (b, a), lambda x, a=a, b=b: x * b - a))
            else:
                self.arith.append(("(base + %d) * %d" % (a, b), lambda x, a=a, b=b: (x + a) * b))
        # Handles are ranked by a seeded permutation, texts by their index;
        # each pool is then drawn by Zipf.
        self.ranks = {"arith": list(range(self.pool)),
                      "intern": rng.sample(range(self.keys), self.keys),
                      "type": list(range(self.pool))}
        self.type_texts = []
        for i in range(self.pool):
            if i % 2:
                k = rng.randrange(self.keys)
                fields = dict(rng.sample(sorted(POINT_TYPE.items()), 1 + i // 2 % 3))
                self.type_texts.append(("coerce intern(\"h%d\") to %s" % (k, type_source(fields)),
                                        record_type(fields)))
            else:
                self.type_texts.append(("base + %d" % rng.randrange(1000), "Int"))

    def seed_handles(self):
        return dict(self.values)

    def bind(self, index):
        return [("setup", lambda c, b=self.bases[index]: c.run("let base = %d" % b),
                 is_declaration)]

    def steps(self, index):
        rng = random.Random(self.seed * 1009 + index)
        zipf = {kind: Zipf(len(ranks), self.zipf_s, rng)
                for kind, ranks in self.ranks.items()}
        base = self.bases[index]
        for kind in itertools.cycle(POINT_SCHEDULE):
            pick = self.ranks[kind][zipf[kind].draw()]
            if kind == "arith":
                source, compute = self.arith[pick]
                yield self._step(kind, source, "eval", str(compute(base)))
            elif kind == "intern":
                handle = "h%d" % pick
                source = "coerce intern(\"%s\") to %s" % (handle, type_source(POINT_TYPE))
                yield self._step(kind, source, "eval", render(self.values[handle]))
            else:
                source, expected = self.type_texts[pick]
                yield self._step(kind, source, "type", expected)

    def _step(self, kind, source, mode, expected):
        self.note_source(source)
        return lambda client, call: call(
            kind, lambda: client.run(source, mode=mode), value_equals(expected))

    def describe(self):
        info = super().describe()
        info.update(keyspace=self.keys, pool_per_kind=self.pool,
                    zipf_s=self.zipf_s, record_fields=len(POINT_TYPE),
                    mix=_mix(POINT_SCHEDULE),
                    read_share=1.0, write_share=0.0)
        return info


# ---------------------------------------------------------------------------
# analytic: engine-bound queries on session-bound relations
# ---------------------------------------------------------------------------

ANALYTIC_SCHEDULE = (
    "flat_join", "rmatch", "kernel_join", "explain", "rproject", "explain",
    "flat_join", "rebind_f", "rmatch", "kernel_join", "explain", "rcount_d",
    "rmatch", "flat_join", "explain", "rebind_d", "rproject", "rmatch",
    "explain", "kernel_join",
)


class Analytic(Workload):
    name = "analytic"
    why = ("engine-bound: flat and partial-record joins, rmatch/rproject and"
           " a columnar explain on relations of thousands of rows")
    clients = 1
    window = len(ANALYTIC_SCHEDULE)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        rng = self.rng
        self.n_f, self.n_d, self.regions = (200, 10, 3) if tiny else (2000, 50, 10)
        self.n_p, self.n_q, self.n_k = (120, 40, 40) if tiny else (1200, 400, 400)
        self.f = [{"Id": i, "D": rng.randrange(self.n_d), "Amt": rng.randrange(10 ** 4)}
                  for i in range(self.n_f)]
        region_of = [j % self.regions for j in range(self.n_d)]
        rng.shuffle(region_of)
        self.d = [{"D": j, "Region": "r%d" % region_of[j]} for j in range(self.n_d)]
        self.p = [{"K": rng.randrange(self.n_k), ("A" if i % 2 else "B"): i}
                  for i in range(self.n_p)]
        self.q = [{"K": rng.randrange(self.n_k), ("C" if j % 2 else "E"): j}
                  for j in range(self.n_q)]
        self.f_inserts = 0
        self.d_inserts = 0
        self.expected = None

    def prepare(self):
        """Compute the oracle's cardinalities once, in-process."""
        from repro.core.relation import GeneralizedRelation

        f, d = GeneralizedRelation(self.f), GeneralizedRelation(self.d)
        p, q = GeneralizedRelation(self.p), GeneralizedRelation(self.q)
        joined = f.join(d)
        self.expected = {
            "flat_join": len(joined),
            "kernel_join": len(p.join(q)),
            "rproject": len(f.project(["D"])),
            "rcount_d": len(d),
            "rmatch": {k: len(f.matching({"D": k})) for k in range(self.n_d)},
            "explain": {
                r: len(joined.matching({"Region": "r%d" % r}).project(["Id", "Amt"]))
                for r in range(self.regions)
            },
        }

    def bind(self, index):
        def let(name, rows):
            source = "let %s = relation([%s])" % (
                name, ", ".join(render(row) for row in rows))
            return ("setup", lambda c: c.run(source), is_declaration)

        return [let("f", self.f), let("d", self.d), let("p", self.p), let("q", self.q)]

    def steps(self, index):
        rng = random.Random(self.seed * 1013 + index)
        expected = self.expected
        for kind in itertools.cycle(ANALYTIC_SCHEDULE):
            if kind == "flat_join":
                yield self._run(kind, "rcount(rjoin(f, d))", lambda: expected["flat_join"])
            elif kind == "kernel_join":
                yield self._run(kind, "rcount(rjoin(p, q))", lambda: expected["kernel_join"])
            elif kind == "rmatch":
                k = rng.randrange(self.n_d)
                yield self._run(kind, "rcount(rmatch(f, {D = %d}))" % k,
                                lambda k=k: expected["rmatch"][k])
            elif kind == "rproject":
                yield self._run(kind, 'rcount(rproject(f, ["D"]))',
                                lambda: expected["rproject"] + self.f_inserts)
            elif kind == "rcount_d":
                yield self._run(kind, "rcount(d)",
                                lambda: expected["rcount_d"] + self.d_inserts)
            elif kind == "explain":
                r = rng.randrange(self.regions)
                yield self._explain(
                    'rproject(rmatch(rjoin(f, d), {Region = "r%d"}), ["Id", "Amt"])' % r,
                    expected[kind][r])
            elif kind == "rebind_f":
                # A fresh D far outside d's keys: the join is unchanged,
                # rproject(f, ["D"]) gains one row.
                n = 10 ** 6 + self.f_inserts + self.d_inserts
                yield self._rebind(
                    "let f = rinsert(f, {Amt = 1, D = %d, Id = %d})" % (n, n), "f")
            else:
                n = 2 * 10 ** 6 + self.f_inserts + self.d_inserts
                yield self._rebind(
                    'let d = rinsert(d, {D = %d, Region = "r%d"})'
                    % (n, rng.randrange(self.regions)), "d")

    def _run(self, kind, source, count):
        self.note_source(source)
        return lambda client, call: call(
            kind, lambda: client.run(source), lambda reply: reply.get("value") == str(count()))

    def _explain(self, source, rows):
        self.note_source(source)
        return lambda client, call: call(
            "explain", lambda: client.stat("explain", source=source),
            lambda reply: explain_rows(reply) == rows)

    def _rebind(self, source, relation):
        self.note_source(source)

        def step(client, call):
            if call("rebind", lambda: client.run(source), is_declaration) is not None:
                if relation == "f":
                    self.f_inserts += 1
                else:
                    self.d_inserts += 1

        return step

    def describe(self):
        info = super().describe()
        info.update(relations={"f": self.n_f, "d": self.n_d, "p": self.n_p, "q": self.n_q},
                    regions=self.regions, partial_keyspace=self.n_k,
                    mix=_mix(ANALYTIC_SCHEDULE),
                    read_share=18 / 20, write_share=2 / 20,
                    columnar="switched on at set-up with stat columnar on")
        return info


# ---------------------------------------------------------------------------
# ingest: snapshot transactions and autocommit writes
# ---------------------------------------------------------------------------

INGEST_TYPE = {"Payload": "String", "Seq": "Int", "Who": "Int"}
INGEST_SCHEDULE = ("txn", "extern", "txn_shared", "extern")


class Ingest(Workload):
    name = "ingest"
    sized_by_count = True
    why = ("commits: begin/intern/extern/commit and autocommit externs, each"
           " an fsynced atomic batch, on disjoint keys so no conflict is legal")
    clients = 1
    window = len(INGEST_SCHEDULE)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        rng = self.rng
        self.own_keys = 8 if tiny else 64
        self.shared_keys = 4 if tiny else 16
        self.units = 150 if tiny else 4000
        self.payload = 48
        self.shared = {"s%d" % j: {"Seq": j, "Who": -2, "Payload": _payload(rng, self.payload)}
                       for j in range(self.shared_keys)}
        self.own = {"w%d_%d" % (c, i): {"Seq": 0, "Who": c, "Payload": _payload(rng, self.payload)}
                    for c in range(self.clients) for i in range(self.own_keys)}
        self.ledger.update(self.shared)
        self.ledger.update(self.own)
        self.handle_types.update({h: INGEST_TYPE for h in list(self.shared) + list(self.own)})

    def seed_handles(self):
        handles = dict(self.shared)
        handles.update(self.own)
        return handles

    def steps(self, index):
        """``units`` steps per round for client ``index`` (then stops)."""
        rng = random.Random(self.seed * 1019 + index)
        for unit in range(self.units):
            kind = INGEST_SCHEDULE[unit % len(INGEST_SCHEDULE)]
            handle = "w%d_%d" % (index, rng.randrange(self.own_keys))
            value = {"Seq": 1 + unit * self.clients + index, "Who": index,
                     "Payload": _payload(rng, self.payload)}
            shared = "s%d" % rng.randrange(self.shared_keys) if kind == "txn_shared" else None
            yield self._unit(kind, handle, value, shared)

    def _unit(self, kind, handle, value, shared):
        write = 'extern("%s", dynamic %s)' % (handle, render(value))
        self.note_source(write)

        def read(client, call, key):
            source = "(coerce intern(\"%s\") to {Seq: Int}).Seq" % key
            self.note_source(source)
            return call("intern", lambda: client.run(source),
                        lambda reply: reply.get("value") == str(self.ledger[key]["Seq"]))

        def step(client, call):
            if kind == "extern":
                if call("extern", lambda: client.run(write), is_declaration) is not None:
                    self.ledger[handle] = value
                return
            if call("begin", client.begin, lambda reply: "epoch" in reply) is None:
                return
            done = (shared is None or read(client, call, shared) is not None) and \
                read(client, call, handle) is not None and \
                call("extern", lambda: client.run(write), is_declaration) is not None
            if not done:
                call("abort", client.abort, lambda reply: True)
                return
            if call("commit", client.commit,
                    lambda reply: reply.get("written") == 1) is not None:
                self.ledger[handle] = value

        return step

    def describe(self):
        info = super().describe()
        info.update(own_keys_per_client=self.own_keys, shared_keys=self.shared_keys,
                    units_per_client_per_round=self.units, payload_chars=self.payload,
                    mix=_mix(INGEST_SCHEDULE),
                    requests_per_4_units={"reads": 3, "writes": 4, "begin": 2, "commit": 2},
                    read_share=3 / 11, write_share=4 / 11,
                    fsync="every commit and autocommit extern: one atomic batch, one fsync",
                    sized_by="operation count per round")
        return info


WORKLOADS = {cls.name: cls for cls in (Point, Analytic, Ingest)}
