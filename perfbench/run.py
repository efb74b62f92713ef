"""The served-request benchmark: closed loops against a DBPL server process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40   # every metric, every workload

Each run drives ``python -m repro.server <store> --port 0`` — a server
in its own process, default worker count, no other flags — from this
single load-generator process, over one blocking
``repro.server.Client`` connection.  The loop is closed: the client
sends its next request only after the reply, like the REPL and every
other DBPL client.  One client keeps the figures steady on a small
shared machine: on two cores a second one mostly measured the two
processes' threads queueing for the interpreter lock and the
processors — it added no throughput, doubled the median latency and
spread two to four times wider from run to run.

A run is a few *rounds*.  Each round spawns a server on a fresh store,
sets it up (warm-up, seeding transaction, session bindings — timed as
``setup_s``), drives the load, reads the server's peak RSS, SIGKILLs
it, then three times spawns a fresh server on the same store, times
its first correct ``intern`` (``restart_s``) and kills it again — the
first of them also checks that every acknowledged write interns
exactly — and finally reopens the store in-process for ``space_amp``
and the replay figures.  ``point`` and ``analytic`` split
``--seconds`` evenly over their rounds; ``ingest`` runs rounds of a
fixed operation count until ``--seconds`` of load have passed, so
every round leaves a log of the same size.  Set-up and restart times
are medians over the run.

Latency is the round trip of every load request (``Client.run``,
``stat``, ``begin``, ``commit``), a failed one counting as infinitely
slow; the p50 is gated, the p90 and p99 are printed beside it.
``throughput_rps`` is the rate of the median *window*, one cycle of
the workload's request schedule, so a stall of the shared machine
that lands in a few windows does not move it; the rate over the whole
load is printed beside it, as is the load's CPU time (server plus load
generator) per request.
``ops_ok_ratio`` is ``1 - failed / attempted`` over every checked
request of the run (set-up, load, durability check), whose failed
share is also printed as ``ops_failed_ratio``.

With ``--trace 1`` the rounds alternate between the plain server and
``perfbench/launch.py`` (the same server with spans at module
boundaries); the per-layer metrics come from the traced rounds and the
throughput gap between the two kinds is ``tracing_overhead``.

Every reply is checked against the workload's model (see
``workloads.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any check failed, 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("ops_ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("restart_s", "s"),
    ("space_amp", "ratio"),
    ("server_rss_mb", "MB"),
)

ROUNDS = 4
# Restarts timed per round; the durability check runs on the first.
RESTARTS = 3
LISTENING = re.compile(r"listening on [0-9.]+:(\d+)")


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """One server process: plain ``repro.server`` or the traced launcher."""

    def __init__(self, store, log_path, spans=None):
        if spans is None:
            command = [sys.executable, "-m", "repro.server", store, "--port", "0"]
        else:
            command = [sys.executable, os.path.join(HERE, "launch.py"),
                       "--spans", spans, store, "--port", "0"]
        self.spans = spans
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL)
        self.port = self._await_port(log_path)

    def _await_port(self, log_path, timeout=60.0):
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                found = LISTENING.search(line)
                if found:
                    return int(found.group(1))
        self.kill()
        with open(log_path, "rb") as log:
            tail = log.read()[-2000:].decode("utf-8", "replace")
        raise RuntimeError("server did not start:\n" + tail)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def _signal_and_wait(self, signum, path, timeout):
        if os.path.exists(path):
            os.remove(path)
        self.proc.send_signal(signum)
        deadline = time.monotonic() + timeout
        while not os.path.exists(path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server did not answer signal %d" % signum)
            time.sleep(0.005)

    def mark(self):
        """Tell the traced server that the measured load starts now."""
        self._signal_and_wait(signal.SIGUSR2, self.spans + ".mark", 30.0)

    def dump(self):
        """Have the traced server write its spans; returns the dump."""
        self._signal_and_wait(signal.SIGUSR1, self.spans, 120.0)
        with open(self.spans) as handle:
            return json.load(handle)

    def cpu_s(self):
        """User plus system CPU time of the server process so far."""
        with open("/proc/%d/stat" % self.proc.pid) as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def kill(self):
        """SIGKILL: a crash, as far as the store can tell."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()



# ---------------------------------------------------------------------------
# Timed, checked requests
# ---------------------------------------------------------------------------


class Caller:
    """Times, checks and records the requests of one client connection."""

    def __init__(self, client, errors):
        from repro.errors import ReproError

        self.client = client
        self.errors = errors
        self.transport_errors = (ReproError, OSError)
        self.samples = []  # (kind, start, seconds, ok) of load requests
        self.windows = []  # (seconds, successful requests) of each window
        self.round_trips = {}  # request id -> seconds, successful run frames
        self.attempted = 0
        self.failed = 0
        self.load = False

    def __call__(self, kind, send, expect):
        self.attempted += 1
        request_before = self.client.last_request_id
        start = time.perf_counter()
        try:
            reply = send()
        except self.transport_errors as exc:
            reply, problem = None, "%s: %s" % (type(exc).__name__, exc)
        else:
            problem = None if expect(reply) else "unexpected reply %r" % (
                {k: reply.get(k) for k in ("value", "text", "written") if k in reply},)
        elapsed = time.perf_counter() - start
        if self.load:
            self.samples.append((kind, start, elapsed, problem is None))
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append("%s: %s" % (kind, problem))
            return None
        request = self.client.last_request_id
        if self.load and request is not None and request != request_before:
            self.round_trips[request] = elapsed
        return reply


def _connect(port):
    from repro.server import Client

    return Client("127.0.0.1", port)


def _run_setup(caller, steps):
    for kind, send, expect in steps:
        caller(kind, (lambda s=send: s(caller.client)), expect)


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


class Round:
    """Set up, load, crash, restart, verify, inspect — one fresh store."""

    def __init__(self, workload, directory, traced, errors, servers):
        self.workload = workload
        self.directory = directory
        self.traced = traced
        self.errors = errors
        self.servers = servers
        self.store = os.path.join(directory, "store.log")
        self.log = os.path.join(directory, "server.log")
        self.callers = []
        self.result = {}

    def _spawn(self, traced=False):
        spans = os.path.join(self.directory, "spans.json") if traced else None
        server = Server(self.store, self.log, spans)
        self.servers.append(server)
        return server

    def run(self, seconds):
        from workloads import seed_source, warmup_steps

        workload = self.workload
        os.makedirs(self.directory, exist_ok=True)
        started = time.perf_counter()
        server = self._spawn(self.traced)
        setup = Caller(_connect(server.port), self.errors)
        self.callers.append(setup)
        _run_setup(setup, warmup_steps())
        handles = workload.seed_handles()
        _run_setup(setup, [
            ("setup", lambda c: c.begin(), lambda r: "epoch" in r),
            ("setup", lambda c: c.run(seed_source(handles)), lambda r: r.get("value") is None),
            ("setup", lambda c: c.commit(), lambda r: r.get("written") == len(handles)),
        ])
        setup.client.close()
        load = []
        for index in range(workload.clients):
            caller = Caller(_connect(server.port), self.errors)
            _run_setup(caller, workload.bind(index))
            load.append(caller)
        self.callers.extend(load)
        self.result["setup_s"] = time.perf_counter() - started

        if self.traced:
            server.mark()
        server_cpu, own = server.cpu_s(), os.times()
        self.result["load_s"] = self._drive(load, seconds)
        after = os.times()
        self.result["cpu_s"] = (server.cpu_s() - server_cpu + after.user - own.user
                                + after.system - own.system)
        self.result["rss_mb"] = server.peak_rss_mb()
        if self.traced:
            self.result["dump"] = server.dump()
        server.kill()
        for caller in load:
            caller.client.close()
        self._restart_and_verify()
        self._inspect_store()

    def _drive(self, callers, seconds):
        """The closed loop: one thread per client until time or steps run out."""
        deadline = None if seconds is None else time.perf_counter() + seconds
        failures = []

        window = self.workload.window

        def worker(index, caller):
            caller.load = True
            opened, first = time.perf_counter(), len(caller.samples)
            try:
                for count, step in enumerate(self.workload.steps(index), 1):
                    if deadline is not None and time.perf_counter() >= deadline:
                        break
                    step(caller.client, caller)
                    if count % window == 0:
                        closed = time.perf_counter()
                        ok = sum(1 for sample in caller.samples[first:] if sample[3])
                        caller.windows.append((closed - opened, ok))
                        opened, first = closed, len(caller.samples)
            except Exception as exc:  # re-raised below, on the main thread
                failures.append(exc)
            finally:
                caller.load = False

        threads = [threading.Thread(target=worker, args=(i, c), daemon=True)
                   for i, c in enumerate(callers)]
        # The load generator's own garbage collections would land in the
        # server's latency tail; its load loop makes no reference cycles
        # worth collecting in a run's length.
        gc.disable()
        try:
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if failures:
            raise failures[0]
        return elapsed

    def _restart_and_verify(self):
        from workloads import PROBE, PROBE_TYPE, render, type_source

        probe = 'coerce intern("probe") to %s' % type_source(PROBE_TYPE)
        self.result["restarts"] = []
        for attempt in range(RESTARTS):
            started = time.perf_counter()
            server = self._spawn(False)
            caller = Caller(_connect(server.port), self.errors)
            self.callers.append(caller)
            caller("restart", lambda: caller.client.run(probe),
                   lambda reply: reply.get("value") == render(PROBE))
            self.result["restarts"].append(time.perf_counter() - started)
            if attempt == 0:
                _run_setup(caller, self.workload.verify_steps())
            caller.client.close()
            server.kill()

    def _inspect_store(self):
        from repro.persistence.store import LogStore

        started = time.perf_counter()
        store = LogStore(self.store)
        self.result["replay_s"] = time.perf_counter() - started
        try:
            self.result["replay_records"] = store.record_count
            live = sum(len(json.dumps(store.get(key), separators=(",", ":")))
                       for key in store.keys())
        finally:
            store.close()
        self.result["space_amp"] = os.path.getsize(self.store) / live

    @property
    def samples(self):
        return [s for caller in self.callers for s in caller.samples]

    @property
    def round_trips(self):
        trips = {}
        for caller in self.callers:
            trips.update(caller.round_trips)
        return trips


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(name, seed, seconds, trace, tiny=False, inject_fault=False):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    rounds = 2 if tiny else ROUNDS
    if trace:
        rounds += rounds % 2  # alternate plain and traced rounds, evenly
    work = os.path.join(WORK, "%s-%d-%d" % (name, seed, os.getpid()))
    errors, servers, done = [], [], []
    load_seconds, index = 0.0, 0
    try:
        # point and analytic split --seconds over a fixed number of rounds;
        # ingest repeats fixed-size rounds until --seconds of load passed
        # (and, traced, until plain and traced rounds pair up).
        while index < rounds or (cls.sized_by_count and (
                load_seconds < seconds or (trace and index % 2))):
            workload = cls(seed * 100 + index, tiny=tiny)
            workload.prepare()
            if inject_fault:
                # A deliberately wrong model value: the durability check
                # must report it as a failed operation.
                workload.ledger["probe"] = dict(workload.ledger["probe"], Seq=-1)
            one = Round(workload, os.path.join(work, "round%d" % index),
                        bool(trace) and index % 2 == 1, errors, servers)
            one.run(None if cls.sized_by_count else seconds / rounds)
            load_seconds += one.result["load_s"]
            done.append((workload, one))
            index += 1
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return _report(done, errors, trace)


def _per_kind(rounds):
    """Sample count and median round trip (ms) of each request kind."""
    by_kind = {}
    for one in rounds:
        for kind, __, seconds, ok in one.samples:
            by_kind.setdefault(kind, []).append(seconds if ok else float("inf"))
    return {kind: {"n": len(times), "p50_ms": round(statistics.median(times) * 1e3, 3)}
            for kind, times in sorted(by_kind.items())}


def _report(done, errors, trace):
    from layers import Analysis, metric_specs

    attempted = sum(c.attempted for __, r in done for c in r.callers)
    failed = sum(c.failed for __, r in done for c in r.callers)
    plain = [r for __, r in done if not r.traced]
    traced = [r for __, r in done if r.traced]

    def median_of(rounds, key):
        return statistics.median(r.result[key] for r in rounds)

    def throughput(rounds):
        """Completed requests per second in the median window of the load.

        A window is one cycle of the workload's kind schedule, so every
        window holds the same mix; the median over thousands of them is
        not moved by a stall of the shared machine that lands in a few,
        as the total over the run is (printed beside it, not gated).
        """
        rates = [ok / seconds for one in rounds for caller in one.callers
                 for seconds, ok in caller.windows]
        if rates:
            return statistics.median(rates)
        return overall_throughput(rounds)  # runs too short for one window

    def overall_throughput(rounds):
        ok = sum(1 for r in rounds for s in r.samples if s[3])
        return ok / sum(r.result["load_s"] for r in rounds)

    info = done[0][0].describe()
    info.update(rounds=len(done), traced_rounds=len(traced),
                repeat_share=statistics.fmean(w.repeat_share() for w, __ in done),
                samples=sum(len(r.samples) for __, r in done),
                kinds=_per_kind(r for __, r in done),
                attempted=attempted, failed=failed,
                ops_failed_ratio=failed / attempted if attempted else 0.0)
    print("workload: " + json.dumps(info, sort_keys=True))
    for error in errors[:20]:
        print("FAILED " + error)

    if not trace:
        latencies = sorted(s[2] if s[3] else float("inf")
                           for r in plain for s in r.samples)
        metrics = {
            "latency_p50_ms": _quantile(latencies, 0.50) * 1e3,
            "throughput_rps": throughput(plain),
            "ops_ok_ratio": 1.0 - failed / attempted,
            "setup_s": median_of(plain, "setup_s"),
            "restart_s": statistics.median(t for r in plain for t in r.result["restarts"]),
            "space_amp": median_of(plain, "space_amp"),
            "server_rss_mb": median_of(plain, "rss_mb"),
        }
        units = dict(END_TO_END)
        print("end-to-end (%d load samples over %d rounds):" % (len(latencies), len(plain)))
    else:
        analysis = Analysis([(r.result["dump"], r.round_trips) for r in traced])
        for line in analysis.table():
            print(line)
        metrics = analysis.metrics({
            "persistence.store.replay_s": median_of(traced, "replay_s"),
            "persistence.store.replay_records": median_of(traced, "replay_records"),
            "tracing_overhead": throughput(plain) / throughput(traced) - 1.0,
        })
        units = {spec[0]: spec[1] for spec in metric_specs()}
        print("tracing overhead: %.1f%% (untraced %.1f rps vs traced %.1f rps)" % (
            100.0 * metrics["tracing_overhead"], throughput(plain), throughput(traced)))
        print("per-layer metrics:")
    for metric, value in metrics.items():
        print("  %-42s %14.6f %s" % (metric, value, units[metric]))
    if not trace:
        # Printed, not gated: on a small shared machine the tail moves with
        # the neighbours' noise far more than the median and throughput do.
        for q in (90, 99):
            print("  %-42s %14.6f ms (not gated)" % (
                "latency_p%d_ms" % q, _quantile(latencies, q / 100) * 1e3))
        print("  %-42s %14.6f 1/s (not gated)" % (
            "throughput_overall_rps", overall_throughput(plain)))
        print("  %-42s %14.6f us (not gated)" % (
            "cpu_us_per_request", 1e6 * sum(r.result["cpu_s"] for r in plain)
            / sum(1 for r in plain for s in r.samples if s[3])))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="point, analytic, ingest, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and two rounds (the smoke test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one expected value; the run must fail")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the servers still get killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "server", "server.py")):
        print("perfbench: no repro sources under %s — run from the root of a"
              " checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error("unknown workload %r" % args.workload)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    results = {}
    for name in names:
        for trace in traces:
            print("== %s (trace %d, seed %d, %gs)" % (name, trace, args.seed, args.seconds))
            results[name, trace] = run_workload(name, args.seed, args.seconds, trace,
                                                tiny=args.tiny, inject_fault=args.inject_fault)
            sys.stdout.flush()
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s:%s" % (name, metric): value
                        for (name, __), r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
