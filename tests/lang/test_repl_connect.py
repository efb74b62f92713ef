"""The REPL as a thin client: ``:connect`` / ``:disconnect``."""

import json

import pytest

from repro.lang.repl import Repl
from repro.obs import events, export, monitor, profile, slowlog, trace
from repro.obs.metrics import reset_metrics
from repro.server import ServerThread


@pytest.fixture(autouse=True)
def clean_globals():
    reset_metrics()
    previous_journal = events.CURRENT
    previous_monitor = monitor.CURRENT
    previous_slowlog = slowlog.CURRENT
    previous_tracer = trace.CURRENT
    previous_profiler = profile.CURRENT
    yield
    events.set_journal(previous_journal)
    monitor.set_monitor(previous_monitor)
    slowlog.set_slowlog(previous_slowlog)
    trace.set_tracer(previous_tracer)
    profile.set_profiler(previous_profiler)
    reset_metrics()


@pytest.fixture
def server():
    with ServerThread(limit=4) as running:
        yield running


@pytest.fixture
def repl(server):
    lines = []
    instance = Repl(writer=lines.append)
    yield instance, lines, server
    if instance.connected:
        instance._remote.close()


def connect(repl_fixture):
    instance, lines, server = repl_fixture
    instance.handle(":connect %s" % server.address)
    assert instance.connected, lines[-1]
    return instance, lines


class TestConnect:
    def test_connect_reports_session(self, repl):
        instance, lines = connect(repl)
        assert lines[-1].startswith("connected to")
        assert "session s01" in lines[-1]

    def test_remote_evaluation(self, repl):
        instance, lines = connect(repl)
        instance.handle("let x = 6 * 7")
        instance.handle("x")
        assert lines[-1] == "42"

    def test_remote_errors_print_like_local_ones(self, repl):
        instance, lines = connect(repl)
        instance.handle("1 + true")
        assert lines[-1].startswith("error: ")

    def test_type_and_ast_route_remotely(self, repl):
        instance, lines = connect(repl)
        instance.handle("let n = 3")
        instance.handle(":type n + 1")
        assert lines[-1] == "Int"
        instance.handle(":ast 1 + 2")
        assert "1" in lines[-1]

    def test_bad_address(self, repl):
        instance, lines, __ = repl
        instance.handle(":connect nowhere:eleventy")
        assert lines[-1].startswith("error: bad port")
        assert not instance.connected

    def test_connection_refused(self, repl):
        instance, lines, __ = repl
        instance.handle(":connect 127.0.0.1:1")
        assert lines[-1].startswith("error: cannot connect")
        assert not instance.connected

    def test_double_connect_refused(self, repl):
        instance, lines = connect(repl)
        instance.handle(":connect 127.0.0.1:9999")
        assert "already connected" in lines[-1]


class TestDisconnect:
    def test_disconnect_returns_to_local_session(self, repl):
        instance, lines = connect(repl)
        instance.handle("let remote_only = 1")
        instance.handle(":disconnect")
        assert lines[-1].startswith("disconnected from")
        assert not instance.connected
        # Back on the local session: the remote binding is invisible.
        instance.handle("remote_only")
        assert lines[-1].startswith("error: ")

    def test_disconnect_when_local(self, repl):
        instance, lines, __ = repl
        instance.handle(":disconnect")
        assert lines[-1] == "not connected (local session)"

    def test_local_bindings_survive_a_remote_excursion(self, repl):
        instance, lines, server = repl
        instance.handle("let keep = 5")
        instance.handle(":connect %s" % server.address)
        instance.handle(":disconnect")
        instance.handle("keep")
        assert lines[-1] == "5"


class TestRemoteObservability:
    def test_stats_round_trip(self, repl):
        instance, lines = connect(repl)
        instance.handle("1 + 1")
        instance.handle(":stats")
        assert "server.requests" in lines[-1]
        for name in (
            "server.dispatch.inline",
            "server.dispatch.pooled",
            "server.parse_cache.hits",
            "server.parse_cache.misses",
            "server.parse_cache.entries",
        ):
            assert name in lines[-1]

    def test_sessions_lists_remote_peers(self, repl):
        instance, lines = connect(repl)
        instance.handle(":sessions")
        assert "1 active / 4 limit" in lines[-1]

    def test_health_includes_server_probe(self, repl):
        instance, lines = connect(repl)
        instance.handle(":health")
        assert "server.sessions" in lines[-1]

    def test_watch_uses_injected_sleep(self, repl):
        instance, lines = connect(repl)
        naps = []
        instance._sleep = naps.append
        instance.handle(":watch 2")
        assert naps == [1.0, 1.0]
        assert lines[-3] == "watching for 2s (Ctrl-C stops early)"
        assert lines[-1].startswith("monitor:")

    def test_metrics_to_file(self, repl, tmp_path):
        instance, lines = connect(repl)
        instance.handle("1 + 1")
        path = tmp_path / "remote.om"
        instance.handle(":metrics %s" % path)
        assert lines[-1] == "wrote %s" % path
        assert "# EOF" in path.read_text()

    def test_analyze_and_explain_remotely(self, repl):
        instance, lines = connect(repl)
        instance.handle(
            'let emp = relation([{Name = "A", Salary = 10},'
            ' {Name = "B", Salary = 20}])'
        )
        instance.handle(":analyze emp")
        assert lines[-1] == "analyzed emp: 2 rows, 2 columns"
        instance.handle(':explain rmatch(emp, {Name = "A"})')
        assert "Scan" in lines[-1]

    def test_remote_trace_prints_server_span_tree(self, repl):
        instance, lines = connect(repl)
        instance.handle(":trace on")
        assert lines[-1] == "tracing on"
        instance.handle("6 * 7")
        instance.handle(":trace off")
        assert lines[-1] == "tracing off"
        text = "\n".join(lines)
        assert "42" in lines
        assert "lang.run" in text
        assert any(
            line.startswith("  lang.parse") for line in text.splitlines()
        )

    def test_remote_trace_toggle_mirrors_the_local_tracer(self, repl):
        # In a real deployment the server is another *process*: its
        # stat("trace") cannot flip this process's tracer, and without
        # the client lane a merged :export has no client.run spans.
        # A fake backend (whose stat touches no globals, unlike the
        # in-process ServerThread) proves the REPL mirrors the toggle.
        instance, lines, __ = repl

        class FakeRemote:
            _closed = False

            def stat(self, kind, **args):
                return {"text": "tracing %s" % args["action"]}

        trace.disable()
        instance._remote = FakeRemote()
        try:
            instance.handle(":trace on")
            assert trace.CURRENT.enabled
            instance.handle(":trace off")
            assert not trace.CURRENT.enabled
        finally:
            instance._remote = None

    def test_remote_profile_renders_server_rows(self, repl):
        instance, lines = connect(repl)
        instance.handle(":profile on")
        assert lines[-1] == "profiling on"
        instance.handle(
            'rjoin(relation([{Dept = "Sales", N = 1}]),'
            ' relation([{Dept = "Sales", M = 2}]))'
        )
        instance.handle(":profile")
        assert "relation.join" in lines[-1]
        instance.handle(":profile off")
        assert lines[-1] == "profiling off"

    def test_requests_lists_remote_wide_events(self, repl):
        instance, lines = connect(repl)
        instance.handle("40 + 2")
        request_id = instance._remote.last_request_id
        instance.handle(":requests")
        assert request_id in lines[-1]
        assert "40 + 2" in lines[-1]

    def test_export_merges_client_and_server_onto_one_timeline(
        self, repl, tmp_path
    ):
        # The acceptance scenario: :trace on, two queries, :export —
        # the file must hold the client-side round-trip span AND the
        # server-side span tree for the same request id, on lanes the
        # viewer labels as separate processes.
        instance, lines = connect(repl)
        instance.handle(":trace on")
        instance.handle("let x = 6 * 7")
        instance.handle("x")
        request_id = instance._remote.last_request_id
        path = str(tmp_path / "merged.trace.json")
        instance.handle(":export %s" % path)
        instance.handle(":trace off")
        assert "exported %s" % path in "\n".join(lines)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        frames = document["traceEvents"]
        process_names = {
            e["args"]["name"]: e["pid"]
            for e in frames
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert process_names == {
            "client": export.CLIENT_PID,
            "server": export.BACKEND_PID,
        }
        client_spans = [
            e for e in frames
            if e.get("ph") == "X" and e["pid"] == export.CLIENT_PID
            and e["name"] == "client.run"
        ]
        server_spans = [
            e for e in frames
            if e.get("ph") == "X" and e["pid"] == export.BACKEND_PID
        ]
        client_ids = {e["args"].get("request_id") for e in client_spans}
        server_ids = {
            e["args"]["request_id"]
            for e in server_spans
            if "request_id" in e.get("args", {})
        }
        assert request_id in client_ids
        assert request_id in server_ids
        # One timeline: the server's work for the request sits inside
        # the client's round-trip span (the in-process server shares
        # the clock, so the offset estimate error is sub-millisecond).
        client_span = next(
            e for e in client_spans if e["args"].get("request_id") == request_id
        )
        server_root = next(
            e for e in server_spans
            if e.get("args", {}).get("request_id") == request_id
        )
        tolerance_us = 5000.0
        assert server_root["ts"] >= client_span["ts"] - tolerance_us
        assert (
            server_root["ts"] + server_root["dur"]
            <= client_span["ts"] + client_span["dur"] + tolerance_us
        )
        assert document["otherData"]["clock_offset_seconds"] == (
            instance._remote.clock_offset
        )


class TestTwoRepls:
    def test_isolated_bindings_shared_extents(self, server):
        first_lines, second_lines = [], []
        first = Repl(writer=first_lines.append)
        second = Repl(writer=second_lines.append)
        first.handle(":connect %s" % server.address)
        second.handle(":connect %s" % server.address)
        try:
            first.handle("let secret = 41")
            first.handle('extern("vault", dynamic secret);')
            second.handle("secret")
            assert second_lines[-1].startswith("error: unbound variable")
            second.handle('coerce intern("vault") to Int + 1')
            assert second_lines[-1] == "42"
        finally:
            first.handle(":disconnect")
            second.handle(":disconnect")

    def test_lost_connection_falls_back_to_local(self):
        lines = []
        instance = Repl(writer=lines.append)
        server = ServerThread().start()
        instance.handle(":connect %s" % server.address)
        assert instance.connected
        server.stop()
        instance.handle("1 + 1")
        assert lines[-2].startswith("error: ")
        assert lines[-1] == "(connection lost — back to the local session)"
        assert not instance.connected
        instance.handle("1 + 1")
        assert lines[-1] == "2"
