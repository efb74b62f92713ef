"""The server end to end: handshake, dispatch, limits, drain, hostility.

Integration tests run a real :class:`ServerThread` on an ephemeral port
and talk to it with the blocking :class:`Client` or a raw socket (for
the deliberately malformed traffic a Client refuses to send).
"""

import socket
import struct
import sys
import threading
import time
from collections import deque

import pytest

from repro.errors import RemoteError, SessionClosedError
from repro.obs import events, monitor, profile, slowlog, trace
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.server import Client, ServerThread, protocol
from repro.server.session import Session


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


class RawConn:
    """A hand-cranked connection for protocol-abuse tests."""

    def __init__(self, port, handshake=True):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=5.0
        )
        self.decoder = protocol.FrameDecoder()
        self.pending = deque()
        if handshake:
            reply = self.hello()
            assert reply["type"] == "hello", reply

    def hello(self, version=protocol.PROTOCOL_VERSION):
        self.send({"type": "hello", "protocol": version, "client": "raw"})
        return self.read()

    def send(self, message):
        self.sock.sendall(protocol.encode_frame(message))

    def send_raw(self, data):
        self.sock.sendall(data)

    def read(self):
        while True:
            if self.pending:
                return self.pending.popleft()
            chunk = self.sock.recv(65536)
            self.pending.extend(self.decoder.feed(chunk))
            if not self.pending and chunk == b"":
                return None

    def close(self):
        self.sock.close()


class SlowSession(Session):
    """A session whose queries dawdle — for drain and disconnect tests."""

    delay = 0.4

    def run(self, source, mode="eval", **kwargs):
        time.sleep(self.delay)
        return super().run(source, mode, **kwargs)


class TestHandshake:
    def test_grants_session_and_limits(self):
        with ServerThread(limit=3) as server:
            with Client(server.host, server.port) as client:
                assert client.session_id == "s01"
                assert client.server == "repro-server/3"
                assert client.limits["max_frame"] == protocol.MAX_FRAME

    def test_version_mismatch_rejected(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            reply = conn.hello(version=99)
            assert reply["type"] == "error"
            assert reply["kind"] == "version"
            assert "server speaks 3" in reply["error"]
            conn.close()

    def test_old_v1_client_still_connects(self):
        # Protocol 2 added obs frames and trace contexts, but a v1
        # client's frames are a strict subset — the server must accept
        # it and echo the *client's* version back.
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            reply = conn.hello(version=1)
            assert reply["type"] == "hello"
            assert reply["protocol"] == 1
            conn.send({"type": "run", "source": "6 * 7", "id": 1})
            assert conn.read()["value"] == "42"
            conn.close()

    def test_hello_reply_carries_clock_reading(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            reply = conn.hello()
            clock = reply["clock"]
            assert isinstance(clock["mono"], float)
            assert isinstance(clock["wall"], float)
            conn.close()

    def test_client_estimates_clock_offset(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                # Same process, same perf_counter: the estimate must be
                # within the handshake round-trip of zero.
                assert client.clock_offset is not None
                assert abs(client.clock_offset) < 1.0

    def test_first_frame_must_be_hello(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            conn.send({"type": "run", "source": "1"})
            reply = conn.read()
            assert reply["type"] == "error"
            assert "expected a hello frame" in reply["error"]
            conn.close()


class TestDispatch:
    def test_run_and_stat_round_trip(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("let x = 6 * 7")
                assert client.run("x")["value"] == "42"
                text = client.stat("sessions")["text"]
                assert "1 active" in text

    def test_language_errors_come_back_typed(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.run("1 + true")
                assert excinfo.value.kind == "TypeCheckError"
                # The connection survives a failed request.
                assert client.run("2")["value"] == "2"

    def test_bad_run_frame_is_an_error_not_a_hangup(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send({"type": "run", "source": 42, "id": 1})
            reply = conn.read()
            assert reply["type"] == "error"
            assert reply["id"] == 1
            conn.send({"type": "run", "source": "1", "id": 2})
            assert conn.read()["type"] == "result"
            conn.close()

    def test_unknown_frame_type_keeps_connection_open(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send({"type": "hello", "protocol": 1, "id": 5})
            reply = conn.read()
            assert reply["type"] == "error"
            assert "unknown message type" in reply["error"]
            assert reply["id"] == 5
            conn.send({"type": "run", "source": "3 * 3", "id": 6})
            assert conn.read()["value"] == "9"
            conn.close()

    def test_request_metrics_recorded(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("1")
                client.stat("health")
        assert REGISTRY.counter("server.requests").value >= 2
        histogram = REGISTRY.histogram("server.request.seconds")
        assert histogram.count >= 2
        # Every request is routed one way or the other, and the first
        # run's text went through the broker's parse cache.
        counters = REGISTRY.counters()
        assert (
            counters["server.dispatch.inline"]
            + counters["server.dispatch.pooled"]
            == REGISTRY.counter("server.requests").value
        )
        assert counters["server.parse_cache.misses"] >= 1
        assert "server.parse_cache.hits" in counters
        assert REGISTRY.gauges()["server.parse_cache.entries"] >= 1.0


LOOP_THREAD = "dbpl-server"  # ServerThread's event-loop thread
POOL_PREFIX = "dbpl-session"  # the broker's worker threads


def spy_factory(slow_source=None, delay=0.0, started=None):
    """A session class that records the thread each request runs on.

    Returns ``(factory, seen)``; ``seen`` collects ``(session, request,
    thread name)`` per request, where ``request`` is the run's source or
    the transaction frame's name.  A run of ``slow_source`` sleeps
    ``delay`` seconds, setting the ``started`` event first.
    """
    seen = []

    class Spy(Session):
        def _note(self, request):
            seen.append(
                (self.session_id, request, threading.current_thread().name)
            )

        def run(self, source, mode="eval", **kwargs):
            self._note(source)
            if source == slow_source:
                if started is not None:
                    started.set()
                time.sleep(delay)
            return super().run(source, mode, **kwargs)

        def begin(self):
            self._note("begin")
            return super().begin()

        def commit(self):
            self._note("commit")
            return super().commit()

    return Spy, seen


def threads_of(seen, request):
    return [thread for __, sent, thread in seen if sent == request]


class TestRouting:
    def test_repeated_short_run_executes_on_the_loop(self):
        factory, seen = spy_factory()
        with ServerThread(session_factory=factory) as server:
            with Client(server.host, server.port) as client:
                for __ in range(20):
                    assert client.run("1 + 1")["value"] == "2"
        threads = threads_of(seen, "1 + 1")
        # A new text has no recorded run time: it takes the pool.
        assert threads[0].startswith(POOL_PREFIX)
        assert LOOP_THREAD in threads[1:]
        assert REGISTRY.counter("server.dispatch.inline").value >= 1

    def test_commit_and_autocommit_extern_take_the_pool(self):
        factory, seen = spy_factory()
        autocommit = 'extern("k", dynamic 1)'
        in_txn = 'extern("k", dynamic 2)'
        with ServerThread(session_factory=factory) as server:
            with Client(server.host, server.port) as client:
                client.run("0")
                for __ in range(10):
                    client.run(autocommit)
                    client.begin()
                    client.run(in_txn)
                    client.commit()
        assert all(t.startswith(POOL_PREFIX) for t in threads_of(seen, autocommit))
        assert all(t.startswith(POOL_PREFIX) for t in threads_of(seen, "commit"))
        # Inside a transaction an extern only buffers: it may run inline.
        assert LOOP_THREAD in threads_of(seen, in_txn)

    def test_extern_reached_through_a_binding_takes_the_pool(self):
        factory, seen = spy_factory()
        with ServerThread(session_factory=factory) as server:
            with Client(server.host, server.port) as client:
                client.run("0")
                client.run(
                    'fun save(n: Int): Unit = extern("k", dynamic n)'
                )
                for __ in range(5):
                    client.run("save(3)")
                reply = client.run('coerce intern("k") to Int')
                assert reply["value"] == "3"
        # The call's text never says extern, but it autocommits one.
        assert all(t.startswith(POOL_PREFIX) for t in threads_of(seen, "save(3)"))

    def test_new_text_takes_the_pool(self):
        factory, seen = spy_factory()
        with ServerThread(session_factory=factory) as server:
            with Client(server.host, server.port) as client:
                for __ in range(5):
                    client.run("1 + 1")
                for __ in range(5):
                    client.run("2 + 2")
        threads = threads_of(seen, "2 + 2")
        assert threads[0].startswith(POOL_PREFIX)
        assert LOOP_THREAD in threads[1:]

    def test_request_after_a_long_one_takes_the_pool(self):
        factory, seen = spy_factory(
            slow_source="0 + 0", delay=2 * sys.getswitchinterval()
        )
        with ServerThread(session_factory=factory) as server:
            with Client(server.host, server.port) as client:
                client.run("2 + 2")
                client.run("2 + 2")
                client.run("0 + 0")
                client.run("2 + 2")  # a known short text, after a long run
        assert threads_of(seen, "2 + 2")[2].startswith(POOL_PREFIX)

    def test_text_whose_last_run_was_long_takes_the_pool(self):
        factory, seen = spy_factory(
            slow_source="0 + 0", delay=2 * sys.getswitchinterval()
        )
        with ServerThread(session_factory=factory) as server:
            with Client(server.host, server.port) as client:
                for __ in range(3):
                    client.run("0 + 0")
                    for __ in range(3):  # the session's last run is short
                        client.run("1 + 1")
        assert all(t.startswith(POOL_PREFIX) for t in threads_of(seen, "0 + 0"))
        assert LOOP_THREAD in threads_of(seen, "1 + 1")

    def test_long_run_after_short_ones_leaves_the_loop_free(self):
        # A session's short requests say nothing about its next text: a
        # new, long one runs on the pool, and another session is
        # answered while it runs.
        started = threading.Event()
        factory, seen = spy_factory(slow_source="0 + 0", delay=0.5, started=started)
        with ServerThread(session_factory=factory, workers=2) as server:
            with Client(server.host, server.port) as slow, Client(
                server.host, server.port
            ) as quick:
                for __ in range(3):
                    slow.run("1 + 1")
                    quick.run("1 + 1")
                assert LOOP_THREAD in threads_of(seen, "1 + 1")
                worker = threading.Thread(target=slow.run, args=("0 + 0",))
                worker.start()
                assert started.wait(5.0)
                assert quick.run("3 + 3")["value"] == "6"
                answered_during_the_long_run = worker.is_alive()
                worker.join(5.0)
        assert answered_during_the_long_run
        assert threads_of(seen, "0 + 0")[0].startswith(POOL_PREFIX)

    def test_short_request_takes_the_pool_while_it_is_busy(self):
        started = threading.Event()
        factory, seen = spy_factory(slow_source="0 + 0", delay=0.5, started=started)
        with ServerThread(session_factory=factory, workers=2) as server:
            with Client(server.host, server.port) as slow, Client(
                server.host, server.port
            ) as quick:
                for __ in range(3):
                    quick.run("1 + 1")
                # slow's first request takes the pool and stays there.
                worker = threading.Thread(target=slow.run, args=("0 + 0",))
                worker.start()
                assert started.wait(5.0)
                quick.run("3 + 3")
                worker.join(5.0)
        assert threads_of(seen, "0 + 0")[0].startswith(POOL_PREFIX)
        assert threads_of(seen, "3 + 3")[0].startswith(POOL_PREFIX)


class TestTracingOverTheWire:
    def test_client_request_id_adopted_by_server(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                reply = client.run("1 + 1")
                assert reply["request_id"] == client.last_request_id
                assert reply["request_id"].startswith(client.session_id)

    def test_v1_run_frame_without_context_gets_minted_id(self):
        with ServerThread() as server:
            conn = RawConn(server.port, handshake=False)
            conn.hello(version=1)
            conn.send({"type": "run", "source": "1", "id": 1})
            reply = conn.read()
            assert reply["request_id"]  # server minted one
            conn.close()

    def test_obs_frame_round_trip(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("trace", action="on")
                client.run("2 + 3")
                reply = client.obs("spans")
                client.stat("trace", action="off")
                assert reply["type"] == "obs"
                assert reply["what"] == "spans"
                request = reply["requests"][-1]
                assert request["request_id"] == client.last_request_id
                names = [s["name"] for s in request["spans"]]
                assert "lang.run" in names

    def test_traced_reply_carries_rendered_span_tree(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("trace", action="on")
                reply = client.run("6 * 7")
                client.stat("trace", action="off")
                assert "lang.run" in reply["trace"]
                assert "  lang.parse" in reply["trace"]

    def test_remote_profile_report(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.stat("profile", action="on")
                client.run(
                    'rjoin(relation([{Dept = "Sales", N = 1}]),'
                    ' relation([{Dept = "Sales", M = 2}]))'
                )
                text = client.stat("profile", action="report")["text"]
                client.stat("profile", action="off")
                assert "relation.join" in text

    def test_remote_requests_wide_events(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("40 + 2")
                text = client.stat("requests")["text"]
                assert client.last_request_id in text
                assert "40 + 2" in text

    def test_bad_obs_kind_is_an_error_not_a_hangup(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                with pytest.raises(RemoteError):
                    client.obs("nonsense")
                assert client.run("1")["value"] == "1"


class TestProtocolAbuse:
    def test_oversized_frame_refused_and_hung_up(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send_raw(struct.pack(">I", protocol.MAX_FRAME + 1))
            reply = conn.read()
            assert reply["type"] == "error"
            assert "exceeds" in reply["error"]
            assert conn.read() is None  # server hung up
            conn.close()

    def test_truncated_frame_leaves_server_alive(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send_raw(struct.pack(">I", 100) + b'{"type":')
            conn.close()  # vanish mid-frame
            # The server shrugs it off and keeps serving.
            with Client(server.host, server.port) as client:
                assert client.run("1 + 1")["value"] == "2"

    def test_garbage_payload_answered_with_error(self):
        with ServerThread() as server:
            conn = RawConn(server.port)
            conn.send_raw(struct.pack(">I", 4) + b"{{{{")
            reply = conn.read()
            assert reply["type"] == "error"
            assert "JSON" in reply["error"]
            conn.close()

    def test_client_disconnect_mid_query_leaves_others_working(self):
        with ServerThread(session_factory=SlowSession) as server:
            victim = RawConn(server.port)
            victim.send({"type": "run", "source": "1 + 1", "id": 1})
            victim.close()  # gone before the reply exists
            with Client(server.host, server.port) as client:
                assert client.run("20 + 1")["value"] == "21"
        assert REGISTRY.counter("server.connections.lost").value >= 0


class TestIsolationOverTheWire:
    def test_private_bindings_shared_extents(self, tmp_path):
        store = str(tmp_path / "shared.log")
        with ServerThread(store=store) as server:
            with Client(server.host, server.port) as first, Client(
                server.host, server.port
            ) as second:
                assert first.session_id != second.session_id
                first.run("let secret = 41")
                first.run('extern("vault", dynamic secret);')
                with pytest.raises(RemoteError) as excinfo:
                    second.run("secret")
                assert "unbound variable" in str(excinfo.value)
                reply = second.run('coerce intern("vault") to Int + 1')
                assert reply["value"] == "42"

    def test_memory_extents_shared_without_a_store(self):
        with ServerThread() as server:
            with Client(server.host, server.port) as first, Client(
                server.host, server.port
            ) as second:
                first.run('extern("m", dynamic [1, 2, 3]);')
                reply = second.run(
                    'sum(coerce intern("m") to List[Int])'
                )
                assert reply["value"] == "6"


class TestAdmission:
    def test_connection_limit_bounces_with_busy(self):
        with ServerThread(limit=1, queue_limit=0) as server:
            first = Client(server.host, server.port)
            with pytest.raises(RemoteError) as excinfo:
                Client(server.host, server.port)
            assert excinfo.value.kind == "busy"
            assert "connection limit" in str(excinfo.value)
            first.close()
        assert REGISTRY.counter("server.connections.rejected").value == 1

    def test_queued_connection_gets_the_freed_slot(self):
        with ServerThread(limit=1, queue_limit=1) as server:
            first = Client(server.host, server.port)
            admitted = {}

            def wait_for_slot():
                with Client(server.host, server.port) as second:
                    admitted["session"] = second.session_id
                    admitted["value"] = second.run("5 * 5")["value"]

            waiter = threading.Thread(target=wait_for_slot)
            waiter.start()
            time.sleep(0.2)  # let the waiter reach the queue
            assert not admitted  # still parked, not rejected
            first.close()
            waiter.join(timeout=5.0)
            assert admitted["value"] == "25"
        assert REGISTRY.counter("server.connections.queued").value == 1

    def test_sessions_stat_counts_peers(self):
        with ServerThread(limit=4) as server:
            with Client(server.host, server.port) as first, Client(
                server.host, server.port
            ) as second:
                text = first.stat("sessions")["text"]
                assert "2 active / 4 limit" in text
                assert second.session_id in text


class TestIdleTimeout:
    def test_idle_session_gets_bye(self):
        with ServerThread(idle_timeout=0.2) as server:
            conn = RawConn(server.port)
            reply = conn.read()  # blocks until the server times us out
            assert reply == {"type": "bye", "reason": "idle"}
            conn.close()
        assert REGISTRY.counter("server.sessions.idle_closed").value == 1


class TestGracefulDrain:
    def test_in_flight_query_finishes_before_shutdown(self):
        server = ServerThread(session_factory=SlowSession).start()
        client = Client(server.host, server.port)
        finished = {}

        def slow_query():
            finished["reply"] = client.run("6 * 7")

        query = threading.Thread(target=slow_query)
        query.start()
        time.sleep(0.1)  # the run frame is in flight
        server.stop()  # drain: must deliver the result, then bye
        query.join(timeout=5.0)
        assert finished["reply"]["value"] == "42"
        # The connection was then closed by the shutdown bye.
        with pytest.raises(SessionClosedError, match="bye"):
            client.run("1")
        assert REGISTRY.counter("server.shutdown.drained").value >= 1

    def test_idle_connections_get_shutdown_bye(self):
        server = ServerThread().start()
        conn = RawConn(server.port)
        server.stop()
        assert conn.read() == {"type": "bye", "reason": "shutdown"}
        conn.close()

    def test_new_connections_refused_while_draining(self):
        server = ServerThread().start()
        server.stop()
        with pytest.raises((ConnectionError, OSError)):
            Client(server.host, server.port)


class TestHealthOverTheWire:
    def test_health_stat_includes_session_probe(self):
        with ServerThread(limit=2) as server:
            with Client(server.host, server.port) as client:
                text = client.stat("health")["text"]
                assert "server.sessions" in text
                assert "1 of 2 session(s) active" in text

    def test_metrics_stat_parses_as_openmetrics(self):
        from repro.obs.monitor import parse_openmetrics

        with ServerThread() as server:
            with Client(server.host, server.port) as client:
                client.run("1")
                parsed = parse_openmetrics(client.stat("metrics")["text"])
                assert parsed["eof"]
                assert any(
                    name.startswith("server_requests")
                    for name in parsed["counters"]
                )
                for stem in (
                    "server_dispatch_inline",
                    "server_dispatch_pooled",
                    "server_parse_cache_hits",
                    "server_parse_cache_misses",
                ):
                    assert any(
                        name.startswith(stem) for name in parsed["counters"]
                    ), stem
                assert "server_parse_cache_entries" in parsed["gauges"]
