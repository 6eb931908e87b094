"""Tests for the selector-based I/O loop (`repro.ipc.loop`).

Every server-level test runs both transports through an :class:`IoLoop` —
shared, the way the scheduler daemon serves, or private to one bare server
— and asserts the wire contract: request/reply, deferred (paused) replies,
in-band protocol errors, notification ordering, and oversized-frame
hangups.
"""

import os
import threading
import time
import types

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.policies import make_policy
from repro.errors import IpcDisconnected, TransportError
from repro.ipc import protocol, unix_socket
from repro.ipc.loop import DEFAULT_IO_WORKERS, IoLoop
from repro.ipc.tcp_socket import TcpSocketClient, TcpSocketServer
from repro.ipc.unix_socket import (
    DEFER,
    OPEN_CONNECTIONS,
    UnixSocketClient,
    UnixSocketServer,
)
from repro.units import MiB

TRANSPORTS = ("unix", "tcp")


def echo_handler(message, reply_handle):
    return protocol.make_reply(message, echoed=message["container_id"])


@pytest.fixture
def loop():
    with IoLoop(workers=2) as lp:
        yield lp


@pytest.fixture
def make_server(loop, tmp_path):
    """make_server(transport, handler) -> (server, client_factory)."""
    servers = []
    counter = [0]

    def _make(transport, handler):
        counter[0] += 1
        if transport == "unix":
            path = str(tmp_path / f"loop{counter[0]}.sock")
            server = UnixSocketServer(path, handler, loop=loop).start()
            factory = lambda **kw: UnixSocketClient(path, **kw)  # noqa: E731
        else:
            server = TcpSocketServer(handler, loop=loop).start()
            factory = lambda **kw: TcpSocketClient(  # noqa: E731
                "127.0.0.1", server.port, **kw
            )
        servers.append(server)
        return server, factory

    yield _make
    for server in servers:
        server.stop()


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestLoopBackend:
    def test_request_reply(self, make_server, transport):
        _server, connect = make_server(transport, echo_handler)
        with connect() as client:
            reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="c9")
            assert reply["status"] == "ok"
            assert reply["echoed"] == "c9"

    def test_seq_increments_and_echoes(self, make_server, transport):
        _server, connect = make_server(transport, echo_handler)
        with connect() as client:
            r1 = client.call(protocol.MSG_CONTAINER_EXIT, container_id="a")
            r2 = client.call(protocol.MSG_CONTAINER_EXIT, container_id="b")
            assert (r1["seq"], r2["seq"]) == (1, 2)

    def test_notify_then_call_stays_in_order(self, make_server, transport):
        """Per-connection frame ordering survives the shared worker pool."""
        received = []

        def recording(message, reply_handle):
            received.append(message["type"])
            return protocol.make_reply(message)

        _server, connect = make_server(transport, recording)
        with connect() as client:
            for _ in range(10):
                client.notify(
                    protocol.MSG_ALLOC_RELEASE, container_id="c", pid=1, address=5
                )
            reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="c")
            assert reply["status"] == "ok"
        assert received == ["alloc_release"] * 10 + ["container_exit"]

    def test_deferred_reply_blocks_until_sent(self, make_server, transport):
        """DEFER = the paper's pause; resume crosses the loop untouched."""
        held = {}

        def pausing(message, reply_handle):
            held["handle"] = reply_handle
            held["message"] = message
            return DEFER

        _server, connect = make_server(transport, pausing)
        outcome = {}

        def blocked_caller():
            with connect() as client:
                outcome["reply"] = client.call(
                    protocol.MSG_ALLOC_REQUEST,
                    container_id="p", pid=1, size=10, api="m",
                )

        thread = threading.Thread(target=blocked_caller)
        thread.start()
        time.sleep(0.15)
        assert "reply" not in outcome  # still suspended
        held["handle"].send(protocol.make_reply(held["message"], decision="grant"))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome["reply"]["decision"] == "grant"

    def test_invalid_frame_gets_error_reply(self, make_server, transport):
        _server, connect = make_server(transport, echo_handler)
        client = connect()
        client._sock.sendall(b'{"type": "bogus"}\n')
        client._buffer = b""
        reply = _read_one_frame(client)
        assert reply["status"] == "error"
        client.close()

    def test_handler_exception_reported_in_band(self, make_server, transport):
        def broken(message, reply_handle):
            raise RuntimeError("handler bug")

        _server, connect = make_server(transport, broken)
        with connect() as client:
            reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="x")
            assert reply["status"] == "error"
            assert "handler bug" in reply["error"]

    def test_oversized_frame_rejected_and_closed(self, make_server, transport):
        server, connect = make_server(transport, echo_handler)
        client = connect(timeout=5.0)
        client._sock.sendall(b"x" * (protocol.MAX_FRAME_BYTES + 2))
        reply = _read_one_frame(client)
        assert reply["status"] == "error"
        assert "exceeds" in reply["error"]
        # The server hangs up after the error; further reads see EOF.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not client._sock.recv(65536):
                break
        else:  # pragma: no cover - fails the test with a clear message
            pytest.fail("server kept the hostile connection open")
        client.close()
        # ...and the dead connection does not linger in server bookkeeping.
        _wait_until(lambda: not server._conns)
        assert server._conns == []

    def test_concurrent_clients(self, make_server, transport):
        _server, connect = make_server(transport, echo_handler)
        results = {}

        def worker(name):
            with connect() as client:
                for _ in range(20):
                    reply = client.call(
                        protocol.MSG_CONTAINER_EXIT, container_id=name
                    )
                    assert reply["echoed"] == name
                results[name] = True

        threads = [
            threading.Thread(target=worker, args=(f"c{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert len(results) == 8

    def test_server_stop_wakes_blocked_client(self, make_server, transport):
        _server, connect = make_server(transport, lambda m, h: DEFER)
        errors = []
        started = threading.Event()

        def blocked_call():
            client = connect()
            started.set()
            try:
                client.call(
                    protocol.MSG_ALLOC_REQUEST,
                    container_id="c", pid=1, size=10, api="m",
                )
            except Exception as exc:  # noqa: BLE001 - capturing for assert
                errors.append(exc)
            finally:
                client.close()

        thread = threading.Thread(target=blocked_call)
        thread.start()
        started.wait(timeout=2.0)
        time.sleep(0.1)  # let the call reach recv
        _server.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], IpcDisconnected)


class TestSharedLoop:
    def test_many_servers_add_no_threads(self, loop, tmp_path):
        """20 servers on one loop: thread count stays 1 + workers."""
        before = threading.active_count()
        servers = []
        for i in range(20):
            path = str(tmp_path / f"many{i}.sock")
            servers.append(UnixSocketServer(path, echo_handler, loop=loop).start())
        clients = [UnixSocketClient(s.path) for s in servers]
        for i, client in enumerate(clients):
            reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id=f"m{i}")
            assert reply["echoed"] == f"m{i}"
        # All 20 listeners and 20 live connections later: zero new threads.
        assert threading.active_count() == before
        for client in clients:
            client.close()
        for server in servers:
            server.stop()

    def test_handlers_run_on_pool_workers_only(self, loop, tmp_path):
        """The selector thread queues every batch: a handler on it would
        stall every other connection for the handler's lock, fsync and
        send waits."""
        on_worker = []

        def handler(message, reply_handle):
            on_worker.append(loop.on_worker())
            return echo_handler(message, reply_handle)

        path = str(tmp_path / "workers.sock")
        server = UnixSocketServer(path, handler, loop=loop).start()
        try:
            with UnixSocketClient(path) as client:
                for i in range(8):
                    client.notify(protocol.MSG_HEARTBEAT, container_id=f"w{i}")
                    client.call(protocol.MSG_CONTAINER_EXIT, container_id=f"w{i}")
        finally:
            server.stop()
        assert len(on_worker) == 16 and all(on_worker)

    def test_loop_stop_closes_live_connections(self, tmp_path):
        loop = IoLoop(workers=1).start()
        path = str(tmp_path / "dying.sock")
        server = UnixSocketServer(path, lambda m, h: DEFER, loop=loop).start()
        client = UnixSocketClient(path)
        errors = []

        def blocked():
            try:
                client.call(
                    protocol.MSG_ALLOC_REQUEST,
                    container_id="c", pid=1, size=10, api="m",
                )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.1)
        loop.stop()  # daemon kill(): everything down at once
        thread.join(timeout=5.0)
        client.close()
        server._loop = None  # already-stopped loop: plain cleanup below
        assert not thread.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], IpcDisconnected)

    def test_loop_restart_rejected_while_running(self):
        loop = IoLoop(workers=1).start()
        try:
            with pytest.raises(TransportError):
                loop.start()
        finally:
            loop.stop()

    def test_workers_validated(self):
        with pytest.raises(TransportError):
            IoLoop(workers=0)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestPrivateLoop:
    """``loop=None`` is ownership: the server runs (and stops) its own loop."""

    @staticmethod
    def _bare(transport, tmp_path, loop=None):
        if transport == "unix":
            path = str(tmp_path / "bare.sock")
            server = UnixSocketServer(path, echo_handler, loop=loop)
            return server, lambda: UnixSocketClient(path)
        server = TcpSocketServer(echo_handler, loop=loop)
        return server, lambda: TcpSocketClient("127.0.0.1", server.port)

    @staticmethod
    def _echo(connect, container_id):
        with connect() as client:
            reply = client.call(
                protocol.MSG_CONTAINER_EXIT, container_id=container_id
            )
        assert reply["echoed"] == container_id

    def test_start_stop_restart_own_exactly_one_loop(self, transport, tmp_path):
        gauge = OPEN_CONNECTIONS.labels(transport=transport)
        conns_before = gauge.value
        threads_before = threading.active_count()
        server, connect = self._bare(transport, tmp_path)
        server.start()
        assert threading.active_count() == threads_before + 1 + DEFAULT_IO_WORKERS
        self._echo(connect, "first")
        held = connect()  # still open when the server goes down
        try:
            server.stop()
            assert threading.active_count() == threads_before
            assert gauge.value == conns_before
            server.stop()  # a second stop finds nothing to do
            assert threading.active_count() == threads_before
            server.start()
            self._echo(connect, "again")
        finally:
            held.close()
            server.stop()
        assert threading.active_count() == threads_before
        assert gauge.value == conns_before

    def test_shared_loop_outlives_its_servers(self, loop, transport, tmp_path):
        threads_before = threading.active_count()
        server, connect = self._bare(transport, tmp_path, loop=loop)
        with server:
            assert threading.active_count() == threads_before
            self._echo(connect, "shared")
        assert loop.running
        server, connect = self._bare(transport, tmp_path, loop=loop)
        with server:  # the loop it left running serves the next server
            self._echo(connect, "shared-again")


class TestStopNeverPolls:
    """``stop()`` is event-driven: the last ``_forget`` wakes an outside
    caller, and a loop worker never waits on its own pool (DESIGN.md §10)."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_outside_stop_returns_with_every_connection_closed(
        self, make_server, transport, monkeypatch
    ):
        def no_sleep(_seconds):
            raise AssertionError("stop() fell back to a sleep-poll")

        # The module's `time` only: the test's own waits keep the real one.
        monkeypatch.setattr(
            unix_socket,
            "time",
            types.SimpleNamespace(
                sleep=no_sleep,
                monotonic=time.monotonic,
                perf_counter=time.perf_counter,
            ),
        )
        gauge = OPEN_CONNECTIONS.labels(transport=transport)
        before = gauge.value
        server, connect = make_server(transport, echo_handler)
        clients = [connect() for _ in range(3)]
        for client in clients:
            client.call(protocol.MSG_CONTAINER_EXIT, container_id="c")
        assert gauge.value == before + 3
        server.stop()
        assert server._conns == []
        assert gauge.value == before
        for client in clients:
            client.close()

    # One value: the daemon serves AF_UNIX only; the param keeps the ``[unix]`` id.
    @pytest.mark.parametrize("transport", ("unix",))
    def test_exit_storm_never_parks_the_pool(self, tmp_path, transport):
        """``2 x io_workers`` concurrent exits of containers that each hold
        a live data connection: every tear-down runs on a loop worker, and
        the closes it hands off need a worker too.  Waiting for them there
        starved the pool — every exit sat out the full 2 s deadline."""
        scheduler = GpuMemoryScheduler(
            1024 * MiB, make_policy("FIFO"), context_overhead=0
        )
        daemon = SchedulerDaemon(scheduler, base_dir=str(tmp_path / "storm")).start()

        def connect(container_id=None):
            return UnixSocketClient(
                daemon.control_path
                if container_id is None
                else daemon.container_socket_path(container_id)
            )

        gauge = OPEN_CONNECTIONS.labels(transport=transport)
        before = gauge.value
        threads_before = threading.active_count()
        ids = [f"storm{i}" for i in range(2 * daemon.io_workers)]
        took = {}
        start = threading.Barrier(len(ids))

        def exit_one(container_id):
            with connect() as control:
                start.wait(timeout=10.0)
                began = time.monotonic()
                reply = control.call(
                    protocol.MSG_CONTAINER_EXIT, container_id=container_id
                )
                took[container_id] = time.monotonic() - began
                assert reply["status"] == "ok"

        try:
            with connect() as control:
                for container_id in ids:
                    control.call(
                        protocol.MSG_REGISTER_CONTAINER,
                        container_id=container_id, limit=MiB,
                    )
            data = [connect(container_id) for container_id in ids]
            for container_id, client in zip(ids, data):
                client.call(
                    protocol.MSG_MEM_GET_INFO, container_id=container_id, pid=1
                )
            storm = [
                threading.Thread(target=exit_one, args=(container_id,))
                for container_id in ids
            ]
            for thread in storm:
                thread.start()
            for thread in storm:
                thread.join(timeout=30.0)
            assert all(not thread.is_alive() for thread in storm)
            assert sorted(took) == ids
            assert max(took.values()) < 1.0, took
            # The handed-off closes complete on their own: nothing leaks.
            _wait_until(lambda: gauge.value == before)
            _wait_until(lambda: threading.active_count() == threads_before)
            assert daemon._container_servers == {}
            for client in data:
                client.close()
        finally:
            daemon.stop()


def _read_one_frame(client):
    """Read one reply frame from a raw client socket (error-path tests)."""
    buffer = b""
    while b"\n" not in buffer:
        chunk = client._sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed before a reply arrived")
        buffer += chunk
    frame, _rest = buffer.split(b"\n", 1)
    return protocol.decode(frame + b"\n")


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    assert predicate(), "condition not reached within the deadline"
