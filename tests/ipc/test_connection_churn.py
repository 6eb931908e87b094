"""Connection-churn regression tests: lifecycle leaks stay fixed.

The seed's servers appended every finished reader thread to an
ever-growing list and left closed connections in ``_conns`` — a daemon
under churn (containers starting and exiting all day) grew without bound.
These tests connect/disconnect hundreds of clients against both transports
and assert that live-thread count and connection bookkeeping return to
baseline.

Every churn runs under a hard wall-clock deadline (a reintroduced leak or
hang fails fast instead of wedging the suite).
"""

import threading
import time

import pytest

from repro.ipc import protocol
from repro.ipc.loop import IoLoop
from repro.ipc.tcp_socket import TcpSocketClient, TcpSocketServer
from repro.ipc.unix_socket import (
    OPEN_CONNECTIONS,
    PROTOCOL_ERRORS,
    UnixSocketClient,
    UnixSocketServer,
)

CHURN_CLIENTS = 500
#: Hard deadline for one churn run; generous, but finite — a hang must
#: fail the test, not wedge the suite (pytest-timeout semantics, stdlib).
CHURN_DEADLINE_S = 120.0


def echo_handler(message, reply_handle):
    return protocol.make_reply(message, echoed=message["container_id"])


def run_with_deadline(fn, seconds=CHURN_DEADLINE_S):
    """Run ``fn`` in a thread; fail the test if it outlives the deadline."""
    outcome = {}

    def runner():
        try:
            fn()
            outcome["ok"] = True
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["exc"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    if thread.is_alive():
        pytest.fail(f"churn did not finish within {seconds}s (hang reintroduced?)")
    if "exc" in outcome:
        raise outcome["exc"]


def wait_until(predicate, timeout=10.0, message="condition not reached"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    assert predicate(), message


@pytest.fixture(params=("loop",))
def backend(request):
    """A shared loop, as the daemon serves (param kept for stable test ids)."""
    with IoLoop() as loop:
        yield loop


@pytest.fixture(params=("binary", "json"))
def codec(request):
    """Wire codec dimension of the churn matrix (CI selects with -k)."""
    return request.param


@pytest.fixture(params=("unix", "tcp"))
def server_and_connect(request, backend, codec, tmp_path):
    loop = backend
    # "auto" negotiates down to binary against an auto server; "json"
    # pins the legacy wire.  Either way the *server* stays auto, so the
    # same daemon serves both kinds of client at once — exactly the
    # mixed fleet a rolling upgrade produces.
    client_codec = "auto" if codec == "binary" else "json"
    if request.param == "unix":
        path = str(tmp_path / "churn.sock")
        server = UnixSocketServer(path, echo_handler, loop=loop).start()
        connect = lambda: UnixSocketClient(path, codec=client_codec)  # noqa: E731
    else:
        server = TcpSocketServer(echo_handler, loop=loop).start()
        connect = lambda: TcpSocketClient(  # noqa: E731
            "127.0.0.1", server.port, codec=client_codec
        )
    yield server, connect
    server.stop()


class TestConnectionChurn:
    def test_churn_leaves_no_threads_or_conns(
        self, server_and_connect, backend, codec
    ):
        """500 connect/call/disconnect cycles: bookkeeping stays bounded.

        (``backend`` is listed only so the cell ids keep their order.)
        """
        server, connect = server_and_connect
        gauge = OPEN_CONNECTIONS.labels(transport=server.transport)
        gauge_baseline = gauge.value
        with connect() as probe:  # the matrix cell really negotiated it
            assert probe.codec == codec
        # Let the server finish tearing down the probe before snapshotting
        # the baselines the churn must return to.
        wait_until(lambda: gauge.value == gauge_baseline)
        threads_before = threading.active_count()
        gauge_before = gauge.value

        def churn():
            for i in range(CHURN_CLIENTS):
                with connect() as client:
                    reply = client.call(
                        protocol.MSG_CONTAINER_EXIT, container_id=f"c{i}"
                    )
                    assert reply["echoed"] == f"c{i}"

        run_with_deadline(churn)

        # Finished connections leave _conns as they end, not at stop().
        wait_until(
            lambda: len(server._conns) == 0,
            message=f"{len(server._conns)} connections leaked in _conns",
        )
        # Live thread count returns to baseline (the loop never creates a
        # thread per connection).
        wait_until(
            lambda: threading.active_count() <= threads_before + 1,
            message=f"thread count grew: {threads_before} -> "
                    f"{threading.active_count()}",
        )
        # The open-connections gauge balances its increments.
        wait_until(
            lambda: gauge.value == gauge_before,
            message=f"open-connections gauge drifted: "
                    f"{gauge_before} -> {gauge.value}",
        )

    def test_oversized_frame_conn_does_not_leak(self, server_and_connect):
        """A hostile client's closed connection leaves _conns immediately."""
        server, connect = server_and_connect
        errors = PROTOCOL_ERRORS.labels(transport=server.transport)
        errors_before = errors.value

        def hostile_round():
            for _ in range(20):
                client = connect()
                try:
                    client._sock.sendall(b"x" * (protocol.MAX_FRAME_BYTES + 2))
                    # Server replies with an in-band error, then hangs up.
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        if not client._sock.recv(65536):
                            break
                finally:
                    client.close()

        run_with_deadline(hostile_round, seconds=60.0)
        wait_until(
            lambda: len(server._conns) == 0,
            message=f"{len(server._conns)} hostile conns leaked in _conns",
        )
        # Every rejected frame is counted, like any other framing error.
        assert errors.value == errors_before + 20
        # stop() after the hostile churn must not re-close dead sockets
        # (the seed kept them listed and re-closed every one).
        server.stop()
        assert server._conns == []

    def test_interleaved_live_and_churning_clients(self, server_and_connect):
        """Churn with a long-lived client in flight: neither disturbs the other."""
        server, connect = server_and_connect
        stop = threading.Event()
        errors = []

        def steady():
            with connect() as client:
                n = 0
                while not stop.is_set():
                    reply = client.call(
                        protocol.MSG_CONTAINER_EXIT, container_id="steady"
                    )
                    if reply["echoed"] != "steady":
                        errors.append(reply)
                        return
                    n += 1
                assert n > 0

        steady_thread = threading.Thread(target=steady)
        steady_thread.start()

        def churn():
            for i in range(100):
                with connect() as client:
                    client.call(protocol.MSG_CONTAINER_EXIT, container_id=f"x{i}")

        try:
            run_with_deadline(churn, seconds=60.0)
        finally:
            stop.set()
            steady_thread.join(timeout=10.0)
        assert not steady_thread.is_alive()
        assert errors == []
        wait_until(lambda: len(server._conns) == 0)
