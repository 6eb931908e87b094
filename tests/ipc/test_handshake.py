"""Codec negotiation over live connections: the handshake state machine.

Covers the downgrade matrix from ``docs/PROTOCOL.md`` — JSON-pinned client
vs binary-capable daemon, binary-capable client vs JSON-only daemon, and a
*true* legacy peer (predates ``hello`` entirely, dies on binary bytes) —
plus the redial paths: a connection lost mid-handshake redials through
:class:`ResilientClient`, and a re-issued request after redial re-runs
negotiation from scratch instead of assuming the previous connection's
codec (the regression fixed in this change).
"""

import json
import os
import socket
import threading

import pytest

from repro.ipc import protocol
from repro.ipc.loop import IoLoop
from repro.ipc.retry import ResilientClient, RetryPolicy
from repro.ipc.tcp_socket import TcpSocketClient, TcpSocketServer
from repro.ipc.unix_socket import UnixSocketClient, UnixSocketServer

#: Message types an old (pre-hello) peer understands.
LEGACY_TYPES = frozenset(protocol.REQUEST_FIELDS) - {protocol.MSG_HELLO}

FAST_RETRY = RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=0.05)


def echo_handler(message, reply_handle):
    return protocol.make_reply(message, echoed=message.get("container_id", ""))


class LegacyJsonServer:
    """An 'old peer': newline-JSON only, no ``hello``, dies on binary bytes.

    Models the downgrade rule's worst case — it answers the handshake with
    an in-band ``unknown message type`` error (exactly one frame, so the
    stream stays in sync) and hangs up on any frame that is not a JSON
    line, so a client that wrongly assumed binary would break loudly.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        if os.path.exists(path):
            os.unlink(path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        buffer = b""
        with conn:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    try:
                        message = json.loads(line.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        return  # binary bytes: an old peer just breaks
                    if message.get("type") in LEGACY_TYPES:
                        if message["type"] in protocol.NOTIFICATION_TYPES:
                            continue
                        reply = protocol.make_reply(
                            message, echoed=message.get("container_id", "")
                        )
                    else:
                        reply = protocol.make_error_reply(
                            message,
                            f"unknown message type {message.get('type')!r}",
                        )
                    try:
                        conn.sendall(
                            json.dumps(reply).encode("utf-8") + b"\n"
                        )
                    except OSError:
                        return

    def stop(self) -> None:
        self._stopping.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does (the accept fails with EINVAL).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        if os.path.exists(self.path):
            os.unlink(self.path)


@pytest.fixture(params=("loop",))
def backend(request):
    """A shared loop, as the daemon serves (param kept for stable test ids)."""
    with IoLoop() as loop:
        yield loop


class TestNegotiationMatrix:
    def test_auto_client_vs_auto_server_lands_on_binary(self, backend, tmp_path):
        path = str(tmp_path / "auto.sock")
        with UnixSocketServer(path, echo_handler, loop=backend):
            with UnixSocketClient(path) as client:
                assert client.codec == protocol.CODEC_BINARY
                reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="a")
                assert reply["echoed"] == "a"

    def test_json_pinned_client_vs_binary_daemon_stays_json(self, backend, tmp_path):
        """A --codec=json client skips the handshake; the server follows."""
        path = str(tmp_path / "jsonclient.sock")
        with UnixSocketServer(path, echo_handler, loop=backend):
            with UnixSocketClient(path, codec="json") as client:
                assert client.codec == protocol.CODEC_JSON
                reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="b")
                assert reply["echoed"] == "b"

    def test_binary_client_vs_json_only_daemon_downgrades(self, backend, tmp_path):
        """--codec=json on the server: the hello is answered with json."""
        path = str(tmp_path / "jsonserver.sock")
        with UnixSocketServer(path, echo_handler, loop=backend, codec="json"):
            with UnixSocketClient(path) as client:
                assert client.codec == protocol.CODEC_JSON
                reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="c")
                assert reply["echoed"] == "c"

    def test_binary_client_vs_legacy_peer_downgrades(self, tmp_path):
        """A pre-hello peer errors the handshake; the client speaks JSON."""
        path = str(tmp_path / "legacy.sock")
        legacy = LegacyJsonServer(path)
        try:
            with UnixSocketClient(path) as client:
                assert client.codec == protocol.CODEC_JSON
                reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="d")
                assert reply["echoed"] == "d"
        finally:
            legacy.stop()

    def test_tcp_negotiates_binary_too(self, backend):
        with TcpSocketServer(echo_handler, loop=backend) as server:
            with TcpSocketClient("127.0.0.1", server.port) as client:
                assert client.codec == protocol.CODEC_BINARY
                reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="e")
                assert reply["echoed"] == "e"

    def test_handshake_does_not_consume_application_seqs(self, tmp_path):
        """Negotiated and JSON-pinned connections number calls identically."""
        path = str(tmp_path / "seqs.sock")
        with UnixSocketServer(path, echo_handler):
            for codec in ("auto", "json"):
                with UnixSocketClient(path, codec=codec) as client:
                    r1 = client.call(protocol.MSG_CONTAINER_EXIT, container_id="x")
                    r2 = client.call(protocol.MSG_CONTAINER_EXIT, container_id="y")
                    assert (r1["seq"], r2["seq"]) == (1, 2)


class TestResilientRedial:
    def test_mid_handshake_disconnect_redials_and_negotiates(self, tmp_path):
        """A peer vanishing between hello and reply is a dial failure: the
        resilient client redials and the fresh connection negotiates."""
        path = str(tmp_path / "flaky.sock")
        flaky = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        flaky.bind(path)
        flaky.listen(2)

        def kill_first_connection():
            conn, _addr = flaky.accept()
            conn.recv(65536)  # the hello arrives ...
            flaky.close()  # ... listener gone first, so the real server
            os.unlink(path)  # can safely rebind the path
            conn.close()  # ... and the peer vanishes mid-handshake

        killer = threading.Thread(target=kill_first_connection, daemon=True)
        killer.start()

        started: dict = {}

        def start_real_server_then_sleep(_delay: float) -> None:
            if "server" not in started:
                killer.join(timeout=5.0)
                started["server"] = UnixSocketServer(path, echo_handler).start()

        client = ResilientClient(
            factory=lambda: UnixSocketClient(path),
            policy=FAST_RETRY,
            sleep=start_real_server_then_sleep,
        )
        try:
            reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="f")
            assert reply["echoed"] == "f"
            assert client.codec == protocol.CODEC_BINARY
            assert client.retries, "expected at least one retried attempt"
        finally:
            client.close()
            if "server" in started:
                started["server"].stop()

    def test_reissue_after_redial_rereuns_negotiation(self, tmp_path):
        """Regression: the re-issued request must renegotiate, not assume
        the previous connection's codec.

        The daemon is replaced between calls by a *legacy* JSON-only build
        that hangs up on binary bytes — a client that cached ``binary``
        across the redial could never complete the second call.
        """
        path = str(tmp_path / "downgrade.sock")
        server = UnixSocketServer(path, echo_handler).start()
        client = ResilientClient(
            factory=lambda: UnixSocketClient(path), policy=FAST_RETRY
        )
        legacy = None
        try:
            assert client.call(protocol.MSG_CONTAINER_EXIT, container_id="g")[
                "echoed"
            ] == "g"
            assert client.codec == protocol.CODEC_BINARY

            server.stop()  # daemon goes away mid-lifetime ...
            legacy = LegacyJsonServer(path)  # ... and an old build comes back

            reply = client.call(protocol.MSG_CONTAINER_EXIT, container_id="h")
            assert reply["echoed"] == "h"
            assert client.codec == protocol.CODEC_JSON  # renegotiated
        finally:
            client.close()
            server.stop()
            if legacy is not None:
                legacy.stop()

    def test_codec_property_is_none_when_disconnected(self, tmp_path):
        path = str(tmp_path / "prop.sock")
        server = UnixSocketServer(path, echo_handler).start()
        client = ResilientClient(
            factory=lambda: UnixSocketClient(path), policy=FAST_RETRY
        )
        try:
            assert client.codec is None  # not dialed yet
            client.call(protocol.MSG_CONTAINER_EXIT, container_id="i")
            assert client.codec == protocol.CODEC_BINARY
            client.close()
            assert client.codec is None  # dropped: nothing to assume
        finally:
            client.close()
            server.stop()
