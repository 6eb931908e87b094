"""Loopback TCP transport — the alternative the paper rejected.

§III-A: "We also consider conventional TCP/IP socket, but we did not choose
it, because of its complexity and low performance compared to that of UNIX
socket."  This transport exists solely so the IPC ablation benchmark
(`benchmarks/test_bench_ablation_ipc.py`) can quantify that design choice on
the reproduction machine.  Interface-compatible with
:mod:`repro.ipc.unix_socket`, including what ``loop=`` means.
"""

from __future__ import annotations

import socket

from repro.ipc.loop import IoLoop
from repro.ipc.unix_socket import (
    Handler,
    _BaseSocketClient,
    _BaseSocketServer,
    map_os_error,
)

__all__ = ["TcpSocketServer", "TcpSocketClient", "listen_tcp"]


def listen_tcp(host: str, port: int) -> socket.socket:
    """Bound, listening TCP socket (``port`` 0 = ephemeral)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(128)
    return listener


class TcpSocketServer(_BaseSocketServer):
    """Loopback-TCP server speaking the ConVGPU protocol.

    Pass ``loop=`` to serve from a shared :class:`~repro.ipc.loop.IoLoop`;
    without it the server runs a private one between ``start()`` and
    ``stop()``.
    """

    transport = "tcp"

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        loop: IoLoop | None = None,
        codec: str = "auto",
    ) -> None:
        super().__init__(handler, loop=loop, codec=codec)
        self.host = host
        self.port = port  # 0 = ephemeral; actual port published after start()

    def _make_listener(self) -> socket.socket:
        listener = listen_tcp(self.host, self.port)
        self.port = listener.getsockname()[1]
        return listener

    def _configure_conn(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class TcpSocketClient(_BaseSocketClient):
    """Blocking request/response client over loopback TCP."""

    def __init__(
        self, host: str, port: int, timeout: float | None = None,
        codec: str = "auto",
    ) -> None:
        super().__init__()
        self._label = f"{host}:{port}"
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._sock.connect((host, port))
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            self._sock.close()
            raise map_os_error(exc, f"cannot connect to {host}:{port}") from exc
        self._init_stream(codec)
