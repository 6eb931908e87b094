"""IPC substrate: the UNIX-socket + JSON plumbing of ConVGPU (§III-A).

Three interchangeable transports share one handler contract
(``handler(message, reply_handle) -> reply | DEFER``):

- :mod:`repro.ipc.unix_socket` — real ``AF_UNIX`` sockets (the paper's
  choice; used by the live experiments so Fig. 4 measures genuine kernel
  round-trips);
- :mod:`repro.ipc.tcp_socket` — loopback TCP (the rejected alternative,
  kept for the ablation benchmark);
- :mod:`repro.ipc.channel` — in-process dispatch for deterministic tests
  and the discrete-event simulation.

Both socket transports are served one way: a selector loop
(:mod:`repro.ipc.loop` — one I/O thread multiplexes every listener and
connection, one dispatch thread runs the handlers).  Pass ``loop=IoLoop()`` to
share one loop across servers, as the daemon does; a server built without
it owns a private loop between ``start()`` and ``stop()`` (DESIGN.md §10).

Client-side crash resilience (reconnect + exponential backoff with jitter)
lives in :mod:`repro.ipc.retry`; transports raise the typed
:class:`~repro.errors.IpcTimeoutError` / :class:`~repro.errors.IpcDisconnected`
errors that the retry loop keys on.
"""

from repro.ipc.channel import ChannelReplyHandle, InProcessChannel, PendingReply
from repro.ipc.loop import IoLoop
from repro.ipc.protocol import (
    MAX_FRAME_BYTES,
    MSG_ALLOC_ABORT,
    MSG_ALLOC_COMMIT,
    MSG_ALLOC_RELEASE,
    MSG_ALLOC_REQUEST,
    MSG_CONTAINER_EXIT,
    MSG_HEARTBEAT,
    MSG_MEM_GET_INFO,
    MSG_PROCESS_EXIT,
    MSG_REGISTER_CONTAINER,
    decode,
    encode,
    make_error_reply,
    make_reply,
    make_request,
    validate_request,
)
from repro.ipc.retry import (
    DEFAULT_RETRY_POLICY,
    ResilientClient,
    RetryPolicy,
    call_with_retry,
)
from repro.ipc.tcp_socket import TcpSocketClient, TcpSocketServer
from repro.ipc.unix_socket import DEFER, ReplyHandle, UnixSocketClient, UnixSocketServer

__all__ = [
    "MSG_REGISTER_CONTAINER",
    "MSG_CONTAINER_EXIT",
    "MSG_ALLOC_REQUEST",
    "MSG_ALLOC_COMMIT",
    "MSG_ALLOC_ABORT",
    "MSG_ALLOC_RELEASE",
    "MSG_MEM_GET_INFO",
    "MSG_PROCESS_EXIT",
    "MSG_HEARTBEAT",
    "MAX_FRAME_BYTES",
    "RetryPolicy",
    "ResilientClient",
    "DEFAULT_RETRY_POLICY",
    "call_with_retry",
    "make_request",
    "make_reply",
    "make_error_reply",
    "validate_request",
    "encode",
    "decode",
    "DEFER",
    "IoLoop",
    "ReplyHandle",
    "UnixSocketServer",
    "UnixSocketClient",
    "TcpSocketServer",
    "TcpSocketClient",
    "InProcessChannel",
    "PendingReply",
    "ChannelReplyHandle",
]
