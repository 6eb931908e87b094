"""Real AF_UNIX transport for the ConVGPU protocol.

The paper chose UNIX sockets over shared memory, plain files, and TCP/IP
(§III-A) — Docker blocks host↔container IPC, a bind-mounted socket directory
crosses that boundary safely, and UNIX sockets beat loopback TCP on latency.
We use genuine ``AF_UNIX`` sockets here so that the Fig. 4 reproduction
measures *actual* kernel round-trip costs, not a constant we made up; the
ablation benchmark compares this against loopback TCP to reproduce the
paper's design argument.

Frames carry the protocol in either codec — newline-delimited JSON or the
versioned binary framing — negotiated per connection with the ``hello``
handshake (see :mod:`repro.ipc.protocol` and ``docs/PROTOCOL.md``); JSON is
the floor both sides can always fall back to.

Pause semantics: the server hands each request to a handler which may reply
immediately or return :data:`DEFER`; a deferred reply is completed later via
the :class:`ReplyHandle` the handler received — meanwhile the client's
``call()`` simply stays blocked in ``recv``, which is precisely how ConVGPU
suspends a container ("the response from the scheduler will be suspended
until the required size of memory is available", §III-D).

Every server is driven by a :class:`repro.ipc.loop.IoLoop` — one selector
thread and a bounded worker pool — and spawns no threads of its own.
``loop=`` only says whose loop: a server given one registers its listener
there and never stops it (the daemon shares one loop across hundreds of
container sockets); a server built without one starts a private
``IoLoop()`` in ``start()`` and stops it in ``stop()``.  The wire contract
is in ``docs/PROTOCOL.md``.
"""

from __future__ import annotations

import errno
import os
import socket
import threading
import time
from typing import Any, Callable, Mapping

from repro.errors import (
    IpcDisconnected,
    IpcTimeoutError,
    ProtocolError,
    TransportError,
)
from repro.ipc import protocol
from repro.ipc.loop import IoLoop
from repro.obs import stages as _stages
from repro.obs.log import ObsLogger, get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER

__all__ = ["DEFER", "ReplyHandle", "UnixSocketServer", "UnixSocketClient",
           "listen_unix", "map_os_error", "refuse"]

_perf_counter = time.perf_counter

# Module alias for the obs-overhead benchmark's stub idiom.
_REC = RECORDER
_EV_BATCH = RECORDER.declare(
    "ipc.batch", s="transport", a="frames", b="out_bytes", x="seconds"
)
_EV_HELLO = RECORDER.declare("ipc.hello", s="codec")

# Shared by both socket transports (tcp_socket.py imports these handles):
# the transport label tells the two apart on one scrape.
FRAMES_RECEIVED = REGISTRY.counter(
    "convgpu_frames_received_total",
    "Protocol frames dispatched by socket servers",
    labelnames=("transport",),
)
PROTOCOL_ERRORS = REGISTRY.counter(
    "convgpu_protocol_errors_total",
    "Frames rejected by decode/validation at socket servers",
    labelnames=("transport",),
)
OPEN_CONNECTIONS = REGISTRY.gauge(
    "convgpu_open_connections",
    "Server-side protocol connections currently open",
    labelnames=("transport",),
)
BATCH_DEPTH = REGISTRY.histogram(
    "convgpu_ipc_batch_depth",
    "Frames dispatched per batch (one readable event, merged batches)",
    labelnames=("transport",),
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)
COALESCED_BYTES = REGISTRY.histogram(
    "convgpu_ipc_coalesced_reply_bytes",
    "Bytes per coalesced reply sendall (one per dispatched batch)",
    labelnames=("transport",),
    buckets=(64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536),
)
_LOG = get_logger("ipc")


def refuse(log: ObsLogger, message: Mapping[str, Any], error: str, event: str) -> Any:
    """Turn ``message`` away with ``error``.

    A request gets an error reply of its own type.  A notification gets no
    reply (the transport sends none), so its only trace is one ``event``
    warning on ``log``.
    """
    if message["type"] in protocol.NOTIFICATION_TYPES:
        log.warning(
            event,
            type=message["type"],
            container_id=message.get("container_id", ""),
            error=error,
        )
        return None
    return protocol.make_error_reply(message, error)


def map_os_error(exc: OSError, context: str) -> TransportError:
    """Translate a raw socket error into the typed IPC error taxonomy.

    ``socket.timeout`` (= ``TimeoutError``) becomes :class:`IpcTimeoutError`;
    peer-gone conditions (refused, reset, broken pipe, unreachable path)
    become :class:`IpcDisconnected`; anything else stays a plain
    :class:`TransportError`.  Shared by both socket transports so callers
    never see a raw ``socket.timeout`` again.
    """
    if isinstance(exc, socket.timeout):
        return IpcTimeoutError(f"{context}: timed out ({exc})")
    if isinstance(exc, (ConnectionError, BrokenPipeError, FileNotFoundError)) or (
        exc.errno in (errno.EPIPE, errno.ECONNRESET, errno.ECONNREFUSED,
                      errno.ENOENT, errno.EBADF, errno.ESHUTDOWN, errno.ENOTCONN)
    ):
        return IpcDisconnected(f"{context}: peer gone ({exc})")
    return TransportError(f"{context}: {exc}")


def listen_unix(path: str) -> socket.socket:
    """Bound, listening AF_UNIX socket at ``path``.

    Replaces a stale socket file (left by a crash) and creates the parent
    directory.
    """
    if os.path.exists(path):
        os.unlink(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(128)
    return listener


class _Defer:
    """Sentinel a handler returns to withhold the reply (container pause)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<DEFER>"


DEFER = _Defer()

#: handler(message, reply_handle) -> reply dict | DEFER
Handler = Callable[[dict[str, Any], "ReplyHandle"], Any]


class _ConnCtx:
    """Per-connection negotiated state, shared by dispatch and handles.

    Mutated only by the single loop worker that processes the
    connection's frames in order, so no lock is needed; reply handles
    capture the value at decode time.  ``sample_n`` is the stage-sampling
    batch counter (:func:`repro.obs.stages.maybe_start`) — a plain slot
    here because per-connection state is cheaper to touch than a
    thread-local on the per-batch hot path.
    """

    __slots__ = ("codec", "sample_n")

    def __init__(self) -> None:
        self.codec = protocol.CODEC_JSON
        self.sample_n = 0


class ReplyHandle:
    """Capability to answer one request, possibly after the handler returned.

    The handle owns the connection socket and its per-connection write
    lock, so a deferred (paused) reply can be completed from *any* thread —
    a loop worker or the scheduler thread that resumes a paused container.
    The reply is encoded with
    the codec of the frame that carried the request, captured at decode
    time — on a negotiated connection that is the negotiated codec.
    """

    def __init__(
        self,
        conn: socket.socket,
        lock: threading.Lock,
        seq: int,
        codec: str = protocol.CODEC_JSON,
    ) -> None:
        self._conn = conn
        self._lock = lock
        self.seq = seq
        self.codec = codec
        self._sent = False

    def send(self, reply: Mapping[str, Any]) -> None:
        """Write the reply frame; safe from any thread, at most once."""
        with self._lock:
            if self._sent:
                raise TransportError(f"reply for seq={self.seq} already sent")
            self._sent = True
            try:
                self._conn.sendall(protocol.encode_as(reply, self.codec))
            except OSError as exc:
                # Client vanished (container killed while paused): the
                # scheduler's exit path cleans its state; nothing to do here.
                raise TransportError(f"send failed: {exc}") from exc

    def render(self, reply: Mapping[str, Any]) -> bytes:
        """Encode the reply and consume the handle *without* writing.

        The batch dispatcher uses this to coalesce every immediate reply of
        one frame batch into a single ``sendall`` — flushed only after the
        batch's group commit, so no decision leaves before it is durable.
        At-most-once is preserved: a handle rendered here raises on a later
        :meth:`send`, exactly as if it had been sent.
        """
        with self._lock:
            if self._sent:
                raise TransportError(f"reply for seq={self.seq} already sent")
            self._sent = True
        return protocol.encode_as(reply, self.codec)


class _BaseSocketServer:
    """Shared server machinery for both socket transports.

    Subclasses provide :meth:`_make_listener` (and optionally
    :meth:`_configure_conn` / :meth:`_after_stop`); everything else —
    accept, dispatch, connection lifecycle on the I/O loop — lives here so
    the two transports cannot drift apart.

    Connection-lifecycle invariants (regression-tested under churn):

    - every accepted connection appears in ``_conns`` exactly until it is
      finished, whichever side hung up first — ``stop()`` never re-closes a
      dead socket and a long-lived server never accumulates entries;
    - all ``_conns`` bookkeeping is done under ``_conns_lock`` (``stop()``
      iterating while the accept path appends was a data race).
    """

    transport: str = "unknown"

    def __init__(
        self,
        handler: Handler,
        *,
        loop: IoLoop | None = None,
        codec: str = "auto",
    ) -> None:
        if codec not in ("auto", protocol.CODEC_JSON):
            raise TransportError(f"unknown codec {codec!r}")
        self.handler = handler
        self.codec = codec
        #: Codecs this server will agree to in the hello handshake.  JSON is
        #: always offered (the protocol floor); ``codec="json"`` yields a
        #: JSON-only server, the "old peer" of the downgrade rule.
        self._supported = (
            (protocol.CODEC_JSON,)
            if codec == protocol.CODEC_JSON
            else protocol.SUPPORTED_CODECS
        )
        #: The loop serving this server: the caller's shared one, or a
        #: private one that exists only between ``start()`` and ``stop()``.
        self._loop = loop
        self._owns_loop = loop is None
        # Label resolution takes the metric family's lock; resolve the
        # per-frame counter's child once instead of on every frame.
        self._frames_received = FRAMES_RECEIVED.labels(transport=self.transport)
        self._batch_depth = BATCH_DEPTH.labels(transport=self.transport)
        self._coalesced_bytes = COALESCED_BYTES.labels(transport=self.transport)
        self._listener: socket.socket | None = None
        self._conns: list[socket.socket] = []
        self._conns_lock = threading.Lock()
        #: Signalled by ``_forget`` when the last connection leaves.
        self._conns_empty = threading.Condition(self._conns_lock)
        self._stopping = threading.Event()

    # -- transport hooks -----------------------------------------------------

    def _make_listener(self) -> socket.socket:
        raise NotImplementedError

    def _configure_conn(self, conn: socket.socket) -> None:
        """Per-connection socket options (TCP sets NODELAY here)."""

    def _after_stop(self) -> None:
        """Post-shutdown cleanup (UNIX unlinks the socket file here)."""

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        if self._listener is not None:
            raise TransportError("server already started")
        self._stopping.clear()
        listener = self._make_listener()
        self._listener = listener
        if self._owns_loop:
            self._loop = IoLoop().start()
        assert self._loop is not None
        self._loop.add_listener(listener, self._loop_accept)
        return self

    def stop(self) -> None:
        """Stop accepting and close all connections (idempotent).

        A shared loop is left running for its other servers; a private one
        is stopped here, which joins every thread ``start()`` created.
        """
        self._stopping.set()
        listener, self._listener = self._listener, None
        loop = self._loop
        if loop is not None:
            if listener is not None:
                loop.remove_listener(listener)
            with self._conns_lock:
                conns = list(self._conns)
            for conn in conns:
                loop.close_connection(conn)
            # The loop's workers complete the closes (after draining any
            # frames already queued for those connections).  An outside
            # caller waits (bounded) for the last _forget so stop() is
            # observably complete for well-behaved peers; a loop worker —
            # container_exit tear-down runs on one — must not: the closes
            # it would wait for need a worker of the same pool, and a full
            # pool of waiting workers starves every connection on the loop.
            if not loop.on_worker():
                with self._conns_lock:
                    self._conns_empty.wait_for(
                        lambda: not self._conns, timeout=2.0
                    )
            if self._owns_loop:
                loop.stop()
                self._loop = None
        self._after_stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- connection lifecycle -------------------------------------------------

    def _loop_accept(self, conn: socket.socket) -> None:
        """Accept callback run on the loop thread: register, don't read."""
        self._configure_conn(conn)
        write_lock = threading.Lock()
        ctx = _ConnCtx()
        with self._conns_lock:
            if self._stopping.is_set():
                conn.close()
                return
            self._conns.append(conn)
        OPEN_CONNECTIONS.labels(transport=self.transport).inc()
        assert self._loop is not None
        self._loop.add_connection(
            conn,
            on_batch=lambda frames: self._dispatch_batch(
                conn, write_lock, ctx, frames
            ),
            on_close=lambda: self._forget(conn),
            on_frame_error=lambda message: self._send_frame_error(
                conn, write_lock, message
            ),
        )

    def _forget(self, conn: socket.socket) -> None:
        """Close one connection and drop its bookkeeping, exactly once."""
        with self._conns_lock:
            try:
                self._conns.remove(conn)
            except ValueError:
                return  # already forgotten
            # Under the lock, so a stop() woken below finds the gauge
            # settled too (the loop closed the socket before calling here).
            OPEN_CONNECTIONS.labels(transport=self.transport).dec()
            if not self._conns:
                self._conns_empty.notify_all()
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _send_frame_error(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        message: str,
    ) -> None:
        """In-band error for an unrecoverable framing violation.

        Bad magic/version/length or a frame over the size cap: the stream
        is undecodable at this point, so there is no frame codec to mirror
        — the error goes out as newline-JSON, the protocol floor every peer
        (and every debugging probe) can parse.  The loop hangs up after.
        """
        PROTOCOL_ERRORS.labels(transport=self.transport).inc()
        reply = protocol.make_error_reply({"type": "unknown", "seq": 0}, message)
        try:
            with write_lock:
                conn.sendall(protocol.encode(reply))
        except OSError:
            pass

    def _dispatch_batch(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        ctx: _ConnCtx,
        frames: list[bytes],
    ) -> None:
        """Decode and dispatch every frame of one readable event as a unit.

        Immediate replies are encoded into ``out`` (consuming their handles)
        and flushed with one ``sendall`` *after* the handler's batch-commit
        hook — so a single group-commit ``fsync`` makes every decision in
        the batch durable before any reply reaches a client.  Deferred
        (paused) replies keep their handles and are sent whenever the
        scheduler resumes them; resumes triggered *by this batch* happen
        inside ``batch_commit``, after that same fsync.
        """
        out: list[bytes] = []
        began = _perf_counter()
        # One sampling decision per batch: every SAMPLE_EVERY-th batch arms
        # a StageClock for its first frame AND times the batch-level stage
        # shares (fsync/send), so the sampled request and its amortized
        # durability/wire costs land on the same observation — and the
        # unsampled stream pays a single counter bump per batch.
        clock = _stages.maybe_start(ctx)
        timed = clock is not None
        self._batch_depth.observe(len(frames))
        begin = getattr(self.handler, "batch_begin", None)
        commit = getattr(self.handler, "batch_commit", None)
        if begin is not None:
            begin()
        try:
            for frame in frames:
                self._dispatch_one(conn, write_lock, ctx, frame, out, clock)
                clock = None
        finally:
            if commit is not None:
                if timed:
                    commit_began = _perf_counter()
                    commit()
                    # One group-commit fsync covered the whole batch; each
                    # request's durability share is the amortized cost.
                    _stages.observe_stage(
                        _stages.S_FSYNC,
                        (_perf_counter() - commit_began) / max(1, len(frames)),
                    )
                else:
                    commit()
        out_bytes = 0
        if out:
            payload = b"".join(out)
            out_bytes = len(payload)
            self._coalesced_bytes.observe(out_bytes)
            try:
                if timed:
                    send_began = _perf_counter()
                    with write_lock:
                        conn.sendall(payload)
                    _stages.observe_stage(
                        _stages.S_SEND, _perf_counter() - send_began
                    )
                else:
                    with write_lock:
                        conn.sendall(payload)
            except OSError:
                pass
        elapsed = _perf_counter() - began
        if elapsed >= _stages.SLOW_SECONDS:
            # Slow-outlier catch at batch granularity: armed samples carry
            # their stage breakdown, while this check guarantees a stalled batch is
            # never missed even when none of its frames were sampled.  The
            # client-visible latency of every reply in the batch includes
            # the whole batch's dispatch time, so the batch clock *is* the
            # right slowness measure for the unsampled stream.
            _stages.note_slow(
                msg_type=f"batch[{len(frames)}]",
                container="",
                total=elapsed,
            )
        # Real batches (pipelined clients) always leave a flight event; a
        # depth-1 stream records only its sampled batches — the loop's
        # per-chunk io.read events already cover every frame, and the
        # blocking wire is exactly where a per-message record would eat
        # the always-on budget.
        if timed or len(frames) > 1:
            _REC.record(
                _EV_BATCH,
                s=self.transport,
                a=len(frames),
                b=out_bytes,
                x=elapsed,
            )

    def _dispatch_one(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        ctx: _ConnCtx,
        frame: bytes,
        out: list[bytes],
        clock: "_stages.StageClock | None" = None,
    ) -> None:
        self._frames_received.inc()
        # Stage attribution: the batch dispatcher arms a StageClock for the
        # first frame of every SAMPLE_EVERY-th batch (decode → dispatch →
        # lock/transition/fsync via stages.current() in the scheduler
        # runtime → encode); unarmed frames pay nothing here — slow-outlier
        # detection rides the batch clock in _dispatch_batch.
        # Replies are rendered in the codec the *frame* arrived in, not the
        # connection's negotiated codec: a raw newline-JSON probe on a
        # negotiated-binary connection (debug tooling, a client that never
        # upgraded) still gets an answer it can parse.
        frame_codec = (
            protocol.CODEC_BINARY
            if frame[:4] == protocol.WIRE_MAGIC
            else protocol.CODEC_JSON
        )
        try:
            if frame_codec == protocol.CODEC_BINARY:
                # Binary decode enforces the field tables by construction
                # (types, ranges, lengths), so the JSON-side validate pass
                # would be redundant on the hot path.
                message = protocol.decode_binary(frame)
                if message["type"] not in protocol.REQUEST_FIELDS:
                    raise ProtocolError(
                        f"unexpected message type {message['type']!r}"
                    )
            else:
                message = protocol.decode(frame)
                protocol.validate_request(message)
        except Exception as exc:  # protocol errors go back in-band
            PROTOCOL_ERRORS.labels(transport=self.transport).inc()
            reply = protocol.make_error_reply({"type": "unknown", "seq": 0}, str(exc))
            out.append(protocol.encode_as(reply, frame_codec))
            return
        if clock is not None:
            clock.mark(_stages.S_DECODE)
        if message["type"] == protocol.MSG_HELLO:
            # Codec negotiation is a transport concern: answer here (always
            # in JSON, both directions) and switch the connection before the
            # batch's remaining frames — a pipelining client may follow its
            # hello with binary frames optimistically.
            chosen = protocol.negotiate_codec(message["codecs"], self._supported)
            out.append(protocol.encode(protocol.make_reply(message, codec=chosen)))
            ctx.codec = chosen
            _REC.record(_EV_HELLO, s=chosen)
            return
        handle = ReplyHandle(conn, write_lock, message.get("seq", 0), frame_codec)
        if clock is not None:
            _stages.set_current(clock)
            try:
                result = self.handler(message, handle)
            except Exception as exc:
                result = refuse(_LOG, message, f"internal error: {exc}",
                                "notification_failed")
            finally:
                _stages.set_current(None)
            clock.mark_dispatch()
        else:
            try:
                result = self.handler(message, handle)
            except Exception as exc:  # handler bug: report, don't kill the conn
                result = refuse(_LOG, message, f"internal error: {exc}",
                                "notification_failed")
        rendered = False
        if (
            message["type"] not in protocol.NOTIFICATION_TYPES
            and result is not DEFER
            and result is not None
        ):
            # Notifications get no reply (sending one would desynchronize the
            # client's seq correlation) and DEFER means the scheduler will
            # complete the handle later (pause).
            try:
                out.append(handle.render(result))
                rendered = True
            except (TransportError, ProtocolError):
                # Already sent by the handler itself, or unserializable —
                # either way the rest of the batch must still dispatch.
                pass
        if clock is not None:
            if rendered:
                clock.mark(_stages.S_ENCODE)
            _stages.finish(
                clock,
                msg_type=message["type"],
                container=message.get("container_id", ""),
            )


class UnixSocketServer(_BaseSocketServer):
    """UNIX-socket server speaking the ConVGPU protocol.

    One instance per socket path; the GPU memory scheduler daemon creates
    one per container plus one control socket (mirroring §III-D: "It
    creates UNIX socket for each container").  Pass ``loop=`` to serve this
    socket from a shared :class:`~repro.ipc.loop.IoLoop`; without it the
    server runs a private one between ``start()`` and ``stop()``.
    """

    transport = "unix"

    def __init__(
        self,
        path: str,
        handler: Handler,
        *,
        loop: IoLoop | None = None,
        codec: str = "auto",
    ) -> None:
        super().__init__(handler, loop=loop, codec=codec)
        self.path = path

    def _make_listener(self) -> socket.socket:
        return listen_unix(self.path)

    def _after_stop(self) -> None:
        if os.path.exists(self.path):
            try:
                os.unlink(self.path)
            except OSError:
                pass


class _BaseSocketClient:
    """Shared blocking request/response client machinery (both transports).

    Subclass ``__init__`` connects its socket, then calls
    :meth:`_init_stream` — which runs the hello handshake unless the caller
    pinned ``codec="json"`` (the legacy wire, also the trace-friendly debug
    mode).  ``codec="auto"`` offers every supported codec and accepts
    whatever the server picks; a peer that
    rejects or mis-answers the hello leaves the connection on JSON, never
    broken.  Because negotiation happens at connect time, every redial
    (e.g. :class:`repro.ipc.retry.ResilientClient` re-running its factory)
    renegotiates from scratch instead of assuming the old connection's
    codec.
    """

    def __init__(self) -> None:
        # Subclasses set _sock/_label before calling _init_stream().
        self._sock: socket.socket
        self._label = ""
        self._buffer = b""
        self._frames: list[bytes] = []
        self._seq = 0
        self._lock = threading.Lock()
        self.codec = protocol.CODEC_JSON

    def _init_stream(self, codec: str) -> None:
        if codec not in ("auto", protocol.CODEC_JSON):
            self.close()
            raise TransportError(f"unknown codec {codec!r}")
        if codec == protocol.CODEC_JSON:
            return  # legacy wire: no handshake, stay on JSON
        try:
            self._negotiate()
        except BaseException:
            self.close()
            raise

    def _negotiate(self) -> None:
        """Run the hello handshake (always JSON) and adopt the result.

        The hello rides on seq 0, outside the application seq counter, so
        negotiated and JSON-pinned connections number their calls
        identically (1, 2, …) — codec choice never shifts the visible
        wire contract.
        """
        with self._lock:
            request = protocol.make_request(
                protocol.MSG_HELLO,
                seq=0,
                codecs=list(protocol.SUPPORTED_CODECS),
            )
            try:
                self._sock.sendall(protocol.encode(request))
                reply = self._read_reply()
            except OSError as exc:
                raise map_os_error(
                    exc, f"handshake failed on {self._label}"
                ) from exc
            chosen = reply.get("codec")
            if (
                reply.get("status") == "ok"
                and reply.get("seq") == 0
                and chosen in protocol.SUPPORTED_CODECS
            ):
                self.codec = chosen
            # Anything else — an error reply from a JSON-only peer (possibly
            # with seq 0), an unknown codec name — downgrades to JSON; the
            # legacy peer answered exactly one frame, so the stream is back
            # in sync either way.

    def call(self, msg_type: str, **payload: Any) -> dict[str, Any]:
        """Send one request and block until its reply arrives.

        Blocking here *is* the pause mechanism: when the scheduler defers
        the reply, the calling thread (the user program's CUDA call) sits in
        ``recv`` until memory is assigned.
        """
        with self._lock:
            self._seq += 1
            request = protocol.make_request(msg_type, seq=self._seq, **payload)
            try:
                self._sock.sendall(protocol.encode_as(request, self.codec))
                reply = self._read_reply()
            except OSError as exc:
                raise map_os_error(exc, f"call failed on {self._label}") from exc
            if reply.get("seq") != self._seq:
                raise TransportError(
                    f"reply seq {reply.get('seq')} != request seq {self._seq}"
                )
            return reply

    def call_pipelined(
        self, requests: list[tuple[str, dict[str, Any]]]
    ) -> list[dict[str, Any]]:
        """Send N requests in one ``sendall``, then collect the N replies.

        The client half of request pipelining: the server batch-decodes
        every complete frame per readable event, dispatches them as one
        unit under a single journal group commit, and answers with one
        ``sendall`` of its own — so a window of W requests costs one
        syscall round-trip and one fsync instead of W of each.

        Replies are matched by ``seq``, not by arrival order: a paused
        allocation's reply is withheld until the scheduler resumes it and
        may land after the replies of later requests in the window.
        Returns replies in request order.

        Equivalent to :meth:`pipeline_send` + :meth:`pipeline_collect`;
        use those directly to overlap windows across several connections.
        """
        return self.pipeline_collect(self.pipeline_send(requests))

    def pipeline_send(
        self, requests: list[tuple[str, dict[str, Any]]]
    ) -> list[int]:
        """Fire one pipelined window; returns the seqs of expected replies.

        Unlike :meth:`call`, requests are validated by the codec/server
        rather than eagerly here — the window is written with a single
        ``sendall`` and a schema violation comes back as that request's
        in-band error reply.
        """
        with self._lock:
            parts: list[bytes] = []
            seqs: list[int] = []
            codec = self.codec
            for msg_type, payload in requests:
                self._seq += 1
                request = {"type": msg_type, "seq": self._seq, **payload}
                parts.append(protocol.encode_as(request, codec))
                if msg_type not in protocol.NOTIFICATION_TYPES:
                    seqs.append(self._seq)
            if not parts:
                return seqs
            try:
                self._sock.sendall(b"".join(parts))
            except OSError as exc:
                raise map_os_error(
                    exc, f"pipelined send failed on {self._label}"
                ) from exc
            return seqs

    def pipeline_collect(self, seqs: list[int]) -> list[dict[str, Any]]:
        """Collect the replies for one :meth:`pipeline_send` window."""
        if not seqs:
            return []
        with self._lock:
            by_seq: dict[int, dict[str, Any]] = {}
            outstanding = set(seqs)
            try:
                while outstanding:
                    reply = self._read_reply()
                    seq = reply.get("seq")
                    if seq not in outstanding:
                        raise TransportError(
                            f"unexpected reply seq {seq!r} from {self._label}"
                        )
                    outstanding.discard(seq)
                    by_seq[seq] = reply
            except OSError as exc:
                raise map_os_error(
                    exc, f"pipelined call failed on {self._label}"
                ) from exc
            return [by_seq[seq] for seq in seqs]

    def notify(self, msg_type: str, **payload: Any) -> None:
        """Send a fire-and-forget notification (no reply expected).

        Only valid for :data:`repro.ipc.protocol.NOTIFICATION_TYPES` — the
        server sends no reply for those, so the stream stays in sync with
        the seq counter of blocking calls.
        """
        if msg_type not in protocol.NOTIFICATION_TYPES:
            raise TransportError(f"{msg_type!r} is not a notification type")
        with self._lock:
            self._seq += 1
            request = protocol.make_request(msg_type, seq=self._seq, **payload)
            try:
                self._sock.sendall(protocol.encode_as(request, self.codec))
            except OSError as exc:
                raise map_os_error(exc, f"notify failed on {self._label}") from exc

    def _read_reply(self) -> dict[str, Any]:
        # Frames already split from an earlier recv (a pipelined window's
        # replies usually land in one chunk) are served without touching
        # the buffer again.
        if self._frames:
            return protocol.decode_any(self._frames.pop(0))
        while True:
            frames, self._buffer = protocol.split_frames(self._buffer)
            self._frames.extend(frames)
            if self._frames:
                return protocol.decode_any(self._frames.pop(0))
            if len(self._buffer) > protocol.MAX_FRAME_BYTES:
                raise TransportError(
                    f"reply frame from {self._label} exceeds "
                    f"{protocol.MAX_FRAME_BYTES} bytes"
                )
            chunk = self._sock.recv(65536)
            if not chunk:
                raise IpcDisconnected(
                    f"server on {self._label} closed the connection"
                )
            self._buffer += chunk

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class UnixSocketClient(_BaseSocketClient):
    """Blocking request/response client (the wrapper module's side)."""

    def __init__(
        self, path: str, timeout: float | None = None, codec: str = "auto"
    ) -> None:
        super().__init__()
        self.path = path
        self._label = path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._sock.connect(path)
        except OSError as exc:
            self._sock.close()
            raise map_os_error(exc, f"cannot connect to {path}") from exc
        self._init_stream(codec)
