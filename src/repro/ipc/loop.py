"""Shared selector-based I/O core for the socket transports.

The paper's daemon creates "UNIX socket for each container" (§III-D); a
thread-per-connection server would spend two threads per container (accept
+ reader) and grow without bound under churn.  :class:`IoLoop` is the one
way this repo serves a socket, the classic reactor shape:

- **one selector thread** multiplexes every registered listener and
  connection through :mod:`selectors` — accepting, reading, and splitting
  the byte stream into frames with :func:`repro.ipc.protocol.split_frames`
  (both codecs).  It never runs a handler, so a deferred (paused) reply or
  a slow handler never blocks reads for the other few hundred containers;
- **one dispatch thread** runs protocol decode and the handlers in
  **turns**: a turn takes every connection that has frames queued — and
  every one that queues frames while the turn runs, each at most once —
  hands each connection's frames (everything it sent since its last turn,
  as one list) to its ``on_batch`` callback, and then runs the callbacks
  the batches deferred with :meth:`IoLoop.at_turn_end`, last deferred
  first.
  The socket servers defer their handler's batch commit there, so one
  group-commit ``fsync`` covers the whole turn — every connection, every
  frame — and no reply of the turn leaves before it;
- **per-connection frame ordering** is trivially preserved: one thread
  dispatches, a connection appears at most once per turn, and its frames
  keep arrival order — ``notify`` followed by ``call`` stays in sequence
  and the ``seq`` correlation invariant holds.

Every socket server (:class:`repro.ipc.unix_socket.UnixSocketServer` and
its loopback-TCP ablation subclass) registers its listener with a loop and
spawns no threads of its own; the scheduler daemon creates one
loop and shares it (``loop=``) across the control socket and every
per-container socket, so the daemon's thread count is the loop's two
regardless of how many containers are attached.  A server built without
``loop=`` owns a private loop for its own lifetime.

The loop performs exactly one ``recv`` per readiness event (a
level-triggered selector re-reports a socket that still has buffered
bytes), and replies use ``sendall`` from the dispatch thread (or a thread
completing a deferred reply) under the per-connection write lock, bounded
by the servers' reply deadline (see ``docs/PROTOCOL.md`` for the wire
contract).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
import weakref
from collections import deque
from typing import Any, Callable

from repro.errors import ProtocolError, TransportError
from repro.ipc import protocol
from repro.obs import stages as _stages
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER

__all__ = ["IoLoop"]

_perf_counter = time.perf_counter
# Every connection speaks the ConVGPU wire: frames split by the protocol's
# two-codec splitter, and a buffer past the frame cap is a hostile peer.
_split_frames = protocol.split_frames
_MAX_FRAME_BYTES = protocol.MAX_FRAME_BYTES

# Module alias so the obs-overhead benchmark can stub the recorder per
# module (the _HOT_METRICS idiom); flight events declared once at import.
_REC = RECORDER
_EV_ACCEPT = RECORDER.declare("io.accept", a="fd")
_EV_READ = RECORDER.declare("io.read", a="fd", b="bytes", c="frames")
_EV_CLOSE = RECORDER.declare("io.close", a="fd")
_EV_OVERFLOW = RECORDER.declare("io.overflow", a="fd", b="buffered")
_EV_FRAME_ERROR = RECORDER.declare("io.frame_error", s="error", a="fd")

_QUEUE_DEPTH = REGISTRY.gauge(
    "convgpu_ioloop_queue_depth",
    "Connections queued for the next dispatch turn of the shared I/O loop",
)
_LOOP_CONNECTIONS = REGISTRY.gauge(
    "convgpu_ioloop_connections",
    "Connections currently registered with the shared I/O loop",
)


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self._name}>"


#: Queued after a connection's last frame once the peer hung up.
_CLOSE = _Sentinel("CLOSE")


class _BadFrame:
    """Queued when the stream cannot be framed any further.

    Either the splitter rejected it (carries the
    :class:`~repro.errors.ProtocolError` message) or the peer exceeded the
    frame cap.  The dispatch thread sends the in-band error reply before
    hanging up —
    the selector thread itself never writes and never dies on a hostile
    peer.
    """

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message


class _ConnState:
    """Loop-side bookkeeping for one registered connection."""

    __slots__ = (
        "sock", "on_batch", "on_close", "on_frame_error",
        "buffer", "pending", "scheduled", "finished",
    )

    def __init__(
        self,
        sock: socket.socket,
        on_batch: Callable[[list[bytes]], None],
        on_close: Callable[[], None],
        on_frame_error: Callable[[str], None] | None,
    ) -> None:
        self.sock = sock
        self.on_batch = on_batch
        self.on_close = on_close
        self.on_frame_error = on_frame_error
        self.buffer = b""
        #: Frame lists (and finally a _CLOSE/_BadFrame sentinel) awaiting
        #: the next turn; guarded by the loop's ``_cond``.
        self.pending: list[Any] = []
        #: True while the connection waits in the loop's ready list, so it
        #: is queued at most once per turn; guarded by the loop's ``_cond``.
        self.scheduled = False
        self.finished = False


class IoLoop:
    """One selector thread + one dispatch thread, shared by many servers.

    The dispatch thread runs turns (module docstring).  Frames read but
    not yet dispatched wait in their connection's pending list; a
    closed-loop client (every ConVGPU wrapper) has at most one window of
    them outstanding.
    """

    def __init__(self) -> None:
        self._selector: selectors.BaseSelector | None = None
        #: Guards every connection's ``pending``/``scheduled``/``finished``
        #: and the ready list; the dispatch thread waits on it.
        self._cond = threading.Condition()
        self._ready: list[_ConnState] = []
        self._closing = False
        self._conns: dict[socket.socket, _ConnState] = {}
        self._listeners: dict[socket.socket, Callable[[socket.socket], None]] = {}
        self._ops: deque[Callable[[], None]] = deque()
        self._ops_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        #: Callbacks deferred to the end of the running turn (dispatch
        #: thread only); ``None`` between turns.
        self._turn: list[Callable[[], None]] | None = None
        self._stopping = threading.Event()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._collector: Callable[[], None] | None = None
        #: Wall-clock timestamp of the selector thread's last iteration;
        #: the daemon's watchdog reads it to detect a stalled loop (the
        #: select timeout bounds the gap to ~1s when healthy).
        self.last_tick = 0.0

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def on_dispatch_thread(self) -> bool:
        """True when the caller is this loop's dispatch thread.

        The dispatch thread must never wait for work only it can do (a
        close, a queued batch): nothing else would ever do it.
        """
        return threading.current_thread() is self._dispatcher

    def at_turn_end(self, callback: Callable[[], None]) -> bool:
        """Defer ``callback`` to the end of the running dispatch turn.

        Returns ``False`` (and defers nothing) unless the caller is the
        dispatch thread inside a turn.  Deferred callbacks run after every
        connection of the turn has dispatched, **last deferred first**: a
        batch that opens a bracket here and closes it in its callback nests
        inside every bracket an earlier batch of the turn opened.
        """
        turn = self._turn
        if turn is None or not self.on_dispatch_thread():
            return False
        turn.append(callback)
        return True

    def start(self) -> "IoLoop":
        if self._thread is not None:
            raise TransportError("IoLoop already started")
        self._stopping.clear()
        self._closing = False
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        self._thread = threading.Thread(
            target=self._run, name="convgpu-ioloop", daemon=True
        )
        self._thread.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch, name="convgpu-dispatch", daemon=True
        )
        self._dispatcher.start()
        # Queue depth is sampled at scrape time; the weakref owner (and the
        # weak reference here) keep the process-global registry from
        # pinning a stopped loop alive.
        loop_ref = weakref.ref(self)

        def collect() -> None:
            loop = loop_ref()
            if loop is not None:
                _QUEUE_DEPTH.set(len(loop._ready))

        self._collector = collect
        REGISTRY.add_collector(collect, owner=self)
        return self

    def stop(self) -> None:
        """Stop the loop, close every registered socket, join all threads."""
        if self._thread is None:
            return
        self._stopping.set()
        self._wake()
        self._thread.join(timeout=5.0)
        self._thread = None
        # The loop thread exited without touching its registrations: close
        # the leftovers here so blocked peers wake with a clean EOF.
        for _sock, state in list(self._conns.items()):
            self._enqueue(state, _CLOSE)
        self._conns.clear()
        for listener in list(self._listeners):
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        # The dispatch thread runs every turn still queued — the closes
        # above included — before it sees the loop closing.
        with self._cond:
            self._closing = True
            self._cond.notify()
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher is not threading.current_thread():
            dispatcher.join(timeout=5.0)
        self._dispatcher = None
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:
                pass
            self._selector = None
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._wake_r = self._wake_w = None
        _LOOP_CONNECTIONS.set(0)

    def __enter__(self) -> "IoLoop":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- registration (thread-safe) -----------------------------------------

    def add_listener(
        self, listener: socket.socket, on_accept: Callable[[socket.socket], None]
    ) -> None:
        """Register a listening socket; ``on_accept(conn)`` runs on the loop
        thread for every new connection (it should call
        :meth:`add_connection` and return quickly)."""

        def op() -> None:
            assert self._selector is not None
            self._listeners[listener] = on_accept
            self._selector.register(
                listener, selectors.EVENT_READ, ("listener", on_accept)
            )

        self._post(op)

    def remove_listener(self, listener: socket.socket) -> None:
        """Unregister and close a listening socket (idempotent)."""

        def op() -> None:
            if self._listeners.pop(listener, None) is None:
                return
            if self._selector is not None:
                try:
                    self._selector.unregister(listener)
                except (KeyError, ValueError):
                    pass
            try:
                listener.close()
            except OSError:
                pass

        self._post(op)

    def add_connection(
        self,
        conn: socket.socket,
        *,
        on_batch: Callable[[list[bytes]], None],
        on_close: Callable[[], None],
        on_frame_error: Callable[[str], None] | None = None,
    ) -> None:
        """Register an accepted connection for read multiplexing.

        ``on_batch(frames)`` runs on the dispatch thread, at most once per
        turn, and receives every complete frame the connection sent since
        its last turn as one list, strictly in order; it may defer work to
        the end of the turn with :meth:`at_turn_end`.
        ``on_close()`` runs exactly once when the connection is finished
        (peer EOF, error, :meth:`close_connection` or :meth:`stop`).
        The stream is framed by :func:`repro.ipc.protocol.split_frames`
        (both codecs).  Unrecoverable framing (bad binary header), and a
        peer that exceeds :data:`~repro.ipc.protocol.MAX_FRAME_BYTES`
        without completing a frame, is routed to ``on_frame_error(message)``
        on the dispatch thread and then closes the connection.
        """
        state = _ConnState(conn, on_batch, on_close, on_frame_error)

        def op() -> None:
            if self._selector is None:  # loop already stopped: close out
                self._finish(state)
                return
            self._conns[conn] = state
            _LOOP_CONNECTIONS.inc()
            self._selector.register(conn, selectors.EVENT_READ, ("conn", state))

        self._post(op)

    def close_connection(self, conn: socket.socket) -> None:
        """Drop one connection: pending frames still drain, then it closes."""

        def op() -> None:
            state = self._drop(conn)
            if state is not None:
                self._enqueue(state, _CLOSE)

        self._post(op)

    # -- loop thread ---------------------------------------------------------

    def _post(self, op: Callable[[], None]) -> None:
        if threading.current_thread() is self._thread:
            op()
            return
        if not self.running:
            op()
            return
        with self._ops_lock:
            self._ops.append(op)
        self._wake()

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is not None:
            try:
                # reprolint: ignore[loop-blocking] -- one byte into the
                # socketpair buffer; cannot block, and _run drains it.
                wake.send(b"\0")
            except OSError:
                pass

    def _run_ops(self) -> None:
        while True:
            with self._ops_lock:
                if not self._ops:
                    return
                op = self._ops.popleft()
            try:
                op()
            # reprolint: ignore[swallowed-exception] -- a failed
            # registration op must not take down the loop that serves every
            # other connection; the op's owner observes the broken state.
            except Exception:
                continue

    def _run(self) -> None:
        selector = self._selector
        assert selector is not None
        while not self._stopping.is_set():
            self.last_tick = time.time()
            self._run_ops()
            try:
                events = selector.select(timeout=1.0)
            except OSError:
                continue
            for key, _mask in events:
                kind, payload = key.data
                if kind == "wake":
                    try:
                        # reprolint: ignore[loop-blocking] -- the wake pipe
                        # is non-blocking (setblocking(False) in start()).
                        while self._wake_r is not None and self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                elif kind == "listener":
                    self._handle_accept(key.fileobj, payload)
                else:
                    self._handle_readable(payload)

    def _handle_accept(
        self, listener: Any, on_accept: Callable[[socket.socket], None]
    ) -> None:
        try:
            # reprolint: ignore[loop-blocking] -- called only on a readiness
            # event, so a connection is already queued; returns immediately.
            conn, _addr = listener.accept()
        except OSError:
            return  # listener closed under us; remove_listener cleans up
        _REC.record(_EV_ACCEPT, a=conn.fileno())
        try:
            on_accept(conn)
        except Exception:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_readable(self, state: _ConnState) -> None:
        # recv/frame stage attribution is sampled (every Nth readable
        # event); the flight-recorder io.read event is always on.
        timed = _stages.io_sample()
        began = _perf_counter() if timed else 0.0
        try:
            # reprolint: ignore[loop-blocking] -- exactly one recv per
            # readiness event: the level-triggered selector guarantees
            # buffered bytes, so this returns without waiting.
            chunk = state.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            if self._drop(state.sock) is not None:
                self._enqueue(state, _CLOSE)
            return
        received = _perf_counter() if timed else 0.0
        state.buffer += chunk
        try:
            frames, state.buffer = _split_frames(state.buffer)
        except ProtocolError as exc:
            # Unrecoverable framing (bad magic/version/length): the stream
            # position is meaningless from here on.  The dispatch thread
            # reports the error in-band and hangs up; the selector survives.
            if self._drop(state.sock) is not None:
                _REC.record(_EV_FRAME_ERROR, s=str(exc)[:120], a=state.sock.fileno())
                self._enqueue(state, _BadFrame(str(exc)))
            return
        if timed:
            _stages.observe_stage(_stages.S_RECV, received - began)
            _stages.observe_stage(_stages.S_FRAME, _perf_counter() - received)
        _REC.record(_EV_READ, a=state.sock.fileno(), b=len(chunk), c=len(frames))
        if frames:
            self._enqueue(state, frames)
        if len(state.buffer) > _MAX_FRAME_BYTES:
            # A frame that large can never be valid; stop reading and let the
            # dispatch thread send the in-band error and hang up.
            if self._drop(state.sock) is not None:
                _REC.record(_EV_OVERFLOW, a=state.sock.fileno(), b=len(state.buffer))
                self._enqueue(
                    state,
                    _BadFrame(f"frame exceeds {_MAX_FRAME_BYTES} bytes"),
                )

    def _drop(self, conn: socket.socket) -> _ConnState | None:
        """Loop thread only: unregister a connection, once."""
        state = self._conns.pop(conn, None)
        if state is None:
            return None
        _LOOP_CONNECTIONS.dec()
        if self._selector is not None:
            try:
                self._selector.unregister(conn)
            except (KeyError, ValueError):
                pass
        return state

    # -- dispatch thread -----------------------------------------------------

    def _enqueue(self, state: _ConnState, item: Any) -> None:
        """Queue one frame list/sentinel, readying the connection if idle."""
        with self._cond:
            state.pending.append(item)
            if state.scheduled:
                return
            state.scheduled = True
            self._ready.append(state)
            self._cond.notify()

    def _dispatch(self) -> None:
        """The dispatch thread: one turn per wake-up, until the loop closes."""
        cond = self._cond
        while True:
            with cond:
                while not self._ready and not self._closing:
                    cond.wait()
                if not self._ready:
                    return
            self._run_turn()

    def _take_ready(
        self, taken: set[_ConnState]
    ) -> list[tuple[_ConnState, list[Any]]]:
        """Every ready connection not yet ``taken`` by the turn, with its
        queued items; one already taken stays ready for the next turn."""
        with self._cond:
            batch, later = [], []
            for state in self._ready:
                if state in taken:
                    later.append(state)
                    continue
                taken.add(state)
                batch.append((state, state.pending))
                state.pending = []
                state.scheduled = False
            self._ready = later
        return batch

    def _run_turn(self) -> None:
        """Dispatch every ready connection once, then close the turn.

        Each connection's frame lists become one batch.  Connections that
        become ready while the turn dispatches join it, each at most once,
        so the turn ends and one commit covers them all.  The callbacks
        batches deferred run next, last first; a connection that hung up or
        broke its framing is finished only after them, so its own replies of
        this turn go out before its in-band error and its close.
        """
        deferred: list[Callable[[], None]] = []
        ending: list[tuple[_ConnState, Any]] = []
        taken: set[_ConnState] = set()
        self._turn = deferred
        while batch := self._take_ready(taken):
            for state, items in batch:
                frames: list[bytes] = []
                for item in items:
                    if isinstance(item, list):
                        frames += item
                    else:
                        ending.append((state, item))
                if frames:
                    self._call(state.on_batch, frames)
        self._turn = None
        for callback in reversed(deferred):
            self._call(callback)
        for state, item in ending:
            if isinstance(item, _BadFrame) and state.on_frame_error is not None:
                self._call(state.on_frame_error, item.message)
            self._finish(state)

    @staticmethod
    def _call(callback: Callable[..., Any], *args: Any) -> None:
        try:
            callback(*args)
        # reprolint: ignore[swallowed-exception] -- handler bugs are
        # reported in-band by the server's dispatch, and the in-band frame
        # error is best-effort (the peer may be gone); anything escaping to
        # here must not kill the one dispatch thread, nor skip the rest of
        # its turn.
        except Exception:
            pass

    def _finish(self, state: _ConnState) -> None:
        with self._cond:
            if state.finished:
                return
            state.finished = True
        try:
            _REC.record(_EV_CLOSE, a=state.sock.fileno())
        except OSError:
            pass
        try:
            state.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            state.sock.close()
        except OSError:
            pass
        try:
            state.on_close()
        # reprolint: ignore[swallowed-exception] -- on_close runs exactly
        # once per connection during teardown; a buggy callback must not
        # leak the socket or kill the dispatch thread.
        except Exception:
            pass
