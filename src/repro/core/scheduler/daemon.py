"""The scheduler daemon — the live analogue of the paper's Go program.

"GPU memory scheduler is a standalone program written in Go ... It runs on
the host machine similar to nvidia-docker-plugin" (§III-D).  Here it is a
thread-backed server owning:

- one **control socket** (``convgpu.sock``) that the customized
  nvidia-docker and the nvidia-docker-plugin talk to (registration, exit);
- one **per-container directory** containing that container's UNIX socket
  and a copy of the wrapper module — the directory nvidia-docker
  bind-mounts into the container (§III-B/D).

Beyond the paper, this daemon is **crash-safe**:

- pass a :class:`~repro.core.scheduler.journal.SchedulerJournal` and every
  scheduler decision is durable before its reply leaves the host;
  :meth:`SchedulerDaemon.recover` rebuilds a daemon from the journal after
  a crash, recreating every open container's socket so reconnecting
  wrappers find it at the same path;
- pass a :class:`~repro.core.scheduler.liveness.HeartbeatMonitor` and a
  background reaper synthesizes the missing *close* for containers that
  die without one, through the same ``container_exit`` path the
  nvidia-docker-plugin uses.

The daemon is used by the live experiments (Fig. 4/5) where real AF_UNIX
round-trips are measured; simulations bypass it and drive the scheduler
core directly.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import threading
import time
import weakref
from typing import TYPE_CHECKING, Any, Callable

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.journal import SchedulerJournal, restore
from repro.core.scheduler.liveness import HeartbeatMonitor
from repro.core.scheduler.policies import SchedulingPolicy
from repro.core.scheduler.service import SchedulerService
from repro.errors import SchedulerError
from repro.ipc import protocol
from repro.ipc.loop import IoLoop
from repro.ipc.unix_socket import UnixSocketServer, refuse
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER

if TYPE_CHECKING:
    from repro.obs.http import MetricsServer

__all__ = [
    "SchedulerDaemon",
    "WRAPPER_SONAME",
    "CONTAINER_SOCKET_NAME",
    "require_positive",
]

_LOG = get_logger("daemon")
_REC = RECORDER
_EV_START = RECORDER.declare("daemon.start", a="containers")
_EV_STOP = RECORDER.declare("daemon.stop")
_EV_REGISTER = RECORDER.declare("daemon.register", s="container", a="limit")
_EV_EXIT = RECORDER.declare("daemon.exit", s="container", a="reclaimed")
_EV_REAP = RECORDER.declare("daemon.reap", s="container")
_EV_STALL = RECORDER.declare("daemon.watchdog_stall", x="stalled_seconds")

_REAPED = REGISTRY.counter(
    "convgpu_reaped_containers_total",
    "Containers whose close was synthesized by the orphan reaper",
)
_RESERVED = REGISTRY.gauge(
    "convgpu_container_reserved_bytes",
    "Bytes currently reserved (assigned) for the container",
    labelnames=("container",),
)
_USED = REGISTRY.gauge(
    "convgpu_container_used_bytes",
    "Bytes committed + inflight for the container",
    labelnames=("container",),
)
_PAUSE_DEPTH = REGISTRY.gauge(
    "convgpu_pause_queue_depth",
    "Pending (paused) allocation requests across all containers",
)
_UNRESERVED = REGISTRY.gauge(
    "convgpu_unreserved_bytes",
    "Physical GPU memory not promised to any container",
)

#: File name of the wrapper module the daemon "copies" per container.
WRAPPER_SONAME = "libgpushare.so"
#: Socket file name inside each container directory.
CONTAINER_SOCKET_NAME = "convgpu.sock"
#: Verbs only the host's control socket accepts.
_CONTROL_VERBS = frozenset(
    {protocol.MSG_REGISTER_CONTAINER, protocol.MSG_CONTAINER_EXIT}
)


def _container_dir_name(container_id: str) -> str:
    """Directory name of one container's socket and wrapper copy.

    Derived from the *full* id, so two ids that share a prefix never share
    a socket; deterministic, so a recovering daemon re-creates every
    restored container's socket at the path its registration reply gave;
    and 12 characters long whatever the id (AF_UNIX paths are limited to
    108 bytes), with no path separator an id could smuggle in.  Distinct
    ids collide only if their SHA-256 digests share their first 48 bits.
    """
    return hashlib.sha256(container_id.encode("utf-8")).hexdigest()[:12]


class _ContainerHandler:
    """Handler object for one container's socket: it speaks for that
    container only (DESIGN.md §8).

    The socket directory is mounted into exactly one container (§III-B),
    so the socket *is* the tenant's identity.  A frame that names another
    container, or a control verb (``register_container``,
    ``container_exit``), is refused before the service sees it: a request
    gets an error reply, a notification the ``notification_refused``
    warning and no reply.  So one tenant can never touch another tenant's
    record, and the heartbeat the service takes from every frame only ever
    names the bound id.  The batch hooks forward to the service.
    """

    __slots__ = ("_service", "container_id")

    def __init__(self, service: SchedulerService, container_id: str) -> None:
        self._service = service
        self.container_id = container_id

    def __call__(self, message: dict[str, Any], reply_handle) -> Any:
        if (
            message.get("container_id") == self.container_id
            and message["type"] not in _CONTROL_VERBS
        ):
            return self._service.handle(message, reply_handle)
        return self._refuse(message)

    def _refuse(self, message: dict[str, Any]) -> Any:
        msg_type = message["type"]
        if msg_type in _CONTROL_VERBS:
            error = f"{msg_type!r} not accepted on a container socket"
        else:
            error = (
                f"container socket of {self.container_id!r} does not speak "
                f"for {message.get('container_id')!r}"
            )
        return refuse(_LOG, message, error, "notification_refused")

    def batch_begin(self) -> None:
        self._service.batch_begin()

    def batch_commit(self, then: Callable[[], None] | None = None) -> None:
        self._service.batch_commit(then)


class _ControlHandler:
    """Handler object for the control socket.

    The servers' batch dispatcher discovers ``batch_begin``/``batch_commit``
    by attribute lookup on the handler; a bound method exposes neither, so
    the daemon hands the servers handler *objects* — a
    :class:`_ContainerHandler` per container socket, and this thin wrapper
    (which forwards dispatch to ``SchedulerDaemon._handle_control`` and the
    batch hooks to the service) for the control socket.

    ``container_exit`` effect order (DESIGN.md §10): transition → durable →
    resumes → tear-down → exit reply.  A batch's exits are torn down in the
    callback :meth:`batch_commit` hands the service, which runs only once
    the service's outermost commit — the dispatch turn's — made every
    decision of the turn durable and delivered its resumes (a paused waiter
    never sits out the exiting container's socket tear-down), and before
    the dispatcher's flush of the exit replies, which rides that callback.
    """

    __slots__ = ("_daemon", "_batch")

    def __init__(self, daemon: "SchedulerDaemon") -> None:
        self._daemon = daemon
        #: Per-thread stack of open brackets, each the container ids its
        #: batch exited: a dispatch turn nests one bracket per batch inside
        #: the turn's own.
        self._batch = threading.local()

    def __call__(self, message: dict[str, Any], reply_handle) -> Any:
        brackets = getattr(self._batch, "brackets", None)
        return self._daemon._handle_control(
            message, reply_handle, brackets[-1] if brackets else None
        )

    def batch_begin(self) -> None:
        brackets = getattr(self._batch, "brackets", None)
        if brackets is None:
            brackets = self._batch.brackets = []
        brackets.append([])
        self._daemon.service.batch_begin()

    def batch_commit(self, then: Callable[[], None] | None = None) -> None:
        exited = self._batch.brackets.pop()

        def tear_down_then_reply() -> None:
            try:
                for container_id in exited:
                    self._daemon._teardown_container_dir(container_id)
            finally:
                if then is not None:
                    then()

        self._daemon.service.batch_commit(tear_down_then_reply)


def require_positive(options: dict[str, float | None]) -> None:
    """Raise :class:`SchedulerError` naming the first option that is set
    but not positive.  A zero reap interval spins the reaper and a zero
    watchdog interval dumps after any tick."""
    for name, value in options.items():
        if value is not None and value <= 0:
            raise SchedulerError(f"{name} must be positive, got {value:g}")


class SchedulerDaemon:
    """Host daemon: control socket + per-container sockets and directories.

    Args:
        scheduler: the decision engine to serve.
        base_dir: directory for the control socket and per-container
            directories (a temp dir, removed on stop, when omitted).
        transport / io: accepted only as ``"unix"`` / ``"loop"`` and
            otherwise unused — every socket is AF_UNIX (§III-A; loopback
            TCP lives only in the IPC ablation) and is served from one
            shared selector thread plus one dispatch thread; both survive
            because the frozen ``benchmarks/perf/_daemon_child.py`` spells
            them out, and go when that call site drops them.
        codec: wire codec offered by every socket the daemon serves —
            ``"auto"`` (default) negotiates binary with capable peers and
            falls back to JSON; ``"json"`` pins the trace-friendly debug
            mode (and models an old, JSON-only daemon in the downgrade
            tests).  See ``docs/PROTOCOL.md``.
        journal: attached write-ahead journal (owned: closed on stop).
        monitor: heartbeat monitor enabling the orphan reaper.
        reap_interval: seconds between reaper sweeps (> 0).
        metrics_port: when not ``None``, serve the observability endpoint
            (``/metrics`` Prometheus text, ``/metrics.json``, ``/top.json``,
            ``/flight.jsonl``, ``/healthz``) on ``127.0.0.1:metrics_port``
            for the daemon's lifetime (0 = ephemeral; read
            :attr:`metrics_server` ``.port``).
        flight_dump: path the flight recorder dumps to on a watchdog stall
            (and where :meth:`dump_flight` writes by default — the CLI's
            SIGUSR2 handler and crash hook route here).  Enables the I/O
            watchdog thread.
        watchdog_interval: seconds the shared I/O loop may go without an
            iteration before the watchdog declares a stall and dumps (> 0).
    """

    def __init__(
        self,
        scheduler: GpuMemoryScheduler,
        base_dir: str | None = None,
        *,
        transport: str = "unix",
        io: str = "loop",
        codec: str = "auto",
        journal: SchedulerJournal | None = None,
        monitor: HeartbeatMonitor | None = None,
        reap_interval: float = 1.0,
        metrics_port: int | None = None,
        flight_dump: str | None = None,
        watchdog_interval: float = 5.0,
    ) -> None:
        if transport != "unix":
            raise SchedulerError(f"unknown transport {transport!r}")
        if io != "loop":
            raise SchedulerError(f"unknown io backend {io!r}")
        if codec not in ("auto", protocol.CODEC_JSON):
            raise SchedulerError(f"unknown codec {codec!r}")
        require_positive({
            "reap_interval": reap_interval,
            "watchdog_interval": watchdog_interval,
        })
        self.scheduler = scheduler
        self.journal = journal
        self.monitor = monitor
        self.reap_interval = reap_interval
        self.log = get_logger("daemon")
        self.service = SchedulerService(
            scheduler,
            heartbeat_sink=monitor.beat if monitor is not None else None,
        )
        self.codec = codec
        self._control_handler = _ControlHandler(self)
        self._io_loop: IoLoop | None = None
        self._owns_base_dir = base_dir is None
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="convgpu-")
        os.makedirs(self.base_dir, exist_ok=True)
        self.control_path = os.path.join(self.base_dir, "control.sock")
        self._control_server: UnixSocketServer | None = None
        self._container_servers: dict[str, UnixSocketServer] = {}
        self._container_dirs: dict[str, str] = {}
        #: Guards the two maps above while the daemon serves: registration
        #: adds a container's pair and teardown claims it, each as one step.
        self._teardown_lock = threading.Lock()
        self._reaper: threading.Thread | None = None
        self._reaper_stop = threading.Event()
        self.flight_dump = flight_dump
        self.watchdog_interval = watchdog_interval
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        self._stall_dumped = False
        #: Container ids whose close was synthesized by the reaper.
        self.reaped: list[str] = []
        self.metrics_port = metrics_port
        self.metrics_server: MetricsServer | None = None
        # Point-in-time gauges (reservations, queue depth) are produced at
        # scrape time from scheduler state rather than pushed from hot
        # paths — they cannot drift, and restoring from a journal needs no
        # special handling.  The collector closes over a weakref so the
        # process-global registry never pins a dead daemon alive.
        daemon_ref = weakref.ref(self)

        def collect_gauges() -> None:
            daemon = daemon_ref()
            if daemon is not None:
                daemon._collect_gauges()

        self._collector = collect_gauges
        self._collector_registered = True
        REGISTRY.add_collector(collect_gauges, owner=self)

    # -- recovery -------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal_path: str,
        *,
        clock: Callable[[], float] | None = None,
        policy: SchedulingPolicy | None = None,
        rng: Any = None,
        snapshot_interval: int | None = 256,
        fsync: bool = False,
        compact_at_bytes: int | None = None,
        **daemon_kwargs: Any,
    ) -> "SchedulerDaemon":
        """Rebuild a daemon from a crashed daemon's journal.

        Restores the scheduler state, re-attaches the journal (writing a
        compaction snapshot so the recovery itself is durable), and returns
        a daemon ready to :meth:`start` — which recreates the socket of
        every container that was open at the crash.  ``fsync`` and
        ``compact_at_bytes`` configure the re-attached (group-commit)
        journal the same way :class:`SchedulerJournal` takes them
        (auto-compaction off unless a byte threshold is given).
        """
        # Refuse bad options before the journal is compacted in place.
        require_positive({
            name: daemon_kwargs.get(name)
            for name in ("reap_interval", "watchdog_interval")
        })
        scheduler = restore(journal_path, clock=clock, policy=policy, rng=rng)
        journal = SchedulerJournal(
            journal_path,
            snapshot_interval=snapshot_interval,
            fsync=fsync,
            compact_at_bytes=compact_at_bytes,
        )
        journal.attach(scheduler, compact=True)
        return cls(scheduler, journal=journal, **daemon_kwargs)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SchedulerDaemon":
        if self._control_server is not None:
            raise SchedulerError("daemon already started")
        if not self._collector_registered:
            self._collector_registered = True
            REGISTRY.add_collector(self._collector, owner=self)
        self._io_loop = IoLoop().start()
        self._control_server = UnixSocketServer(
            self.control_path,
            self._control_handler,
            loop=self._io_loop,
            codec=self.codec,
        )
        self._control_server.start()
        # Recovery: every container restored open from the journal gets its
        # socket back at the same path, and a fresh heartbeat grace period
        # so reconnecting wrappers are not reaped while they back off.
        for record in self.scheduler.containers():
            if record.container_id not in self._container_dirs:
                self._prepare_container_dir(record.container_id)
            if self.monitor is not None:
                self.monitor.beat(record.container_id)
        if self.monitor is not None:
            self._reaper_stop.clear()
            self._reaper = threading.Thread(target=self._reap_loop, daemon=True)
            self._reaper.start()
        if self.metrics_port is not None and self.metrics_server is None:
            # http.server loads only with a metrics port (DESIGN.md §11).
            from repro.obs.http import MetricsServer

            self.metrics_server = MetricsServer(
                REGISTRY,
                port=self.metrics_port,
                top_source=self.top_snapshot,
                flight_source=lambda: RECORDER.dump_text(reason="http"),
            ).start()
        if self.flight_dump is not None:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(target=self._watchdog_loop, daemon=True)
            self._watchdog.start()
        _REC.record(_EV_START, a=len(self._container_dirs))
        self.log.info(
            "daemon_started",
            base_dir=self.base_dir,
            containers=len(self._container_dirs),
            metrics_url=(
                self.metrics_server.url if self.metrics_server is not None else None
            ),
        )
        return self

    def stop(self) -> None:
        """Orderly shutdown: sockets down, directories removed, journal closed."""
        self.kill()
        for container_id, directory in self._container_dirs.items():
            # Per-container gauge rows live in the process-global registry;
            # an orderly shutdown must not leave them behind as stale truth
            # (kill() deliberately does — a crash leaves everything).
            _RESERVED.remove(container=container_id)
            _USED.remove(container=container_id)
            shutil.rmtree(directory, ignore_errors=True)
        self._container_dirs.clear()
        if self.journal is not None:
            self.journal.close()
        if self._owns_base_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)

    def kill(self) -> None:
        """Crash simulation: drop every socket, leave all state on disk.

        The journal file, container directories and scheduler object are
        left exactly as they were — what a SIGKILL leaves behind.  The
        fault-injection tests follow this with :meth:`recover`.
        """
        if self._watchdog is not None:
            self._watchdog_stop.set()
            self._watchdog.join(timeout=2.0)
            self._watchdog = None
        if self._reaper is not None:
            self._reaper_stop.set()
            self._reaper.join(timeout=2.0)
            self._reaper = None
        for server in self._container_servers.values():
            server.stop()
        self._container_servers.clear()
        if self._control_server is not None:
            self._control_server.stop()
            self._control_server = None
            _REC.record(_EV_STOP)
            self.log.info("daemon_stopped")
        if self._io_loop is not None:
            self._io_loop.stop()
            self._io_loop = None
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        # A dead process's collector dies with it; the in-process analogue
        # must do the same.  Without this, every kill-then-recover cycle in
        # one process (recover() builds a new daemon, each __init__
        # registers a collector, and a caller may keep the old daemon
        # referenced) stacks collectors whose stale schedulers re-publish
        # gauge rows — the metrics double-counting bug.  Idempotent, so stop() calling
        # kill() twice is fine; start() re-registers for an in-process
        # kill-then-start of the *same* daemon object.
        REGISTRY.remove_collector(self._collector)
        self._collector_registered = False

    def __enter__(self) -> "SchedulerDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- control-plane handling ---------------------------------------------

    def _handle_control(
        self,
        message: dict[str, Any],
        reply_handle,
        exited: list[str] | None = None,
    ) -> Any:
        """Handle nvidia-docker / plugin traffic on the control socket.

        ``exited`` is the open dispatch batch's tear-down list (see
        :class:`_ControlHandler`); without one — the reaper — the service
        call below has already waited for durability and delivered the
        resumes when it returns, so the tear-down follows it directly.
        """
        msg_type = message["type"]
        if msg_type == protocol.MSG_REGISTER_CONTAINER:
            reply = self.service.handle(message, reply_handle)
            if isinstance(reply, dict) and reply.get("status") == "ok":
                container_id = message["container_id"]
                if container_id not in self._container_dirs:
                    self._prepare_container_dir(container_id)
                reply = {**reply, "socket_dir": self._container_dirs[container_id]}
                _REC.record(_EV_REGISTER, s=container_id, a=message["limit"])
                self.log.info(
                    "container_registered",
                    container_id=container_id,
                    limit=message["limit"],
                    assigned=reply.get("assigned"),
                    reattached=bool(reply.get("reattached")),
                )
            return reply
        if msg_type == protocol.MSG_CONTAINER_EXIT:
            reply = self.service.handle(message, reply_handle)
            if isinstance(reply, dict) and reply.get("status") != "ok":
                # Unknown (or already-exited) container: there is nothing to
                # tear down, and tearing down anyway is exactly the
                # reaper-races-a-real-exit double-teardown bug.
                self.log.warning(
                    "container_exit_rejected",
                    container_id=message["container_id"],
                    error=reply.get("error"),
                )
                return reply
            if exited is None:
                self._teardown_container_dir(message["container_id"])
            else:
                exited.append(message["container_id"])
            reclaimed = reply.get("reclaimed") if isinstance(reply, dict) else None
            _REC.record(
                _EV_EXIT, s=message["container_id"], a=int(reclaimed or 0)
            )
            self.log.info(
                "container_exited",
                container_id=message["container_id"],
                reclaimed=reclaimed,
            )
            return reply
        # Anything else on the control socket is a protocol misuse.
        return refuse(
            _LOG, message, f"{msg_type!r} not accepted on the control socket",
            "notification_refused",
        )

    def _prepare_container_dir(self, container_id: str) -> str:
        """Create the container's directory, socket and wrapper copy (§III-D)."""
        directory = os.path.join(self.base_dir, _container_dir_name(container_id))
        os.makedirs(directory, exist_ok=True)
        # "copies the wrapper module to the directory" — our wrapper is a
        # Python object, so the copy is a marker file recording the mount.
        with open(os.path.join(directory, WRAPPER_SONAME), "w", encoding="utf-8") as fh:
            fh.write(f"ConVGPU wrapper module for container {container_id}\n")
        # (UnixSocketServer.start unlinks a stale socket left by a crash.)
        server = UnixSocketServer(
            os.path.join(directory, CONTAINER_SOCKET_NAME),
            _ContainerHandler(self.service, container_id),
            loop=self._io_loop,
            codec=self.codec,
        )
        server.start()
        self._track_container(container_id, server, directory)
        return directory

    def _track_container(
        self, container_id: str, server: UnixSocketServer, directory: str
    ) -> None:
        """Add the container's server and directory in one step, under the
        lock :meth:`_teardown_container_dir` claims them with."""
        with self._teardown_lock:
            self._container_servers[container_id] = server
            self._container_dirs[container_id] = directory

    def _teardown_container_dir(self, container_id: str) -> None:
        """Remove one container's socket, directory and gauge rows.

        Idempotent by construction: all bookkeeping is claimed atomically
        under ``_teardown_lock``, so the orphan reaper racing a real
        ``container_exit`` (or a repeated exit) finds nothing left to tear
        down and returns without touching a stopped server twice.
        """
        with self._teardown_lock:
            server = self._container_servers.pop(container_id, None)
            directory = self._container_dirs.pop(container_id, None)
        _RESERVED.remove(container=container_id)
        _USED.remove(container=container_id)
        if self.monitor is not None:
            self.monitor.forget(container_id)
        if server is not None:
            server.stop()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)

    # -- orphan reaping -------------------------------------------------------

    def _reap_loop(self) -> None:
        while not self._reaper_stop.wait(self.reap_interval):
            try:
                self.reap_orphans()
            except Exception as exc:
                # The reaper thread must survive a failed sweep; individual
                # failures are logged and retried on the next interval.
                self.log.error("reap_sweep_failed", error=str(exc))
                continue

    def reap_orphans(self) -> list[str]:
        """Synthesize *close* for every heartbeat-stale container.

        Funnels through :meth:`_handle_control`'s ``container_exit`` branch
        — exactly the path the nvidia-docker-plugin's unmount hook takes —
        so reservations are reclaimed and redistributed as if the container
        had exited cleanly.  Returns the ids reaped in this sweep.
        """
        if self.monitor is None:
            return []
        swept: list[str] = []
        for container_id in self.monitor.stale():
            message = protocol.make_request(
                protocol.MSG_CONTAINER_EXIT, seq=0, container_id=container_id
            )
            self._handle_control(message, None)
            swept.append(container_id)
            _REAPED.inc()
            _REC.record(_EV_REAP, s=container_id)
            self.log.warning("container_reaped", container_id=container_id)
        self.reaped.extend(swept)
        return swept

    # -- observability --------------------------------------------------------

    def dump_flight(self, reason: str) -> str:
        """Dump the flight recorder; returns the path written.

        Writes to :attr:`flight_dump` when configured, else
        ``<base_dir>/flight.jsonl``.  The CLI's SIGUSR2 handler and crash
        hook, and the watchdog's stall path, all funnel through here so
        every post-mortem input lands at one predictable location.
        """
        path = self.flight_dump or os.path.join(self.base_dir, "flight.jsonl")
        RECORDER.dump(path, reason=reason)
        self.log.warning("flight_dumped", path=path, reason=reason)
        return path

    def _watchdog_loop(self) -> None:
        """Dump the flight recorder once if the shared I/O loop stalls.

        A wedged selector thread (handler deadlock, runaway callback) stops
        advancing ``IoLoop.last_tick``; when the gap exceeds
        ``watchdog_interval`` the recorder still holds the events leading up
        to the wedge — exactly what ``repro doctor`` needs.  One-shot: a
        stalled loop would otherwise be re-dumped every interval.
        """
        poll = max(0.2, self.watchdog_interval / 4.0)
        while not self._watchdog_stop.wait(poll):
            loop = self._io_loop
            if loop is None or self._stall_dumped:
                continue
            last = loop.last_tick
            if last == 0.0:
                continue
            stalled = time.time() - last
            if stalled > self.watchdog_interval:
                self._stall_dumped = True
                _REC.record(_EV_STALL, x=stalled)
                try:
                    self.dump_flight("watchdog-stall")
                except OSError as exc:
                    self.log.error("flight_dump_failed", error=str(exc))

    def _collect_gauges(self) -> None:
        """Refresh point-in-time gauges from scheduler state (at scrape)."""
        depth = 0
        for record in self.scheduler.containers():
            _RESERVED.labels(container=record.container_id).set(record.assigned)
            _USED.labels(container=record.container_id).set(
                record.used + record.inflight
            )
            depth += len(record.pending)
        _PAUSE_DEPTH.set(depth)
        _UNRESERVED.set(self.scheduler.unreserved)

    def top_snapshot(self) -> list[dict[str, Any]]:
        """Per-container rows for ``/top.json`` (what ``repro top`` renders)."""
        rows: list[dict[str, Any]] = []
        for record in self.scheduler.containers():
            rows.append(
                {
                    "container": record.container_id,
                    "limit": record.limit,
                    "reserved": record.assigned,
                    "used": record.used,
                    "inflight": record.inflight,
                    "pending": len(record.pending),
                    "pauses": record.pause_count,
                    "suspended_s": record.suspended_total,
                }
            )
        return rows

    # -- conveniences ---------------------------------------------------------

    def container_socket_path(self, container_id: str) -> str:
        """Path of the per-container socket (as mounted into the container)."""
        directory = self._container_dirs.get(container_id)
        if directory is None:
            raise SchedulerError(f"container {container_id!r} not registered")
        return os.path.join(directory, CONTAINER_SOCKET_NAME)
