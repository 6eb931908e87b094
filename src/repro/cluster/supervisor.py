"""Shard supervisor: spawns and babysits one daemon process per shard.

The sharded control plane (DESIGN.md §15) runs N real ``repro daemon``
processes — each a complete single-shard deployment with its own
:class:`~repro.core.scheduler.core.GpuMemoryScheduler`, journal and
``IoLoop`` — behind the :class:`~repro.cluster.router.ShardRouter`.  This
module owns the process lifecycle:

- **spawn**: ``python -m repro daemon --shard-of i/N --journal-path
  <dir>/shard-i.journal --ready-file ...`` per shard; readiness is the
  daemon's own write-then-rename ready file, so a parsed file is always a
  complete endpoint record;
- **monitor**: a sweep thread polls every child; an unexpected exit is
  restarted from that shard's journal (``--recover``), which restores the
  scheduler state and recreates every open container's socket;
- **notify**: an ``on_restart(shard_id, endpoints)`` callback hands the
  router the restarted shard's ready-file endpoints; the shard's own
  per-container sockets are back at their old paths by then.

Lock discipline (reprolint-enforced): ``_shards_lock`` only claims and
publishes table state — spawning, killing and ready-file waiting all
happen outside it, serialized per shard by the ``restarting`` flag.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ClusterError
from repro.obs.log import get_logger
from repro.obs.recorder import RECORDER

__all__ = ["ShardSpec", "ShardProcess", "ShardSupervisor"]

_REC = RECORDER
_EV_SPAWN = RECORDER.declare("shard.spawn", s="shard", a="pid")
_EV_DEAD = RECORDER.declare("shard.dead", s="shard", a="exit_code")
_EV_RESTART = RECORDER.declare("shard.restart", s="shard", a="pid")


@dataclass
class ShardSpec:
    """Everything needed to (re)spawn one shard daemon process."""

    shard_id: int
    shard_count: int
    base_dir: str
    journal_path: str | None
    codec: str = "auto"
    io_workers: int = 2
    total_memory_mib: int = 4096
    policy: str = "FIFO"
    metrics: bool = True
    python: str = sys.executable
    extra_args: tuple[str, ...] = ()

    @property
    def ready_file(self) -> str:
        return os.path.join(self.base_dir, "ready.json")

    def command(self, *, recover: bool) -> list[str]:
        argv = [
            self.python, "-m", "repro", "daemon",
            "--shard-of", f"{self.shard_id}/{self.shard_count}",
            "--base-dir", self.base_dir,
            "--codec", self.codec,
            "--io-workers", str(self.io_workers),
            "--total-memory", str(self.total_memory_mib),
            "--policy", self.policy,
            "--ready-file", self.ready_file,
        ]
        if self.journal_path is not None:
            argv += ["--journal-path", self.journal_path]
            if recover:
                argv.append("--recover")
        if not self.metrics:
            argv.append("--no-metrics")
        argv.extend(self.extra_args)
        return argv


class ShardProcess:
    """One shard daemon subprocess plus its published endpoints."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.process: subprocess.Popen | None = None
        #: Parsed ready-file contents of the *current* incarnation.
        self.endpoints: dict[str, Any] = {}
        self.spawn_count = 0

    # -- lifecycle -----------------------------------------------------------

    def spawn(self, *, recover: bool) -> None:
        if self.process is not None and self.process.poll() is None:
            raise ClusterError(
                f"shard {self.spec.shard_id} is already running"
            )
        os.makedirs(self.spec.base_dir, exist_ok=True)
        # A stale ready file from the previous incarnation would make
        # wait_ready() return old endpoints; readiness must be this spawn's.
        if os.path.exists(self.spec.ready_file):
            os.unlink(self.spec.ready_file)
        self.process = subprocess.Popen(
            self.spec.command(recover=recover),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.spawn_count += 1
        _REC.record(_EV_SPAWN, s=str(self.spec.shard_id), a=self.process.pid)

    def wait_ready(self, timeout: float = 30.0) -> dict[str, Any]:
        """Block until this spawn's ready file appears; returns endpoints."""
        assert self.process is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(self.spec.ready_file):
                with open(self.spec.ready_file, encoding="utf-8") as fh:
                    self.endpoints = json.loads(fh.read())
                return self.endpoints
            if self.process.poll() is not None:
                raise ClusterError(
                    f"shard {self.spec.shard_id} exited with "
                    f"{self.process.returncode} before becoming ready"
                )
            time.sleep(0.01)
        raise ClusterError(
            f"shard {self.spec.shard_id} not ready after {timeout}s"
        )

    # -- liveness ------------------------------------------------------------

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def poll(self) -> int | None:
        """Exit code if the shard died, ``None`` while it runs."""
        return self.process.poll() if self.process is not None else -1

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    # -- teardown ------------------------------------------------------------

    def sigkill(self) -> None:
        """SIGKILL the shard — the fault-injection crash, nothing graceful."""
        if self.process is not None and self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGKILL)
            self.process.wait(timeout=10.0)

    def terminate(self, timeout: float = 10.0) -> None:
        """SIGTERM and wait; escalate to SIGKILL if the shard hangs."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            self.process.kill()
            self.process.wait(timeout=timeout)


@dataclass
class _ShardSlot:
    process: ShardProcess
    #: Claimed by whoever is currently respawning this shard (monitor sweep
    #: or an explicit restart_shard call); guarded by ``_shards_lock``.
    restarting: bool = False
    restarts: int = 0
    #: Exit codes observed for unexpected deaths (diagnostic surface).
    deaths: list[int] = field(default_factory=list)


class ShardSupervisor:
    """Spawn, monitor, and restart the shard daemon fleet.

    Args:
        shard_count: number of shard processes (one scheduler each).
        base_dir: directory owning per-shard state: ``shard-<i>/`` (socket
            dirs + ready file) and ``shard-<i>.journal``.
        codec / io_workers / total_memory_mib / policy: passed
            through to each ``repro daemon`` process; ``total_memory_mib``
            is **per shard** (each shard owns one device's pool).
        journal: write-ahead journals on (default).  Off produces
            journal-less shards (benchmarking only — a dead shard then has
            nothing to recover from).
        metrics: serve each shard's observability endpoint (the router's
            aggregation scrapes these).
        auto_restart: restart a shard that dies unexpectedly (from its
            journal).  The monitor thread only runs when this is on.
        monitor_interval: seconds between liveness sweeps.
        on_restart: ``callback(shard_id, endpoints)`` after a shard came
            back ready — the router hooks this to adopt its new endpoints.
        spawn_timeout: seconds to wait for a shard's ready file.
    """

    def __init__(
        self,
        shard_count: int,
        *,
        base_dir: str,
        codec: str = "auto",
        io_workers: int = 2,
        total_memory_mib: int = 4096,
        policy: str = "FIFO",
        journal: bool = True,
        metrics: bool = True,
        auto_restart: bool = True,
        monitor_interval: float = 0.25,
        on_restart: Callable[[int, dict[str, Any]], None] | None = None,
        spawn_timeout: float = 30.0,
        python: str = sys.executable,
        extra_args: tuple[str, ...] = (),
    ) -> None:
        if shard_count < 1:
            raise ClusterError("need at least one shard")
        self.shard_count = shard_count
        self.base_dir = base_dir
        self.auto_restart = auto_restart
        self.monitor_interval = monitor_interval
        self.on_restart = on_restart
        self.spawn_timeout = spawn_timeout
        self.log = get_logger("supervisor")
        self._slots: list[_ShardSlot] = []
        self._shards_lock = threading.Lock()
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        for shard_id in range(shard_count):
            spec = ShardSpec(
                shard_id=shard_id,
                shard_count=shard_count,
                base_dir=os.path.join(base_dir, f"shard-{shard_id}"),
                journal_path=(
                    os.path.join(base_dir, f"shard-{shard_id}.journal")
                    if journal
                    else None
                ),
                codec=codec,
                io_workers=io_workers,
                total_memory_mib=total_memory_mib,
                policy=policy,
                metrics=metrics,
                python=python,
                extra_args=extra_args,
            )
            self._slots.append(_ShardSlot(process=ShardProcess(spec)))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        """Spawn every shard, wait until all are ready, start the monitor.

        A shard whose journal already exists recovers from it — so a
        supervisor restart over a previous deployment's state resumes
        rather than double-registering containers.
        """
        os.makedirs(self.base_dir, exist_ok=True)
        for slot in self._slots:
            journal = slot.process.spec.journal_path
            recover = journal is not None and os.path.exists(journal)
            slot.process.spawn(recover=recover)
        for slot in self._slots:
            slot.process.wait_ready(self.spawn_timeout)
        if self.auto_restart:
            self._monitor_stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="convgpu-shard-monitor", daemon=True
            )
            self._monitor.start()
        self.log.info(
            "shards_started",
            shards=self.shard_count,
            pids=[slot.process.pid for slot in self._slots],
        )
        return self

    def stop(self) -> None:
        if self._monitor is not None:
            self._monitor_stop.set()
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for slot in self._slots:
            slot.process.terminate()
        self.log.info("shards_stopped", shards=self.shard_count)

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- introspection -------------------------------------------------------

    def endpoints(self, shard_id: int) -> dict[str, Any]:
        """The shard's current ready-file endpoints (refreshed on restart)."""
        return dict(self._slots[shard_id].process.endpoints)

    def shard(self, shard_id: int) -> ShardProcess:
        return self._slots[shard_id].process

    def restarts(self, shard_id: int) -> int:
        with self._shards_lock:
            return self._slots[shard_id].restarts

    def all_alive(self) -> bool:
        return all(slot.process.alive() for slot in self._slots)

    # -- failure handling ----------------------------------------------------

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard (fault injection).  The monitor — when
        ``auto_restart`` — notices on its next sweep and recovers it."""
        self._slots[shard_id].process.sigkill()

    # reprolint: ignore[double-lock] -- claim/publish: the restarting flag
    # serializes respawns per shard while spawn + ready-wait block between
    # the regions (lock-discipline forbids them under the lock).
    def restart_shard(self, shard_id: int) -> bool:
        """Restart a dead shard from its journal; returns False if the
        shard is still running or another restart already claimed it."""
        slot = self._slots[shard_id]
        with self._shards_lock:
            if slot.restarting:
                return False
            slot.restarting = True
        try:
            if slot.process.alive():
                return False
            exit_code = slot.process.poll()
            with self._shards_lock:
                slot.deaths.append(exit_code if exit_code is not None else -1)
            _REC.record(
                _EV_DEAD, s=str(shard_id),
                a=exit_code if exit_code is not None else -1,
            )
            journal = slot.process.spec.journal_path
            recover = journal is not None and os.path.exists(journal)
            slot.process.spawn(recover=recover)
            endpoints = slot.process.wait_ready(self.spawn_timeout)
            with self._shards_lock:
                slot.restarts += 1
            _REC.record(
                _EV_RESTART, s=str(shard_id), a=slot.process.pid or -1
            )
            self.log.warning(
                "shard_restarted",
                shard=shard_id,
                exit_code=exit_code,
                recovered=recover,
                pid=slot.process.pid,
            )
        finally:
            with self._shards_lock:
                slot.restarting = False
        callback = self.on_restart
        if callback is not None:
            callback(shard_id, endpoints)
        return True

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.monitor_interval):
            for shard_id, slot in enumerate(self._slots):
                if self._monitor_stop.is_set():
                    return
                if slot.process.alive():
                    continue
                try:
                    self.restart_shard(shard_id)
                except Exception as exc:
                    # The monitor must survive a failed respawn; the shard
                    # stays dead and is retried on the next sweep.
                    self.log.error(
                        "shard_restart_failed", shard=shard_id, error=str(exc)
                    )
