"""The live test rig: a daemon, and container programs that call into it
through the real client stack.

Client side of one container, outside in::

    ProcessApi (symbols resolved by the preload linker)
      -> WrapperModule (libgpushare.so)  -> CudaRuntime (simulated device)
      -> LiveProgramRunner.drive -> ResilientClient -> UnixSocketClient

The daemon is a child process (:mod:`_daemon_child`) or, for traced runs,
the same daemon built in-process.  Registration and exit travel over the
daemon's real control socket in both cases.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any

from _common import PERF_DIR, REPO_ROOT, WORK_ROOT
from _daemon_child import build_daemon

from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.journal import restore
from repro.experiments.live import LiveProgramRunner
from repro.gpu.properties import make_properties
from repro.ipc.unix_socket import UnixSocketClient
from repro.nvdocker.cli import CONTAINER_WRAPPER_DIR
from repro.workloads.api import ProcessApi

#: A reply that takes longer than this is a failed operation, not a wait.
CALL_TIMEOUT = 30.0
IMAGE = "bench"


class RemoteSystem(ConVGPU):
    """The container stack of :class:`ConVGPU`, registered with a daemon
    that lives elsewhere: ``control_call`` goes to that daemon's control
    socket instead of the in-process channel."""

    def __init__(self, control_path: str, device_memory: int) -> None:
        self._remote = UnixSocketClient(control_path, timeout=CALL_TIMEOUT)
        super().__init__(
            "FIFO",
            properties=make_properties(device_memory),
            clock=time.monotonic,
        )
        self.engine.images.add(make_cuda_image(IMAGE))

    def control_call(self, msg_type: str, **payload: Any) -> dict[str, Any]:
        return self._remote.call(msg_type, **payload)

    def close(self) -> None:
        self._remote.close()
        super().close()


class Program:
    """One running container: its process API and the runner driving it."""

    def __init__(self, system: RemoteSystem, name: str, limit: int) -> None:
        self.system = system
        self.container = system.nvdocker.run(IMAGE, name=name, nvidia_memory=limit)
        socket_dir = next(
            mount.source
            for mount in self.container.config.mounts
            if mount.target == CONTAINER_WRAPPER_DIR
        )
        socket_path = os.path.join(socket_dir, "convgpu.sock")
        self.api = ProcessApi(self.container.main_process)
        self.runner = LiveProgramRunner(
            system.device,
            client_factory=lambda: UnixSocketClient(socket_path, timeout=CALL_TIMEOUT),
        )
        self.drive = self.runner.drive
        _err, self._fatbin = self.drive(self.api.resolve("__cudaRegisterFatBinary")())

    def exit(self) -> None:
        """CRT shutdown, process exit, container exit and removal."""
        self.drive(self.api.resolve("__cudaUnregisterFatBinary")(self._fatbin))
        self.runner.close()
        engine = self.system.engine
        engine.notify_main_exit(self.container.container_id, 0)
        engine.remove(self.container.container_id)


class Rig:
    """Work directory + daemon of one run; always torn down by ``close``."""

    def __init__(self, total_memory: int, *, in_process: bool, policy: str = "FIFO") -> None:
        self.total_memory = total_memory
        self.in_process = in_process
        self.policy = policy
        # Relative paths keep AF_UNIX socket names under the 108-byte limit
        # however deep the checkout sits; run.py chdirs to the repo root.
        self.work = os.path.relpath(
            os.path.join(WORK_ROOT, f"r{os.getpid()}-{time.monotonic_ns()}"), REPO_ROOT
        )
        self.base_dir = os.path.join(self.work, "s")
        self.journal_path = os.path.join(self.work, "journal.wal")
        self.child: subprocess.Popen | None = None
        self.daemon = None
        self.pid = os.getpid()
        self.start_ms = 0.0
        self.stop_ms = 0.0
        self.control_path = ""

    def start(self) -> "Rig":
        os.makedirs(self.base_dir)
        if self.in_process:
            began = time.perf_counter()
            self.daemon = build_daemon(
                self.base_dir, self.journal_path, self.total_memory, self.policy
            )
            self.start_ms = (time.perf_counter() - began) * 1000.0
            self.control_path = self.daemon.control_path
            return self
        ready_file = os.path.join(self.work, "ready.json")
        log = open(os.path.join(self.work, "daemon.log"), "wb")
        try:
            self.child = subprocess.Popen(
                [
                    sys.executable,
                    os.path.join(PERF_DIR, "_daemon_child.py"),
                    "--base-dir", self.base_dir,
                    "--journal", self.journal_path,
                    "--total-memory", str(self.total_memory),
                    "--policy", self.policy,
                    "--ready-file", ready_file,
                ],
                cwd=REPO_ROOT,
                stdout=log,
                stderr=log,
            )
        finally:
            log.close()
        deadline = time.monotonic() + 30.0
        while not os.path.exists(ready_file):
            if self.child.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"daemon child failed to start (see {self.work}/daemon.log)")
            time.sleep(0.002)
        with open(ready_file, encoding="utf-8") as fh:
            ready = json.load(fh)
        self.pid = ready["pid"]
        self.start_ms = ready["start_ms"]
        self.control_path = ready["control"]
        return self

    # -- /proc probes of the daemon process ---------------------------------

    def proc_status(self, key: str) -> int:
        """An integer field of ``/proc/<daemon pid>/status`` (kB or count)."""
        with open(f"/proc/{self.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        return 0

    def cpu_seconds(self) -> float:
        """User + system CPU seconds the daemon process has used so far."""
        with open(f"/proc/{self.pid}/stat", encoding="utf-8") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    # -- teardown -------------------------------------------------------------

    def stop_daemon(self) -> None:
        """Orderly stop (closes the journal); records how long it took."""
        began = time.perf_counter()
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        elif self.child is not None and self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
            try:
                self.child.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.stop_ms = (time.perf_counter() - began) * 1000.0

    def restored(self):
        """The scheduler rebuilt from the stopped daemon's journal."""
        return restore(self.journal_path)

    def close(self) -> None:
        try:
            self.stop_daemon()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
