"""End-to-end crash recovery: SIGKILL a real daemon process, restart it
from the journal, and verify reconnecting clients see exact state.

This is the full stack under fault injection — separate OS process running
``python -m repro daemon``, real AF_UNIX sockets, a real SIGKILL mid-pause, and recovery through ``--recover``:

1. daemon up; containers A (2000 MiB), B (3000 MiB), C (500 MiB) register;
2. A commits 1800 MiB (+66 MiB context overhead -> 1866 used);
3. B requests 2500 MiB — over its 2096 MiB reservation, under its limit:
   the reply is withheld (B's client thread blocks in recv);
4. SIGKILL the daemon.  B's blocked call surfaces a typed disconnect;
5. restart with ``--recover``: same journal, same base dir;
6. every container re-registers (``reattached`` ack), B re-issues the
   identical request and is *adopted* by its orphaned pending entry;
7. A exits -> redistribution tops B up -> B's withheld grant arrives;
8. per-container ``mem_get_info`` totals prove nothing was double-counted:
   A 134/2000 free before exit, B 434/3000 free after its commit.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import TransportError
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.units import MiB

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = str(REPO_ROOT / "src")

CLIENT_TIMEOUT = 20.0      # pessimistic; everything resolves in well under that


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _wait_for(predicate, *, timeout=15.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class DaemonProcess:
    """One `python -m repro daemon` subprocess + its advertised endpoints."""

    def __init__(self, tmp_path: Path, *, recover: bool, tag: str):
        ready = tmp_path / f"ready-{tag}.json"
        argv = [
            sys.executable, "-m", "repro", "daemon",
            "--journal-path", str(tmp_path / "daemon.journal"),
            "--base-dir", str(tmp_path / "sockets"),
            "--total-memory", "4096",
            "--ready-file", str(ready),
        ]
        if recover:
            argv.append("--recover")
        self.proc = subprocess.Popen(
            argv, env=_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            _wait_for(ready.exists, message=f"ready file of daemon[{tag}]")
            self.endpoints = json.loads(ready.read_text())
        except AssertionError:
            self.proc.kill()
            out, err = self.proc.communicate(timeout=5)
            raise AssertionError(
                f"daemon[{tag}] never became ready.\n"
                f"stdout: {out!r}\nstderr: {err!r}"
            ) from None

    # -- clients ----------------------------------------------------------

    def control_client(self):
        return UnixSocketClient(self.endpoints["control"], timeout=CLIENT_TIMEOUT)

    def container_client(self, register_reply):
        path = os.path.join(register_reply["socket_dir"], "convgpu.sock")
        return UnixSocketClient(path, timeout=CLIENT_TIMEOUT)

    def register(self, control, container_id, limit_mib):
        reply = control.call(
            protocol.MSG_REGISTER_CONTAINER,
            container_id=container_id, limit=limit_mib * MiB,
        )
        assert reply["status"] == "ok", reply
        return reply

    # -- lifecycle ---------------------------------------------------------

    def sigkill(self):
        self.proc.kill()  # SIGKILL: no atexit, no flush, no cleanup
        self.proc.wait(timeout=10)

    def shutdown_clean(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5)
        if self.proc.stdout:
            self.proc.stdout.close()
        if self.proc.stderr:
            self.proc.stderr.close()


@pytest.mark.integration
@pytest.mark.slow
# One value: the daemon serves AF_UNIX only; the param keeps the ``[unix]`` id.
@pytest.mark.parametrize("transport", ("unix",))
def test_sigkill_recover_reconnect(tmp_path, transport):
    journal_path = tmp_path / "daemon.journal"
    daemon = DaemonProcess(tmp_path, recover=False, tag="first")
    blocked_errors = []
    try:
        control = daemon.control_client()
        reply_a = daemon.register(control, "container-a", 2000)
        reply_b = daemon.register(control, "container-b", 3000)
        daemon.register(control, "container-c", 500)

        # A allocates 1800 MiB and commits it.
        client_a = daemon.container_client(reply_a)
        grant = client_a.call(
            protocol.MSG_ALLOC_REQUEST, container_id="container-a",
            pid=11, size=1800 * MiB, api="cudaMalloc",
        )
        assert grant["decision"] == "grant"
        client_a.notify(
            protocol.MSG_ALLOC_COMMIT, container_id="container-a",
            pid=11, address=0x1000, size=1800 * MiB,
        )
        free_a, total_a = _mem_info(client_a, "container-a", 11)
        assert (free_a, total_a) == (134 * MiB, 2000 * MiB)  # 2000-1800-66

        # B's request exceeds its reservation: the reply is withheld.
        client_b = daemon.container_client(reply_b)

        def blocked_request(client):
            try:
                blocked_errors.append(
                    client.call(
                        protocol.MSG_ALLOC_REQUEST, container_id="container-b",
                        pid=22, size=2500 * MiB, api="cudaMalloc",
                    )
                )
            except TransportError as exc:
                blocked_errors.append(exc)

        pause_thread = threading.Thread(target=blocked_request, args=(client_b,))
        pause_thread.start()
        # The pause is durable once its event reaches the journal file.
        _wait_for(
            lambda: b"AllocationPaused" in journal_path.read_bytes(),
            message="AllocationPaused in the journal",
        )
        assert pause_thread.is_alive()  # still blocked, as designed

        # ---- the crash -------------------------------------------------
        daemon.sigkill()
        pause_thread.join(timeout=15)
        assert not pause_thread.is_alive()
        # The dying daemon surfaced as a *typed* transport error, not a hang.
        assert len(blocked_errors) == 1
        assert isinstance(blocked_errors[0], TransportError)
        client_a.close()
        client_b.close()
        control.close()
    finally:
        daemon.shutdown_clean()

    # ---- recovery ------------------------------------------------------
    blocked_errors.clear()
    recovered = DaemonProcess(tmp_path, recover=True, tag="second")
    try:
        control = recovered.control_client()
        # Reconnect-and-reregister: same limits are acked as a reattach.
        reply_a = recovered.register(control, "container-a", 2000)
        reply_b = recovered.register(control, "container-b", 3000)
        reply_c = recovered.register(control, "container-c", 500)
        assert reply_a.get("reattached") is True
        assert reply_b.get("reattached") is True
        assert reply_c.get("reattached") is True

        # A's pre-crash allocation survived, exactly.
        client_a = recovered.container_client(reply_a)
        assert _mem_info(client_a, "container-a", 11) == (134 * MiB, 2000 * MiB)

        # C never allocated; its view is pristine.
        client_c = recovered.container_client(reply_c)
        assert _mem_info(client_c, "container-c", 33) == (500 * MiB, 500 * MiB)

        # B re-issues the identical request -> adopted by the orphaned
        # pending entry (not double-queued) and blocks again.
        client_b = recovered.container_client(reply_b)

        def reissued_request(client):
            blocked_errors.append(
                client.call(
                    protocol.MSG_ALLOC_REQUEST, container_id="container-b",
                    pid=22, size=2500 * MiB, api="cudaMalloc",
                )
            )

        resume_thread = threading.Thread(target=reissued_request, args=(client_b,))
        resume_thread.start()
        resume_thread.join(timeout=1.0)
        assert resume_thread.is_alive()  # adopted and waiting, not granted

        # A exits; redistribution tops B up; the withheld grant arrives.
        exit_reply = control.call(
            protocol.MSG_CONTAINER_EXIT, container_id="container-a"
        )
        assert exit_reply["status"] == "ok"
        resume_thread.join(timeout=15)
        assert not resume_thread.is_alive()
        assert blocked_errors and blocked_errors[0]["decision"] == "grant"

        # B commits; totals prove single-accounting across the crash:
        # 3000 - 2500 - 66 = 434 MiB free.  (Had the re-issued request been
        # double-queued, the second copy could never fit and B would hang.)
        client_b2 = recovered.container_client(reply_b)
        client_b2.notify(
            protocol.MSG_ALLOC_COMMIT, container_id="container-b",
            pid=22, address=0x2000, size=2500 * MiB,
        )
        assert _mem_info(client_b2, "container-b", 22) == (434 * MiB, 3000 * MiB)

        client_a.close()
        client_b.close()
        client_b2.close()
        client_c.close()
        control.close()
    finally:
        recovered.shutdown_clean()
    assert recovered.proc.returncode == 0  # clean SIGTERM shutdown path


@pytest.mark.integration
@pytest.mark.slow
def test_recover_cli_inspects_journal_after_kill(tmp_path):
    """`repro recover <journal>` replays a killed daemon's journal offline."""
    daemon = DaemonProcess(tmp_path, recover=False, tag="first")
    try:
        control = daemon.control_client()
        reply = daemon.register(control, "inspected", 1024)
        client = daemon.container_client(reply)
        grant = client.call(
            protocol.MSG_ALLOC_REQUEST, container_id="inspected",
            pid=1, size=256 * MiB, api="cudaMalloc",
        )
        assert grant["decision"] == "grant"
        client.notify(
            protocol.MSG_ALLOC_COMMIT, container_id="inspected",
            pid=1, address=0x1, size=256 * MiB,
        )
        _mem_info(client, "inspected", 1)  # flush the notification
        client.close()
        control.close()
        daemon.sigkill()
    finally:
        daemon.shutdown_clean()

    result = subprocess.run(
        [sys.executable, "-m", "repro", "recover", str(tmp_path / "daemon.journal")],
        env=_env(), cwd=str(REPO_ROOT),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "ContainerRegistered" in result.stdout
    assert "AllocationCommitted" in result.stdout
    assert "inspected" in result.stdout
    assert "invariants: OK" in result.stdout


@pytest.mark.integration
def test_ready_file_names_unix_endpoints_only(tmp_path):
    """The daemon's ready file advertises AF_UNIX paths only."""
    ready = tmp_path / "ready.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "daemon",
            "--base-dir", str(tmp_path / "sockets"),
            "--no-metrics",
            "--ready-file", str(ready),
        ],
        env=_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _wait_for(ready.exists, message="ready file")
        endpoints = json.loads(ready.read_text())
        assert os.path.exists(endpoints["control"])
    finally:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert not {"transport", "host", "port"} & set(endpoints), endpoints


def _mem_info(client, container_id, pid):
    reply = client.call(
        protocol.MSG_MEM_GET_INFO, container_id=container_id, pid=pid
    )
    assert reply["status"] == "ok", reply
    return reply["free"], reply["total"]
