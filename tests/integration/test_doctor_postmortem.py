"""Post-mortem correlation on a real SIGKILL'd daemon.

The flight-recorder acceptance path end to end: a separate
``python -m repro daemon`` process runs with ``--flight-dump``, serves a
churn workload that leaves one container wedged in a paused allocation,
dumps its rings on SIGUSR2, and is then SIGKILL'd mid-pause.  ``repro
doctor`` over the dump + journal must reconstruct a correctly-ordered
timeline and finger the wedged container — from the artifacts alone,
with the daemon process gone.
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

CLIENT_TIMEOUT = 20.0


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


@pytest.mark.integration
@pytest.mark.slow
def test_doctor_correlates_sigusr2_dump_after_sigkill(tmp_path):
    journal_path = tmp_path / "daemon.journal"
    flight_path = tmp_path / "flight.jsonl"
    ready = tmp_path / "ready.json"
    argv = [
        sys.executable, "-m", "repro", "daemon",
        "--journal-path", str(journal_path),
        "--base-dir", str(tmp_path / "sockets"),
        "--total-memory", "4096",
        "--flight-dump", str(flight_path),
        "--ready-file", str(ready),
    ]
    proc = subprocess.Popen(
        argv, env=_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    blocked = []
    try:
        try:
            _wait_for(ready.exists, message="daemon ready file")
        except AssertionError:
            proc.kill()
            out, err = proc.communicate(timeout=5)
            raise AssertionError(
                f"daemon never became ready.\nstdout: {out!r}\nstderr: {err!r}"
            ) from None
        endpoints = json.loads(ready.read_text())
        assert endpoints["flight_dump"] == str(flight_path)

        control = UnixSocketClient(endpoints["control"], timeout=CLIENT_TIMEOUT)
        reply_a = control.call(
            protocol.MSG_REGISTER_CONTAINER,
            container_id="container-a", limit=2000 * MiB,
        )
        reply_b = control.call(
            protocol.MSG_REGISTER_CONTAINER,
            container_id="container-b", limit=3000 * MiB,
        )
        assert reply_a["status"] == "ok" and reply_b["status"] == "ok"

        # Churn: A allocates, commits, and polls — the flight rings fill
        # with io.* readiness/dispatch events while the journal grows.
        client_a = UnixSocketClient(
            os.path.join(reply_a["socket_dir"], "convgpu.sock"),
            timeout=CLIENT_TIMEOUT,
        )
        grant = client_a.call(
            protocol.MSG_ALLOC_REQUEST, container_id="container-a",
            pid=11, size=1800 * MiB, api="cudaMalloc",
        )
        assert grant["decision"] == "grant"
        client_a.notify(
            protocol.MSG_ALLOC_COMMIT, container_id="container-a",
            pid=11, address=0x1000, size=1800 * MiB,
        )
        for _ in range(20):
            client_a.call(
                protocol.MSG_MEM_GET_INFO, container_id="container-a", pid=11
            )

        # Wedge: B's request exceeds its reservation -> reply withheld.
        client_b = UnixSocketClient(
            os.path.join(reply_b["socket_dir"], "convgpu.sock"),
            timeout=CLIENT_TIMEOUT,
        )

        def wedged_request():
            try:
                blocked.append(
                    client_b.call(
                        protocol.MSG_ALLOC_REQUEST, container_id="container-b",
                        pid=22, size=2500 * MiB, api="cudaMalloc",
                    )
                )
            except TransportError as exc:
                blocked.append(exc)

        pause_thread = threading.Thread(target=wedged_request)
        pause_thread.start()
        _wait_for(
            lambda: b"AllocationPaused" in journal_path.read_bytes(),
            message="AllocationPaused in the journal",
        )
        assert pause_thread.is_alive()

        # SIGUSR2: the live daemon dumps its flight rings to disk.
        proc.send_signal(signal.SIGUSR2)
        _wait_for(flight_path.exists, message="flight dump file")
        _wait_for(
            lambda: b"flight_meta" in flight_path.read_bytes(),
            message="flight dump meta line",
        )

        # The crash: no atexit, no flush — artifacts on disk are all
        # the post-mortem gets.
        proc.kill()
        proc.wait(timeout=10)
        pause_thread.join(timeout=15)
        client_a.close()
        client_b.close()
        control.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        if proc.stdout:
            proc.stdout.close()
        if proc.stderr:
            proc.stderr.close()

    # ---- the post-mortem, from artifacts alone -------------------------
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "doctor", str(flight_path),
            "--journal", str(journal_path), "--json",
        ],
        env=_env(), cwd=str(REPO_ROOT),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1, result.stderr  # wedged -> exit 1
    report = json.loads(result.stdout)

    assert report["meta"]["reason"] == "sigusr2"
    assert report["flight_events"] > 0
    assert report["journal_events"] > 0

    # Timeline is strictly ts-ordered and merges both sources, with the
    # daemon's own lifecycle first and the pause in the tail.
    stamps = [entry["ts"] for entry in report["timeline"]]
    assert stamps == sorted(stamps)
    sources = {entry["source"] for entry in report["timeline"]}
    assert sources == {"flight", "journal"}
    names = [entry["event"] for entry in report["timeline"]]
    assert "daemon.start" in names
    assert "AllocationPaused" in names
    assert names.index("daemon.start") < names.index("AllocationPaused")
    registered = [
        n for n in names if n in ("daemon.register", "AllocationPaused")
    ]
    assert registered[-1] == "AllocationPaused"  # pause after registration

    # The wedged container is fingered, with the exact stuck request.
    assert len(report["wedged"]) == 1
    entry = report["wedged"][0]
    assert entry["container"] == "container-b"
    assert entry["pending"] == 1
    assert entry["requests"][0]["pid"] == 22
    # Pending size carries the per-process context overhead on top of
    # the 2500 MiB the client asked for.
    assert entry["requests"][0]["size"] >= 2500 * MiB

    # Human rendering carries the CI-greppable verdict line.
    rendered = subprocess.run(
        [
            sys.executable, "-m", "repro", "doctor", str(flight_path),
            "--journal", str(journal_path),
        ],
        env=_env(), cwd=str(REPO_ROOT),
        capture_output=True, text=True, timeout=60,
    )
    assert rendered.returncode == 1
    assert "wedged containers: 1" in rendered.stdout
    assert "container-b: 1 pending" in rendered.stdout
