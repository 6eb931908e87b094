#!/usr/bin/env python3
"""Flight-recorder post-mortem on a healthy daemon, end to end.

The clean-path counterpart to the crash post-mortem integration test: a
separate ``python -m repro daemon`` process runs with ``--flight-dump``,
serves a short allocation churn that wedges nothing, dumps its rings on
SIGUSR2, and shuts down gracefully.  ``repro doctor`` over the dump +
journal must parse both artifacts, reconstruct the timeline, and report
``wedged containers: 0`` with exit code 0.

CI runs this as the doctor smoke lane; it is also a minimal worked
example of the dump/doctor workflow from the README.

Run:  python examples/doctor_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.ipc import protocol  # noqa: E402
from repro.ipc.unix_socket import UnixSocketClient  # noqa: E402
from repro.units import MiB  # noqa: E402

CLIENT_TIMEOUT = 20.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _wait_for(predicate, *, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise SystemExit(f"timed out waiting for {message}")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="doctor-smoke-"))
    journal_path = tmp / "daemon.journal"
    flight_path = tmp / "flight.jsonl"
    ready = tmp / "ready.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "daemon",
            "--journal-path", str(journal_path),
            "--base-dir", str(tmp / "sockets"),
            "--total-memory", "4096",
            "--flight-dump", str(flight_path),
            "--ready-file", str(ready),
        ],
        env=_env(), cwd=str(REPO_ROOT),
    )
    try:
        _wait_for(ready.exists, message="daemon ready file")
        endpoints = json.loads(ready.read_text())

        control = UnixSocketClient(endpoints["control"], timeout=CLIENT_TIMEOUT)
        reply = control.call(
            protocol.MSG_REGISTER_CONTAINER,
            container_id="smoke-a", limit=2000 * MiB,
        )
        assert reply["status"] == "ok", reply

        # Churn that wedges nothing: one grant within the reservation,
        # then a stretch of queries to fill the flight rings with io.*
        # and sched.* events.
        client = UnixSocketClient(
            os.path.join(reply["socket_dir"], "convgpu.sock"),
            timeout=CLIENT_TIMEOUT,
        )
        grant = client.call(
            protocol.MSG_ALLOC_REQUEST, container_id="smoke-a",
            pid=7, size=256 * MiB, api="cudaMalloc",
        )
        assert grant["decision"] == "grant", grant
        client.notify(
            protocol.MSG_ALLOC_COMMIT, container_id="smoke-a",
            pid=7, address=0x1000, size=256 * MiB,
        )
        for _ in range(200):
            client.call(
                protocol.MSG_MEM_GET_INFO, container_id="smoke-a", pid=7
            )

        # SIGUSR2: the live daemon writes its rings; then shut it down
        # gracefully so the journal closes clean.
        proc.send_signal(signal.SIGUSR2)
        _wait_for(flight_path.exists, message="flight dump file")
        _wait_for(
            lambda: b"flight_meta" in flight_path.read_bytes(),
            message="flight dump meta line",
        )
        client.close()
        control.close()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=15)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "doctor", str(flight_path),
            "--journal", str(journal_path),
        ],
        env=_env(), cwd=str(REPO_ROOT),
        capture_output=True, text=True, timeout=60,
    )
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise SystemExit(
            f"doctor exited {result.returncode} on a healthy daemon"
        )
    if "wedged containers: 0" not in result.stdout:
        raise SystemExit("doctor did not report zero wedged containers")
    print("doctor smoke: clean post-mortem, zero wedged containers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
