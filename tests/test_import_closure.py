"""The serving closure (DESIGN.md §11): what a scheduler process imports.

A daemon and ``repro recover`` import only the serving path: the
scheduler core, the journal (with ``repro.fanout``, the fork fan-out its
scan shares with the sweep), the IPC stack and the observability they
serve.  Neither loads the simulator, the simulated GPU/CUDA/container
stack, the figure harness or numpy; numpy comes in only with the Rand
policy's RNG and ``http.server`` only with a metrics port.  Each check runs in a fresh interpreter, since
this test process has loaded everything.

The public names of ``repro`` and ``repro.cluster`` resolve lazily (PEP
562); the second half of this module checks that they all still resolve.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = str(REPO_ROOT / "src")

#: Modules (and their submodules) no serving process may load.
FORBIDDEN = (
    "numpy",
    "http.server",
    "repro.sim",
    "repro.gpu",
    "repro.cuda",
    "repro.container",
    "repro.nvdocker",
    "repro.workloads",
    "repro.experiments",
    "repro.analysis",
    "repro.core.middleware",
    "repro.core.wrapper",
)

_PRINT_MODULES = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _forbidden(modules) -> list[str]:
    return sorted(
        name for name in modules
        if any(name == root or name.startswith(root + ".") for root in FORBIDDEN)
    )


def _script_modules(script: str) -> set[str]:
    """``sys.modules`` at the end of ``script``, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script + _PRINT_MODULES],
        env=_env(), cwd=str(REPO_ROOT), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _importtime_modules(stderr: str) -> set[str]:
    """Every module a ``python -X importtime`` run imported."""
    modules = set()
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[-1].strip()
            if name != "imported package":
                modules.add(name)
    return modules


def _repro_cli(*argv: str) -> list[str]:
    return [sys.executable, "-X", "importtime", "-m", "repro", *argv]


def _write_journal(path: Path) -> None:
    from repro.core.scheduler import GpuMemoryScheduler, SchedulerJournal, make_policy
    from repro.units import MiB

    scheduler = GpuMemoryScheduler(4096 * MiB, make_policy("FIFO"))
    journal = SchedulerJournal(str(path), fsync=False)
    journal.attach(scheduler)
    scheduler.register_container("c1", 1024 * MiB)
    scheduler.request_allocation("c1", 7, 64 * MiB)
    scheduler.commit_allocation("c1", 7, 0x1000, 64 * MiB)
    journal.close()


_LIBRARY_DAEMON = """
import time
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.journal import SchedulerJournal
from repro.core.scheduler.policies import make_policy

work = {work!r}
scheduler = GpuMemoryScheduler(
    4 << 30, make_policy({policy!r}), clock=time.monotonic
)
journal = SchedulerJournal(work + "/j.wal", fsync=True, mode="group")
journal.attach(scheduler)
SchedulerDaemon(scheduler, work + "/sock", journal=journal).start().stop()
journal.close()
"""


class TestServingClosure:
    def test_library_daemon_start_stop(self, tmp_path):
        modules = _script_modules(
            _LIBRARY_DAEMON.format(policy="FIFO", work=str(tmp_path))
        )
        assert "repro.core.scheduler.daemon" in modules
        assert _forbidden(modules) == []

    def test_rand_daemon_loads_numpy(self, tmp_path):
        modules = _script_modules(
            _LIBRARY_DAEMON.format(policy="Rand", work=str(tmp_path))
        )
        assert "numpy" in modules

    def test_repro_daemon_to_ready_file(self, tmp_path):
        ready = tmp_path / "ready.json"
        proc = subprocess.Popen(
            _repro_cli(
                "daemon", "--no-metrics",
                "--journal-path", str(tmp_path / "j.wal"),
                "--base-dir", str(tmp_path / "sock"),
                "--total-memory", "4096",
                "--ready-file", str(ready),
            ),
            env=_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not ready.exists() and proc.poll() is None:
                assert time.monotonic() < deadline, "daemon never became ready"
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=5)
        assert proc.returncode == 0, stderr
        modules = _importtime_modules(stderr)
        assert "repro.core.scheduler.daemon" in modules
        assert "repro.fanout" in modules
        assert _forbidden(modules) == []

    def test_repro_recover(self, tmp_path):
        journal = tmp_path / "j.wal"
        _write_journal(journal)
        proc = subprocess.run(
            _repro_cli("recover", str(journal)),
            env=_env(), cwd=str(REPO_ROOT), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "invariants: OK" in proc.stdout
        modules = _importtime_modules(proc.stderr)
        assert "repro.core.scheduler.journal" in modules
        assert _forbidden(modules) == []
        # The scan's fan-out is loaded, outside repro.experiments, and a
        # journal below the stripe threshold is scanned without forking.
        assert "repro.fanout" in modules
        assert {"multiprocessing", "pickle"}.isdisjoint(modules)


class TestPublicNames:
    @pytest.mark.parametrize("package", ["repro", "repro.cluster"])
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", ["repro", "repro.cluster"])
    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(importlib.import_module(package).__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018

    def test_readme_and_examples_imports(self):
        from repro import ConVGPU, Environment, format_size
        from repro.core.middleware import ConVGPU as defined
        from repro.sim.engine import Environment as sim_environment
        from repro.units import format_size as units_format_size

        assert ConVGPU is defined
        assert Environment is sim_environment
        assert format_size is units_format_size

    def test_policy_plugin_contract(self):
        from repro import register_policy
        from repro.core.scheduler.policies import register_policy as defined

        assert register_policy is defined

    def test_plain_import_loads_nothing_heavy(self):
        modules = _script_modules("import repro, repro.cluster")
        assert _forbidden(modules) == []
        assert "repro.core.scheduler" not in modules
