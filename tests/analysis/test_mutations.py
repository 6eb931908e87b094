"""Mutation tests: reintroduce historical bugs into copies of the *real*
sources and prove the analyzer reports each with the right rule and
message.  (The kill matrix, ``test_kill_matrix.py``, plants its rows into
the whole tree and checks which checks fire; these pin the findings'
shape on one module.)

Each test copies a production module into a tmp tree that mirrors the
repo layout (the rules match path suffixes), checks the unmutated copy
is clean, applies one seeded regression and asserts exactly that
finding appears.
"""

from __future__ import annotations

import dataclasses
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
CORE_PY = REPO_ROOT / "src" / "repro" / "core" / "scheduler" / "core.py"
PROTOCOL_PY = REPO_ROOT / "src" / "repro" / "ipc" / "protocol.py"


def _plant_core(tmp_path, text):
    target = tmp_path / "repro" / "core" / "scheduler" / "core.py"
    target.parent.mkdir(parents=True)
    target.write_text(text)
    return target


def _lint_core(tmp_path, target):
    config = LintConfig(root=str(tmp_path))
    return analyze_paths([str(target)], config)


@pytest.fixture
def core_source():
    return CORE_PY.read_text()


def test_unmutated_core_copy_is_clean(tmp_path, core_source):
    target = _plant_core(tmp_path, core_source)
    assert _lint_core(tmp_path, target) == []


def test_reintroduced_fsync_under_lock_is_flagged(tmp_path, core_source):
    marker = "with self._lock:\n"
    at = core_source.index(marker) + len(marker)
    mutated = core_source[:at] + "            os.fsync(0)\n" + core_source[at:]
    target = _plant_core(tmp_path, mutated)
    findings = _lint_core(tmp_path, target)
    assert [f.rule for f in findings] == ["lock-discipline"]
    assert "fsync()" in findings[0].message


def test_undeclared_protocol_field_is_flagged(tmp_path):
    client = tmp_path / "client.py"
    client.write_text(
        textwrap.dedent(
            """\
            from repro.ipc import protocol

            def send():
                return protocol.make_request(
                    protocol.MSG_ALLOC_REQUEST,
                    seq=1,
                    container_id="c",
                    pid=1,
                    size=4,
                    api="cuMemAlloc",
                    priority=3,
                )
            """
        )
    )
    config = dataclasses.replace(
        LintConfig(root=str(tmp_path)),
        schema_path=str(PROTOCOL_PY),
        protocol_doc_path=None,
    )
    findings = analyze_paths([str(client)], config)
    assert [f.rule for f in findings] == ["protocol-drift"]
    assert "'priority'" in findings[0].message
    assert "'alloc_request'" in findings[0].message


# ---------------------------------------------------------------------------
# reprosan seeds: the dynamic layer catches what static analysis cannot
# ---------------------------------------------------------------------------

STATE_PY = REPO_ROOT / "src" / "repro" / "core" / "scheduler" / "state.py"

#: _transact's critical section with the mutex deleted: every state
#: transition becomes an unsynchronized write to the shared tree.
_TRANSACT_LOCKED = """\
        with self._lock:
            acquired = _perf_counter() if timed else 0.0"""
_TRANSACT_UNLOCKED = """\
        if True:
            acquired = _perf_counter() if timed else 0.0"""


def _load_module(path, name):
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _drive_scheduler(module, rounds=6):
    """Two threads register containers strictly alternately — every
    transition is an ownership transfer of the scheduler's state tree."""
    import threading

    from repro.core.scheduler.policies import make_policy

    sched = module.GpuMemoryScheduler(64 * 2**30, make_policy("FIFO"))
    turn = [threading.Event(), threading.Event()]

    def side(i):
        for r in range(rounds):
            turn[i].wait(5.0)
            turn[i].clear()
            sched.register_container(f"c{i}-{r}", 2**20)
            turn[1 - i].set()

    threads = [
        threading.Thread(target=side, args=(i,), name=f"mut-{i}")
        for i in (0, 1)
    ]
    for thread in threads:
        thread.start()
    turn[0].set()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()


def _san_over_core(tmp_path, core_text):
    from repro.analysis.san import SanSession

    target = _plant_core(tmp_path, core_text)
    with SanSession([str(target), str(STATE_PY)], root=str(tmp_path)) as san:
        module = _load_module(target, f"mutated_core_{tmp_path.name}")
        _drive_scheduler(module)
    return san.report()


def test_unmutated_core_copy_is_race_free_at_runtime(tmp_path, core_source):
    report = _san_over_core(tmp_path, core_source)
    assert report.findings(str(tmp_path)) == []
    assert report.writes_seen > 0


def test_deleted_scheduler_mutex_is_caught_by_reprosan(tmp_path, core_source):
    mutated = core_source.replace(_TRANSACT_LOCKED, _TRANSACT_UNLOCKED)
    assert mutated != core_source
    report = _san_over_core(tmp_path, mutated)
    races = [f for f in report.findings(str(tmp_path)) if f.rule == "san-race"]
    assert races, "the planted unsynchronized transition must be detected"
    assert any("SchedulerState." in f.message for f in races)


#: A locked verb that reaches fsync through two innocuously-named
#: helpers: invisible to a one-level walk, caught by the call graph.
_SEED_SYNC_CHAIN = '''\
    def _sync_meta(self) -> None:
        self._sync_meta_inner()

    def _sync_meta_inner(self) -> None:
        os.fsync(0)

'''


def test_reintroduced_transitive_fsync_under_lock_is_flagged(
    tmp_path, core_source
):
    marker = "with self._lock:\n"
    at = core_source.index(marker) + len(marker)
    mutated = (
        core_source.replace(
            "import threading\nimport time\n",
            "import os\nimport threading\nimport time\n",
        )[: at + len("import os\n")]
        + "            self._sync_meta()\n"
        + core_source.replace(
            "import threading\nimport time\n",
            "import os\nimport threading\nimport time\n",
        )[at + len("import os\n"):]
    )
    mutated += _SEED_SYNC_CHAIN
    target = _plant_core(tmp_path, mutated)
    findings = _lint_core(tmp_path, target)
    assert "lock-discipline" in [f.rule for f in findings]
    disc = next(f for f in findings if f.rule == "lock-discipline")
    assert "fsync()" in disc.message
    assert "_sync_meta" in disc.message
    assert disc.snippet == "self._sync_meta()"
