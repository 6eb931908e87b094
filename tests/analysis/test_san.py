"""reprosan unit tests: the lockset algorithm, the lock proxies, the
lock-order cycle check and the suppression plumbing, all driven through
real threads over small victim modules."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis import apply_suppressions
from repro.analysis.san import SanSession, index_lock_names, index_write_sites

_COUNTER = """\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.safe = 0
        self.racy = 0

    def bump_safe(self):
        with self._lock:
            self.safe += 1

    def bump_racy(self):
        self.racy += 1
"""


def _plant(tmp_path, text, name="victim.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = spec.loader and spec.loader.exec_module(module) or module
    return module


def _ping_pong(fn_a, fn_b, rounds=6):
    """Alternate fn_a/fn_b across two threads — every call is an
    ownership transfer, so the lockset refinement is deterministic."""
    turn = [threading.Event(), threading.Event()]

    def side(i, fn):
        for _ in range(rounds):
            turn[i].wait(5.0)
            turn[i].clear()
            fn()
            turn[1 - i].set()

    threads = [
        threading.Thread(target=side, args=(0, fn_a), name="san-a"),
        threading.Thread(target=side, args=(1, fn_b), name="san-b"),
    ]
    for thread in threads:
        thread.start()
    turn[0].set()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()


@pytest.fixture
def run_san(tmp_path):
    """Plant a victim module, run ``drive(module)`` under a session,
    return the report + findings."""

    def run(text, drive, *, name="victim.py"):
        path = _plant(tmp_path, text, name)
        with SanSession([str(path)], root=str(tmp_path)) as san:
            module = _load(path, f"san_victim_{name.removesuffix('.py')}_{id(drive)}")
            drive(module)
        report = san.report()
        return report, report.findings(str(tmp_path))

    return run


def test_unsynchronized_writes_between_threads_are_a_race(run_san):
    def drive(module):
        counter = module.Counter()
        _ping_pong(counter.bump_racy, counter.bump_racy)

    report, findings = run_san(_COUNTER, drive)
    assert [f.rule for f in findings] == ["san-race"]
    assert "Counter.racy" in findings[0].message
    assert "candidate lockset is empty" in findings[0].message
    assert findings[0].snippet == "self.racy += 1"


def test_consistently_locked_writes_are_quiet(run_san):
    def drive(module):
        counter = module.Counter()
        _ping_pong(counter.bump_safe, counter.bump_safe)

    report, findings = run_san(_COUNTER, drive)
    assert findings == []
    assert report.writes_seen > 0


def test_single_handoff_to_a_worker_is_not_a_race(run_san):
    # Build in one thread, run in another: the idiom, not a bug.  The
    # worker is the only writer after construction.
    def drive(module):
        counter = module.Counter()
        worker = threading.Thread(
            target=lambda: [counter.bump_racy() for _ in range(20)],
            name="san-worker",
        )
        worker.start()
        worker.join(10.0)

    _, findings = run_san(_COUNTER, drive)
    assert findings == []


def test_thread_local_receivers_are_exempt(run_san):
    text = """\
    import threading


    class Stats:
        def __init__(self):
            self._local = threading.local()

        def bump(self):
            self._local.count = getattr(self._local, "count", 0) + 1
    """

    def drive(module):
        stats = module.Stats()
        _ping_pong(stats.bump, stats.bump)

    _, findings = run_san(text, drive)
    assert findings == []


def test_container_mutation_counts_as_a_field_write(run_san):
    text = """\
    class Table:
        def __init__(self):
            self.rows = {}

        def put(self, key):
            self.rows[key] = key
    """

    def drive(module):
        table = module.Table()
        _ping_pong(lambda: table.put(1), lambda: table.put(2))

    _, findings = run_san(text, drive)
    assert [f.rule for f in findings] == ["san-race"]
    assert "Table.rows" in findings[0].message


def test_condition_wait_releases_the_lockset(run_san):
    # A consumer parked in cond.wait() must not count the condition's
    # lock as held — otherwise the producer's locked writes would look
    # like they share no lock with the consumer's.
    text = """\
    import threading


    class Box:
        def __init__(self):
            self._cond = threading.Condition()
            self.item = None

        def put(self, value):
            with self._cond:
                self.item = value
                self._cond.notify()

        def take(self):
            with self._cond:
                while self.item is None:
                    self._cond.wait(5.0)
                value, self.item = self.item, None
                return value
    """

    def drive(module):
        box = module.Box()
        for _ in range(4):
            consumer = threading.Thread(target=box.take, name="san-consumer")
            consumer.start()
            box.put(1)
            consumer.join(10.0)

    _, findings = run_san(text, drive)
    assert findings == []


_TWO_LOCKS = """\
import threading


class Pair:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def forward(self):
        with self._a_lock:
            with self._b_lock:
                pass

    def sneaky_reverse(self):
        # Aliasing through a local hides the acquisition order from any
        # syntactic reading; the runtime recorder sees it.
        first = self._b_lock
        with first:
            second = self._a_lock
            with second:
                pass
"""


def test_runtime_reversal_closes_a_cycle(run_san):
    def drive(module):
        pair = module.Pair()
        pair.forward()
        pair.sneaky_reverse()

    report, findings = run_san(_TWO_LOCKS, drive)
    assert [f.rule for f in findings] == ["san-lock-order"]
    assert "Pair._a_lock" in findings[0].message
    assert "cycle" in findings[0].message
    assert report.edges_observed == 2


def test_agreeing_runtime_edges_are_quiet(run_san):
    def drive(module):
        pair = module.Pair()
        pair.forward()
        pair.forward()

    report, findings = run_san(_TWO_LOCKS, drive)
    assert findings == []
    assert report.edges_observed == 1


def test_inline_suppression_silences_a_known_race(tmp_path):
    text = _COUNTER.replace(
        "        self.racy += 1",
        "        # reprolint: ignore[san-race] -- stats counter, torn"
        " increments acceptable\n        self.racy += 1",
    )
    path = _plant(tmp_path, text)
    with SanSession([str(path)], root=str(tmp_path)) as san:
        module = _load(path, "san_victim_suppressed")
        counter = module.Counter()
        _ping_pong(counter.bump_racy, counter.bump_racy)
    findings = san.report().findings(str(tmp_path))
    assert [f.rule for f in findings] == ["san-race"]
    kept, suppressed = apply_suppressions(findings, str(tmp_path))
    assert kept == []
    assert suppressed == 1


def test_locks_created_outside_monitored_modules_stay_native(run_san):
    # The session's proxy tax lands only on code under test: a lock
    # allocated from an unmonitored frame is the raw primitive.
    def drive(module):
        lock = threading.Lock()
        assert type(lock).__module__ in ("_thread", "thread")
        counter = module.Counter()
        assert type(counter._lock).__name__ == "_LockProxy"

    _, findings = run_san(_COUNTER, drive)
    assert findings == []


# ---------------------------------------------------------------------------
# AST pre-scans
# ---------------------------------------------------------------------------


def test_index_write_sites_covers_assign_augassign_and_subscript():
    sites = index_write_sites(
        textwrap.dedent(
            """\
            class C:
                def f(self, other):
                    self.a = 1
                    self.b += 2
                    self.c[3] = 4
                    self.d.e = 5
                    other.f, self.g = 6, 7
                    local = 8
            """
        )
    )
    flat = {(chain, attr) for descs in sites.values() for chain, attr in descs}
    assert (("self",), "a") in flat
    assert (("self",), "b") in flat
    assert (("self",), "c") in flat
    assert (("self", "d"), "e") in flat
    assert (("other",), "f") in flat
    assert (("self",), "g") in flat
    assert all(attr != "local" for _, attr in flat)


def test_index_lock_names_maps_creation_lines():
    names = index_lock_names(
        textwrap.dedent(
            """\
            import threading


            class Journal:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._io_lock = threading.Lock()
                    self.plain = 0
            """
        )
    )
    assert names == {6: "Journal._cond", 7: "Journal._io_lock"}


# ---------------------------------------------------------------------------
# the `repro san` CLI
# ---------------------------------------------------------------------------

_REPO_ROOT = Path(__file__).resolve().parents[2]

_SMALL_SUITE = """\
import threading

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.policies import make_policy


def test_two_threads_share_a_scheduler():
    sched = GpuMemoryScheduler(1 << 30, make_policy("FIFO"))

    def churn(worker):
        for i in range(5):
            cid = f"c{worker}-{i}"
            sched.register_container(cid, 1 << 20)
            sched.container_exit(cid)

    threads = [threading.Thread(target=churn, args=(n,)) for n in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
"""


@pytest.fixture
def run_repro_san(tmp_path):
    """``repro san`` in a child process over one small planted suite."""
    suite = tmp_path / "test_small_suite.py"
    suite.write_text(_SMALL_SUITE)
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))

    def run(*options):
        return subprocess.run(
            [sys.executable, "-m", "repro", "san", *options, "--",
             "-q", "-p", "no:cacheprovider", str(suite)],
            cwd=str(_REPO_ROOT), env=env, capture_output=True, text=True,
            timeout=120,
        )

    return run


def test_cli_text_mode_prints_the_summary_on_stderr(run_repro_san):
    proc = run_repro_san()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no findings" in proc.stdout
    [summary] = [
        line for line in proc.stderr.splitlines()
        if line.startswith("reprosan: ")
    ]
    assert "0 race(s), 0 lock-order violation(s)" in summary


def test_cli_sarif_mode_owns_stdout(run_repro_san):
    proc = run_repro_san("--format", "sarif")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["version"] == "2.1.0"
    [run] = payload["runs"]
    assert run["tool"]["driver"]["name"] == "reprosan"
    assert run["results"] == []
