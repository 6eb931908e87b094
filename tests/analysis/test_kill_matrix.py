"""The kill matrix in tier-1 (DESIGN.md §12).

``tests/analysis/kill_matrix.py`` holds one row per bug class a check
claims.  Here every row is planted into the real sources and the static
rules run over all of ``src/`` (clean without the row:
``test_self_clean.py``): the rule ids that report it must be the row's
recorded ``static`` column.  The sanitizer's own rows run their
mutant under reprosan over a small driver.  The completeness test then
holds the set of checks to what the matrix justifies: each registered
rule id and each sanitizer kind kills some row that no other column
(plain tier-1, ``make san``, ruff, another rule) kills.  A rule added
without such a row fails here.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import queue
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import LintConfig
from repro.analysis.core import SourceFile
from repro.analysis.engine import DEFAULT_RULES, load_sources, run_rules
from repro.analysis.san import SanSession
from tests.analysis.kill_matrix import BY_ID, MUTANTS, REPO_ROOT, SAN_KINDS

#: Every id the registered rules report (``protocol-drift`` also reports
#: ``protocol-doc-drift``).
RULE_IDS = frozenset(
    rule_id
    for rule in DEFAULT_RULES
    for rule_id in (rule.id, getattr(rule, "doc_id", None))
    if rule_id
)
KEPT_COLUMNS = RULE_IDS | frozenset(SAN_KINDS) | {"tier-1", "ruff"}

#: Documents a rule reads, and the config field that points it at one.
_DOC_FIELDS = {"docs/PROTOCOL.md": "protocol_doc_path"}


@pytest.fixture(scope="module")
def tree():
    """The real ``src/`` tree, parsed once for every row."""
    sources, errors = load_sources([str(REPO_ROOT / "src")], str(REPO_ROOT))
    assert errors == []
    return sources


def static_killers(mutant, sources, tmp_path) -> set[str]:
    """Rule ids reporting ``mutant`` when it is planted into ``sources``."""
    files = list(sources)
    config = LintConfig(root=str(REPO_ROOT))
    for rel, text in mutant.patched(REPO_ROOT).items():
        if rel in _DOC_FIELDS:
            doc = tmp_path / Path(rel).name
            doc.write_text(text)
            config = dataclasses.replace(config, **{_DOC_FIELDS[rel]: str(doc)})
            continue
        (index,) = [i for i, source in enumerate(files) if source.rel == rel]
        files[index] = SourceFile(str(REPO_ROOT / rel), rel, text)
    return {finding.rule for finding in run_rules(files, config, str(REPO_ROOT))}


@pytest.mark.parametrize("row", [m.id for m in MUTANTS])
def test_static_column(row, tree, tmp_path):
    mutant = BY_ID[row]
    assert static_killers(mutant, tree, tmp_path) == set(mutant.static)


def test_every_check_kills_a_row_nothing_else_kills():
    for check in sorted(RULE_IDS | set(SAN_KINDS)):
        unique = [
            m.id for m in MUTANTS if m.killers() & KEPT_COLUMNS == {check}
        ]
        assert unique, f"{check} kills no row that no other kept column kills"


def test_rows_name_a_source_and_a_harm():
    for mutant in MUTANTS:
        assert mutant.source and mutant.what, mutant.id
        assert mutant.harm in ("wrong result", "hang", "lost signal"), mutant.id
        assert mutant.static <= RULE_IDS, mutant.id
        assert mutant.san_lane <= set(SAN_KINDS), mutant.id


# ---------------------------------------------------------------------------
# The sanitizer's rows: the mutant under reprosan over a small driver
# ---------------------------------------------------------------------------

_CORE = REPO_ROOT / "src" / "repro" / "core" / "scheduler" / "core.py"
_STATE = REPO_ROOT / "src" / "repro" / "core" / "scheduler" / "state.py"
_JOURNAL = REPO_ROOT / "src" / "repro" / "core" / "scheduler" / "journal.py"
_LOOP = REPO_ROOT / "src" / "repro" / "ipc" / "loop.py"


def _load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _two_threads_register(core_module, _tmp_path):
    """Two threads register containers strictly alternately: every
    transition is an ownership transfer of the scheduler's state."""
    from repro.core.scheduler.policies import make_policy

    sched = core_module.GpuMemoryScheduler(64 * 2**30, make_policy("FIFO"))
    turn = [threading.Event(), threading.Event()]

    def side(i):
        for r in range(6):
            turn[i].wait(5.0)
            turn[i].clear()
            sched.register_container(f"c{i}-{r}", 2**20)
            turn[1 - i].set()

    threads = [threading.Thread(target=side, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    turn[0].set()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()


def _journaled_transitions(journal_module, tmp_path):
    """Transitions on a journal that snapshots after every batch.  Each
    waits for the writer's snapshot before the next takes the scheduler
    lock, so the driver never deadlocks on the order under test."""
    from repro.core.scheduler.core import GpuMemoryScheduler
    from repro.core.scheduler.policies import make_policy

    sched = GpuMemoryScheduler(64 * 2**30, make_policy("FIFO"))
    journal = journal_module.SchedulerJournal(
        str(tmp_path / "journal.wal"), snapshot_interval=1
    )
    journal.attach(sched)
    try:
        for i in range(3):
            sched.register_container(f"c{i}", 2**20)
            deadline = time.monotonic() + 5.0
            while journal._events_since_snapshot and time.monotonic() < deadline:
                time.sleep(0.001)
    finally:
        journal.close()


def _batches_one_at_a_time(loop_module, _tmp_path):
    """Frames sent one at a time over one connection: the selector thread
    schedules each batch and a worker retires it, so the connection's
    ``scheduled`` flag changes hands every frame."""
    loop = loop_module.IoLoop(workers=1).start()
    ours, peer = socket.socketpair()
    batches: queue.Queue = queue.Queue()
    loop.add_connection(ours, on_batch=batches.put, on_close=lambda: None)
    try:
        for _ in range(6):
            peer.sendall(b'{"type": "heartbeat", "seq": 1}\n')
            batches.get(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while loop._conns[ours].scheduled and time.monotonic() < deadline:
                time.sleep(0.001)
    finally:
        loop.stop()
        peer.close()


#: row -> (the module the mutant edits, the other monitored module, driver)
_SAN_ROWS = {
    "san-race-unlocked-transact": (_CORE, _STATE, _two_threads_register),
    "san-race-unlocked-enqueue": (_LOOP, _STATE, _batches_one_at_a_time),
    "san-lock-order-dynamic-reversal": (_JOURNAL, _CORE, _journaled_transitions),
}


def _san_kinds(target: Path, text: str, other: Path, drive, tmp_path) -> set[str]:
    planted = tmp_path / target.relative_to(REPO_ROOT / "src")
    planted.parent.mkdir(parents=True, exist_ok=True)
    planted.write_text(text)
    with SanSession([str(planted), str(other)], root=str(tmp_path)) as san:
        module = _load_module(planted, f"planted_{tmp_path.name}")
        drive(module, tmp_path)
    return {finding.rule for finding in san.report().findings(str(tmp_path))}


@pytest.mark.parametrize("row", sorted(_SAN_ROWS))
def test_san_row(row, tmp_path):
    mutant = BY_ID[row]
    target, other, drive = _SAN_ROWS[row]
    clean = _san_kinds(target, target.read_text(), other, drive, tmp_path / "clean")
    assert clean == set()
    rel = str(target.relative_to(REPO_ROOT))
    (text,) = mutant.patched(REPO_ROOT).values()
    assert list(mutant.patched(REPO_ROOT)) == [rel]
    assert _san_kinds(target, text, other, drive, tmp_path / "mutant") == {
        mutant.check
    }
