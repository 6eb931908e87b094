"""The acceptance gate: the analyzer over the repo's own ``src/`` tree
reports nothing — every real finding is fixed and every deliberate
exception carries a reasoned inline suppression."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import LintConfig, analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_source_tree_is_clean():
    findings = analyze_paths(
        [str(REPO_ROOT / "src")], LintConfig(root=str(REPO_ROOT))
    )
    assert findings == [], "\n".join(f.located() for f in findings)


def test_every_suppression_in_src_carries_a_reason():
    # ``# reprolint: ignore[...]`` without ``-- reason`` is banned in this
    # tree: the reason doubles as documentation at the call site.
    from repro.analysis.engine import collect_files
    from repro.analysis.core import SourceFile

    unreasoned = []
    for path in collect_files([str(REPO_ROOT / "src")]):
        rel = str(Path(path).relative_to(REPO_ROOT))
        source = SourceFile(path, rel, Path(path).read_text())
        unreasoned.extend(f"{rel}:{line}" for line in sorted(source.unreasoned))
    assert unreasoned == []


def test_live_scheduler_churn_is_race_clean(tmp_path):
    """The runtime half of the gate: a journaled scheduler driven hard
    from several threads, with the sanitizer watching the real modules,
    reports no race and no lock-order break (DESIGN.md §16)."""
    import threading

    from repro.analysis.san import SanSession
    from repro.core.scheduler.core import GpuMemoryScheduler
    from repro.core.scheduler.journal import SchedulerJournal
    from repro.core.scheduler.policies import make_policy

    with SanSession(root=str(REPO_ROOT)) as san:
        sched = GpuMemoryScheduler(1 << 30, make_policy("FIFO"))
        with SchedulerJournal(str(tmp_path / "journal.wal")) as journal:
            journal.attach(sched)

            def churn(worker: int) -> None:
                for i in range(25):
                    cid = f"c{worker}-{i}"
                    sched.register_container(cid, 1 << 20)
                    sched.request_allocation(cid, pid=worker, size=4096,
                                             api="cuMemAlloc")
                    sched.process_exit(cid, pid=worker)
                    sched.container_exit(cid)

            threads = [
                threading.Thread(target=churn, args=(n,), name=f"churn-{n}")
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
    report = san.report()
    findings = report.findings(str(REPO_ROOT))
    assert findings == [], "\n".join(
        f.located() + " :: " + f.message for f in findings
    )
    assert report.writes_seen > 0
    assert report.locks_wrapped > 0
