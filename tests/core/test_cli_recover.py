"""`repro recover <journal>`: the offline view of one journal file."""

from __future__ import annotations

import re

from repro.cli import main
from repro.core.scheduler import (
    GpuMemoryScheduler,
    JournalReader,
    SchedulerJournal,
    make_policy,
)
from repro.units import GiB, MiB


def _write_journal(path: str, containers: int = 2) -> str:
    scheduler = GpuMemoryScheduler(4 * GiB, make_policy("FIFO"))
    journal = SchedulerJournal(path)
    journal.attach(scheduler)
    for i in range(containers):
        scheduler.register_container(f"cont-{i}", 256 * MiB)
    journal.close()
    return path


def test_prints_the_detailed_view(tmp_path, capsys):
    path = _write_journal(str(tmp_path / "daemon.journal"))
    assert main(["recover", path]) == 0
    out = capsys.readouterr().out
    assert "journal summary" in out
    assert "invariants: OK" in out


def test_table_says_what_a_restore_replays(tmp_path, capsys):
    """Five events, a snapshot after every second one: a restore replays
    the one event after the newest snapshot, and the table says so."""
    path = str(tmp_path / "daemon.journal")
    scheduler = GpuMemoryScheduler(4 * GiB, make_policy("FIFO"))
    with SchedulerJournal(path, snapshot_interval=2, mode="sync") as journal:
        journal.attach(scheduler)
        for i in range(5):
            scheduler.register_container(f"cont-{i}", 256 * MiB)
    assert main(["recover", path]) == 0
    rows = dict(
        re.split(r"\s{2,}", line.strip())
        for line in capsys.readouterr().out.splitlines()[3:10]
    )
    assert (rows["events"], rows["snapshots"], rows["events replayed"]) == (
        "5", "2", "1",
    )


def test_recover_scans_the_journal_once(tmp_path, monkeypatch, capsys):
    """The summary and the restore come from one validating scan."""
    path = _write_journal(str(tmp_path / "daemon.journal"))
    scans = []
    real_scan = JournalReader.scan

    def counting_scan(reader, *args, **kwargs):
        scans.append(reader.path)
        return real_scan(reader, *args, **kwargs)

    monkeypatch.setattr(JournalReader, "scan", counting_scan)
    assert main(["recover", path]) == 0
    assert scans == [path]
    assert "invariants: OK" in capsys.readouterr().out


def test_unhashable_event_type_is_reported_as_corruption(tmp_path, capsys):
    """A complete line whose event type is a JSON list is corruption like
    any unknown type: reported, not a ``TypeError`` traceback."""
    path = _write_journal(str(tmp_path / "daemon.journal"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"event","event":["x"]}\n')
    assert main(["recover", path]) == 1
    assert "corruption detected" in capsys.readouterr().err


def test_directory_is_a_one_line_error(tmp_path, capsys):
    """``recover`` takes one journal file; a directory is refused in one
    line, not a traceback."""
    _write_journal(str(tmp_path / "daemon.journal"))
    assert main(["recover", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert str(tmp_path) in err
    assert "Traceback" not in err
