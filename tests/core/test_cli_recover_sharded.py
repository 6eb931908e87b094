"""`repro recover` over a sharded deployment's journal directory/glob."""

from __future__ import annotations

import os
import re

from repro.cli import main
from repro.core.scheduler import (
    GpuMemoryScheduler,
    JournalReader,
    SchedulerJournal,
    make_policy,
)
from repro.units import GiB, MiB


def _write_shard_journal(path: str, containers: int) -> None:
    scheduler = GpuMemoryScheduler(4 * GiB, make_policy("FIFO"))
    journal = SchedulerJournal(path)
    journal.attach(scheduler)
    for i in range(containers):
        scheduler.register_container(f"cont-{i}", 256 * MiB)
    journal.close()


def _shard_dir(tmp_path) -> str:
    base = tmp_path / "shards"
    base.mkdir()
    _write_shard_journal(str(base / "shard-0.journal"), containers=2)
    _write_shard_journal(str(base / "shard-1.journal"), containers=3)
    return str(base)


def test_directory_prints_per_shard_table(tmp_path, capsys):
    base = _shard_dir(tmp_path)
    assert main(["recover", base]) == 0
    out = capsys.readouterr().out
    assert "shard journals (2)" in out
    assert "shard-0.journal" in out
    assert "shard-1.journal" in out
    assert out.count("OK") == 2


def test_glob_selects_journals(tmp_path, capsys):
    base = _shard_dir(tmp_path)
    assert main(["recover", os.path.join(base, "shard-*.journal")]) == 0
    assert "shard journals (2)" in capsys.readouterr().out


def test_corrupt_shard_fails_the_run_but_reports_all(tmp_path, capsys):
    base = _shard_dir(tmp_path)
    with open(os.path.join(base, "shard-1.journal"), "a", encoding="utf-8") as fh:
        fh.write('{"event": "NoSuchEvent", "time": 0}\n')
    assert main(["recover", base]) == 1
    out = capsys.readouterr().out
    assert "CORRUPT" in out
    # The healthy shard is still summarized.
    assert "shard-0.journal" in out
    assert "OK" in out


def test_empty_match_is_an_error(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["recover", str(empty)]) == 1
    assert "no journals match" in capsys.readouterr().err


def test_single_file_keeps_the_detailed_view(tmp_path, capsys):
    base = _shard_dir(tmp_path)
    assert main(["recover", os.path.join(base, "shard-0.journal")]) == 0
    out = capsys.readouterr().out
    assert "journal summary" in out
    assert "invariants: OK" in out


def test_tables_say_what_a_restore_replays(tmp_path, capsys):
    """Five events, a snapshot after every second one: a restore replays
    the one event after the newest snapshot, and both tables say so."""
    base = tmp_path / "shards"
    base.mkdir()
    for shard in ("shard-0.journal", "shard-1.journal"):
        scheduler = GpuMemoryScheduler(4 * GiB, make_policy("FIFO"))
        with SchedulerJournal(
            str(base / shard), snapshot_interval=2, mode="sync"
        ) as journal:
            journal.attach(scheduler)
            for i in range(5):
                scheduler.register_container(f"cont-{i}", 256 * MiB)
    assert main(["recover", str(base / "shard-0.journal")]) == 0
    rows = dict(
        re.split(r"\s{2,}", line.strip())
        for line in capsys.readouterr().out.splitlines()[3:10]
    )
    assert (rows["events"], rows["snapshots"], rows["events replayed"]) == (
        "5", "2", "1",
    )
    assert main(["recover", str(base)]) == 0
    header, _, *shards = (
        re.split(r"\s{2,}", line.strip())
        for line in capsys.readouterr().out.splitlines()[1:5]
    )
    column = header.index("events replayed")
    assert [row[column] for row in shards] == ["1", "1"]


def test_recover_scans_each_journal_once(tmp_path, monkeypatch, capsys):
    """The summary and the restore come from one validating scan per
    journal, on the single-file view and on the per-shard table alike."""
    base = _shard_dir(tmp_path)
    scans = []
    real_scan = JournalReader.scan

    def counting_scan(reader, *args, **kwargs):
        scans.append(os.path.basename(reader.path))
        return real_scan(reader, *args, **kwargs)

    monkeypatch.setattr(JournalReader, "scan", counting_scan)
    assert main(["recover", os.path.join(base, "shard-0.journal")]) == 0
    assert scans == ["shard-0.journal"]
    scans.clear()
    assert main(["recover", base]) == 0
    assert scans == ["shard-0.journal", "shard-1.journal"]
    assert "invariants: OK" in capsys.readouterr().out


def test_unhashable_event_type_is_reported_as_corruption(tmp_path, capsys):
    """A complete line whose event type is a JSON list is corruption like
    any unknown type: reported, not a ``TypeError`` traceback."""
    base = _shard_dir(tmp_path)
    path = os.path.join(base, "shard-1.journal")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"event","event":["x"]}\n')
    assert main(["recover", path]) == 1
    assert "corruption detected" in capsys.readouterr().err
    assert main(["recover", base]) == 1
    assert "CORRUPT" in capsys.readouterr().out
