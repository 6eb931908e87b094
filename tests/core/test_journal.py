"""Unit tests for the write-ahead journal and crash recovery.

The property suite (test_journal_properties.py) covers randomized crash
consistency; these tests pin the codec, the file format, the compaction
behaviour, the torn-tail tolerance, and the orphan-adoption contract.
"""

import dataclasses
import json
import os
import threading
import time

import pytest

from repro.core.scheduler import (
    GpuMemoryScheduler,
    SchedulerJournal,
    compact_journal,
    journal_summary,
    make_policy,
    read_journal,
    read_meta,
    restore,
    serialize_state,
    snapshot,
)
from repro.core.scheduler.events import (
    AllocationGranted,
    AllocationPaused,
    ContainerRegistered,
)
import repro.core.scheduler.journal as journal_mod
from repro.core.scheduler.journal import (
    EVENT_TYPES,
    JournalReader,
    decode_event,
    encode_event,
)
from repro.core.scheduler.state import SchedulerState
from repro.errors import JournalError, SchedulerError
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER
from repro.units import GiB, MiB

from tests.conftest import ManualClock


@pytest.fixture
def journal_path(tmp_path):
    return str(tmp_path / "scheduler.journal")


def make_scheduler(policy="FIFO", total=5 * GiB):
    clock = ManualClock()
    sched = GpuMemoryScheduler(total, make_policy(policy), clock=clock)
    sched.test_clock = clock
    return sched


class TestEventCodec:
    def test_round_trip_every_event_type(self, journal_path):
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path)
        journal.attach(sched)
        # Drive every event class at least once.
        sched.register_container("a", 2 * GiB)
        sched.register_container("b", 4 * GiB)
        sched.request_allocation("a", 1, 512 * MiB)          # granted
        sched.commit_allocation("a", 1, 0x100, 512 * MiB)    # committed
        sched.request_allocation("a", 1, 10 * GiB)           # rejected
        sched.request_allocation("b", 2, 3900 * MiB,
                                 on_resume=lambda p: None)   # paused
        sched.request_allocation("a", 3, 100 * MiB)          # granted (+overhead)
        sched.abort_allocation("a", 3, 100 * MiB)            # aborted
        sched.release_allocation("a", 1, 0x100)              # released
        sched.process_exit("a", 1)                           # process exit
        sched.container_exit("a")                            # closed -> assigned/resumed
        journal.close()

        seen = {type(event).__name__ for event in sched.log}
        for event in sched.log:
            assert decode_event(encode_event(event)) == event
        # The scenario exercises the full vocabulary the journal must cover.
        assert {
            "ContainerRegistered", "AllocationGranted", "AllocationPaused",
            "AllocationResumed", "AllocationRejected", "AllocationCommitted",
            "AllocationReleased", "AllocationAborted", "MemoryAssigned",
            "ProcessExited", "ContainerClosed",
        } <= seen

    def test_journal_line_is_the_json_dumps_spelling(self, journal_path):
        """The compiled codec writes the bytes ``json.dumps`` of
        ``dataclasses.asdict`` wrote: one event of each type, with a float
        and a non-ASCII string that an encoder setting would change, and
        a snapshot line, whose state nests dicts and lists."""
        samples = {"float": 0.1 + 0.2, "str": "c-\u00e9", "int": (1 << 40) + 1}
        events = [
            cls(**{f.name: samples[f.type] for f in dataclasses.fields(cls)})
            for cls in EVENT_TYPES.values()
        ]
        assert len(events) == 12
        sched = make_scheduler()
        sched.test_clock.advance(0.1 + 0.2)
        sched.register_container("c-\u00e9", 2 * GiB)
        assert sched.request_allocation("c-\u00e9", 1, 64 * MiB).granted
        state = serialize_state(sched)
        with SchedulerJournal(journal_path, mode="sync") as journal:
            journal.attach(sched)  # a non-fresh state: snapshot first
            for event in events:
                journal.record(event)
        with open(journal_path, encoding="utf-8") as fh:
            snapshot_line, *lines = fh.read().splitlines()[1:]  # after meta
        assert snapshot_line == json.dumps(
            {"kind": "snapshot", "state": state}, separators=(",", ":")
        )
        assert lines == [
            json.dumps(
                {"kind": "event", "event": type(event).__name__,
                 **dataclasses.asdict(event)},
                separators=(",", ":"),
            )
            for event in events
        ]
        assert [decode_event(json.loads(line)) for line in lines] == events

    def test_decode_unknown_event_type(self):
        with pytest.raises(JournalError, match="unknown event type"):
            decode_event({"kind": "event", "event": "NotAnEvent"})

    def test_decode_unhashable_event_type(self):
        with pytest.raises(JournalError, match="unknown event type"):
            decode_event({"kind": "event", "event": ["x"]})

    def test_decode_missing_fields(self):
        with pytest.raises(JournalError, match="missing fields"):
            decode_event({"kind": "event", "event": "ContainerRegistered",
                          "time": 0.0})


class TestJournalFile:
    def test_meta_written_once(self, journal_path):
        sched = make_scheduler(policy="BF")
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        meta, records, torn = read_journal(journal_path)
        assert meta["policy"] == "BF"
        assert meta["total_memory"] == 5 * GiB
        assert torn == 0
        assert [r["kind"] for r in records] == ["event"]

    def test_snapshot_compaction_interval(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path, snapshot_interval=2) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
            sched.request_allocation("a", 1, 100 * MiB)
            sched.commit_allocation("a", 1, 0x1, 100 * MiB)
            sched.release_allocation("a", 1, 0x1)
        summary = journal_summary(journal_path)
        assert summary["events"] == 4
        assert summary["snapshots"] == 2

    def test_restore_equals_live_after_compaction(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path, snapshot_interval=2) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
            sched.request_allocation("a", 1, 100 * MiB)
            sched.commit_allocation("a", 1, 0x1, 100 * MiB)
            restored = restore(journal_path, clock=sched.test_clock)
        assert snapshot(restored) == snapshot(sched)
        restored.check_invariants()

    @pytest.mark.parametrize("mode", ("group", "sync"))
    def test_interval_snapshot_never_tears_a_transition(self, journal_path, mode):
        """``container_exit`` below emits four events.  A snapshot taken
        between two of them holds the state after all four, and the rest
        replay on top of it: ``b``'s grant is counted twice."""
        for interval in range(1, 9):
            sched = make_scheduler(total=4 * GiB)
            path = f"{journal_path}.{interval}"
            with SchedulerJournal(
                path, snapshot_interval=interval, mode=mode
            ) as journal:
                journal.attach(sched)
                sched.register_container("a", 3 * GiB)
                sched.register_container("b", 3 * GiB)
                sched.request_allocation("a", 1, 2 * GiB)
                sched.commit_allocation("a", 1, 0x1, 2 * GiB)
                assert sched.request_allocation(
                    "b", 1, 2 * GiB, on_resume=lambda payload: None
                ).paused
                sched.container_exit("a")
            restored = restore(path, clock=sched.test_clock)
            restored.check_invariants()
            assert serialize_state(restored) == serialize_state(sched), interval
            assert restored.log.events == sched.log.events, interval

    @pytest.mark.parametrize("mode", ("group", "sync"))
    def test_journaled_log_is_bounded_by_the_snapshot_interval(
        self, journal_path, mode
    ):
        """A daemon's event log holds the events since the newest snapshot,
        not its whole life: 3000 transitions never keep more than a few
        intervals' worth."""
        sched = make_scheduler()
        longest = 0
        with SchedulerJournal(journal_path, snapshot_interval=8, mode=mode) as journal:
            journal.attach(sched)
            sched.register_container("a", 2 * GiB)
            for address in range(1, 1001):
                assert sched.request_allocation("a", 1, 64 * MiB).granted
                sched.commit_allocation("a", 1, address, 64 * MiB)
                sched.release_allocation("a", 1, address)
                longest = max(longest, len(sched.log))
        assert longest < 64
        restored = restore(journal_path, clock=sched.test_clock)
        assert restored.log.events == sched.log.events

    def test_restore_work_is_proportional_to_the_tail(
        self, journal_path, monkeypatch
    ):
        """One snapshot load and one ``apply_event`` per event after it —
        history the newest snapshot replaces is scanned, never rebuilt."""
        sched = make_scheduler()
        with SchedulerJournal(
            journal_path, snapshot_interval=64, mode="sync"
        ) as journal:
            journal.attach(sched)
            sched.register_container("a", 2 * GiB)
            for address in range(1, 701):
                assert sched.request_allocation("a", 1, 64 * MiB).granted
                sched.commit_allocation("a", 1, address, 64 * MiB)
                sched.release_allocation("a", 1, address)
        _, records, _ = read_journal(journal_path)
        kinds = [record["kind"] for record in records]
        assert kinds.count("event") >= 2000 and kinds.count("snapshot") > 30
        after_newest = kinds[::-1].index("snapshot")
        assert after_newest <= 64
        calls = {"apply_event": 0, "load_snapshot": 0}
        for name in calls:
            def counted(self, *args, _name=name, _real=getattr(SchedulerState, name)):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(SchedulerState, name, counted)
        restored = restore(journal_path, clock=sched.test_clock)
        assert calls == {"apply_event": after_newest, "load_snapshot": 1}
        assert journal_summary(journal_path)["events_replayed"] == after_newest
        assert serialize_state(restored) == serialize_state(sched)
        assert restored.log.events == sched.log.events

    #: One bad line and the error every scan of the file gives for it.  The
    #: line-level ones are the reader's own checks (framing, UTF-8, JSON, a
    #: dict with a ``kind``) and the scan's ``kind`` rules; the last three
    #: are the record checks on an event.
    BAD_LINES = {
        "garbage": (b"\x00\xffgarbage\n", "corrupt journal"),
        "not_a_dict": (b"[1,2]\n", "corrupt journal"),
        "no_kind": (b'{"event":"AllocationGranted"}\n', "corrupt journal"),
        "two_values": (
            b'{"kind":"snapshot"} {"kind":"snapshot"}\n', "Extra data",
        ),
        "trailing_garbage": (
            b'{"kind":"event","event":"ContainerRegistered","time":0.0,'
            b'"container_id":"z","limit":1,"assigned":1}xyz\n',
            "Extra data",
        ),
        "empty_line": (b"\n", "Expecting value"),
        "unknown_kind": (b'{"kind":"bogus"}\n', "unknown journal record kind"),
        "second_meta": (None, "duplicate meta record"),  # the meta line again
        "unknown_event_type": (
            b'{"kind":"event","event":"NotAnEvent"}\n', "unknown event type",
        ),
        "unhashable_event_type": (
            b'{"kind":"event","event":["x"]}\n', "unknown event type",
        ),
        "missing_field": (
            b'{"kind":"event","event":"ContainerRegistered","time":0.0}\n',
            "missing fields",
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_bad_line_before_the_newest_snapshot_fails_every_scan(
        self, journal_path, case
    ):
        """Every check covers the whole file, not just what gets replayed:
        a bad line in history that a later snapshot replaces fails restore,
        both compactions and the summary alike, and no compaction touches
        the journal."""
        sched = make_scheduler()
        with SchedulerJournal(
            journal_path, snapshot_interval=4, mode="sync"
        ) as journal:
            journal.attach(sched)
            churn(sched, "a", cycles=10)
        lines = open(journal_path, "rb").read().splitlines(keepends=True)
        assert sum(b'"kind":"snapshot"' in line for line in lines[3:]) >= 2
        bad, message = self.BAD_LINES[case]
        lines.insert(2, lines[0] if bad is None else bad)  # meta, event, BAD
        corrupted = b"".join(lines)
        with open(journal_path, "wb") as fh:
            fh.write(corrupted)

        with pytest.raises(JournalError, match=message):
            restore(journal_path)
        with pytest.raises(JournalError, match=message):
            compact_journal(journal_path)
        assert open(journal_path, "rb").read() == corrupted
        summary = journal_summary(journal_path)
        assert message in summary["corrupt"]
        assert (summary["events"], summary["snapshots"]) == (1, 0)
        # Online: the failed compaction leaves the journal as it was, plus
        # the snapshot compact() appends before it scans.
        with SchedulerJournal(journal_path, mode="sync") as journal:
            journal.attach(make_scheduler())
            with pytest.raises(JournalError, match=message):
                journal.compact()
            assert journal.compactions == 0
        assert open(journal_path, "rb").read().startswith(corrupted)
        assert not os.path.exists(journal_path + ".compact")

    def test_lines_only_the_reference_decoder_takes_pass_every_scan(
        self, journal_path
    ):
        """Lines the C-scanner fast path hands to the reference decoder —
        leading spaces, a ``\\r\\n`` ending — and an unknown extra field on
        an event are accepted by restore, both compactions and the summary,
        with the plain journal's counts, before and after the newest
        snapshot."""
        sched = make_scheduler()
        with SchedulerJournal(
            journal_path, snapshot_interval=4, mode="sync"
        ) as journal:
            journal.attach(sched)
            churn(sched, "a", cycles=10)
        plain = journal_summary(journal_path)
        assert plain["snapshots"] >= 2 and plain["events_replayed"] >= 1
        variants = (
            lambda line: b"  " + line,
            lambda line: line[:-1] + b"\r\n",
            lambda line: b'{"extra":[1],' + line[1:],
        )
        lines = open(journal_path, "rb").read().splitlines(keepends=True)
        with open(journal_path, "wb") as fh:
            for index, line in enumerate(lines):
                fh.write(variants[index % 3](line))

        assert journal_summary(journal_path) == plain
        assert serialize_state(restore(journal_path)) == serialize_state(sched)
        restored = restore(journal_path)
        with SchedulerJournal(journal_path, mode="sync") as journal:
            journal.attach(restored)
            assert journal.compact()
        assert serialize_state(restore(journal_path)) == serialize_state(sched)
        compact_journal(journal_path)
        assert serialize_state(restore(journal_path)) == serialize_state(sched)

    def test_background_compaction_failure_is_counted(self, journal_path):
        """A scan failure in the compactor thread is a failed compaction
        like any other: counted, flight-recorded, journal untouched."""
        sched = make_scheduler()
        with SchedulerJournal(journal_path, snapshot_interval=4) as journal:
            journal.attach(sched)
            churn(sched, "a", cycles=10)
        with open(journal_path, "ab") as fh:
            fh.write(b'{"kind":"bogus"}\n')
        failures = REGISTRY.get("convgpu_journal_compaction_failures_total")
        before = failures.value
        with SchedulerJournal(
            journal_path, snapshot_interval=4, compact_at_bytes=1
        ) as journal:
            journal.attach(sched)
            churn(sched, "b", cycles=3)  # arms the compactor
            deadline = time.time() + 10.0
            while failures.value == before and time.time() < deadline:
                time.sleep(0.01)
            assert failures.value > before
            assert journal.compactions == 0
        assert '"journal.compact_failed"' in RECORDER.dump_text(reason="test")
        assert b'{"kind":"bogus"}\n' in open(journal_path, "rb").read()

    def test_no_meta_is_reported_before_any_record_check(self, journal_path):
        """``meta`` opens every journal this code wrote, so a file without
        it is not a journal — said as such, whatever its lines hold."""
        with open(journal_path, "wb") as fh:
            fh.write(b'{"kind":"event","event":"NotAnEvent"}\n' * 3)
        with pytest.raises(JournalError, match="no meta record"):
            compact_journal(journal_path)
        assert "no meta record" in journal_summary(journal_path)["corrupt"]

    def test_torn_tail_is_dropped_by_every_scan(self, journal_path):
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path, snapshot_interval=4, mode="sync")
        journal.attach(sched)
        churn(sched, "a", cycles=10)
        journal.close()
        intact = os.path.getsize(journal_path)
        with open(journal_path, "ab") as fh:
            fh.write(b'{"kind": "event", "event": "AllocationCom')
        assert journal_summary(journal_path)["torn_lines"] == 1
        assert serialize_state(restore(journal_path)) == serialize_state(sched)
        sidecar, offset = journal._prepare_sidecar()  # the online scan
        assert offset == intact
        assert open(sidecar, "rb").read().endswith(b"\n")
        os.remove(sidecar)
        assert compact_journal(journal_path)["torn_dropped"] == 1
        assert serialize_state(restore(journal_path)) == serialize_state(sched)

    def test_torn_tail_is_dropped(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
            sched.request_allocation("a", 1, 100 * MiB)
        with open(journal_path, "ab") as fh:
            fh.write(b'{"kind": "event", "event": "AllocationCom')  # crash mid-write
        meta, records, torn = read_journal(journal_path)
        assert torn == 1
        assert len(records) == 2
        restored = restore(journal_path, clock=sched.test_clock)
        assert snapshot(restored) == snapshot(sched)

    def test_terminated_garbage_final_line_raises(self, journal_path):
        """A complete (newline-terminated) line of garbage is corruption.

        A crash mid-append can only leave an *unterminated* fragment; it
        cannot manufacture the trailing newline.  Dropping this line as
        "torn" (the old behaviour) silently hid real corruption.
        """
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        with open(journal_path, "ab") as fh:
            fh.write(b"\x00\xffgarbage\n")
        with pytest.raises(JournalError, match="corrupt journal"):
            read_journal(journal_path)
        with pytest.raises(JournalError, match="corrupt journal"):
            restore(journal_path)
        # journal_summary surfaces instead of raising (`repro recover`).
        summary = journal_summary(journal_path)
        assert summary["corrupt"] is not None
        assert "corrupt journal" in summary["corrupt"]
        assert summary["torn_lines"] == 0
        assert summary["events"] == 1  # counts stop at the corruption

    def test_garbage_then_torn_fragment_still_raises(self, journal_path):
        """Terminated garbage followed by a torn fragment: still corruption."""
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        with open(journal_path, "ab") as fh:
            fh.write(b"\x00\xffgarbage\n")
            fh.write(b'{"kind": "ev')  # torn tail after the corruption
        with pytest.raises(JournalError, match="corrupt journal"):
            read_journal(journal_path)

    def test_corruption_before_tail_raises(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        lines = open(journal_path, "rb").read().splitlines()
        lines.insert(1, b"not json")
        with open(journal_path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        with pytest.raises(JournalError, match="corrupt journal"):
            read_journal(journal_path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            read_journal(str(tmp_path / "nope.journal"))

    def test_restore_requires_meta(self, journal_path):
        with open(journal_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "event", "event": "x"}) + "\n")
        with pytest.raises(JournalError, match="no meta record"):
            restore(journal_path)

    def test_version_mismatch_rejected(self, journal_path):
        with open(journal_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "meta", "version": 99}) + "\n")
        with pytest.raises(JournalError, match="version"):
            restore(journal_path)

    def test_reattach_config_mismatch_rejected(self, journal_path):
        sched = make_scheduler(policy="FIFO")
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        other = make_scheduler(policy="BF")
        journal2 = SchedulerJournal(journal_path)
        with pytest.raises(JournalError, match="configuration mismatch"):
            journal2.attach(other)

    def test_double_attach_rejected(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            with pytest.raises(JournalError, match="already attached"):
                journal.attach(sched)

    def test_write_after_close_rejected(self, journal_path):
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path)
        journal.attach(sched)
        journal.close()
        with pytest.raises(JournalError, match="not attached"):
            journal.write_snapshot()
        # Detached: new events no longer reach the journal.
        sched.register_container("a", 1 * GiB)
        assert journal_summary(journal_path)["events"] == 0

    def test_bad_snapshot_interval(self, journal_path):
        with pytest.raises(JournalError, match="snapshot_interval"):
            SchedulerJournal(journal_path, snapshot_interval=0)

    def test_attach_nonfresh_scheduler_snapshots_first(self, journal_path):
        sched = make_scheduler()
        sched.register_container("a", 1 * GiB)  # pre-journal history
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
        summary = journal_summary(journal_path)
        assert summary["snapshots"] == 1  # state wasn't lost
        restored = restore(journal_path, clock=sched.test_clock)
        assert snapshot(restored) == snapshot(sched)


class TestEventLimit:
    def test_event_limit_models_crash_at_each_boundary(self, journal_path):
        """restore(event_limit=k) == the live scheduler after k events."""
        clock = ManualClock()
        live = GpuMemoryScheduler(5 * GiB, make_policy("FIFO"), clock=clock)
        with SchedulerJournal(journal_path) as journal:
            journal.attach(live)
            live.register_container("a", 2 * GiB)
            live.register_container("b", 4 * GiB)
            live.request_allocation("a", 1, 1 * GiB)
            live.commit_allocation("a", 1, 0x1, 1 * GiB)
            clock.advance(5.0)
            live.request_allocation("b", 2, 3900 * MiB, on_resume=lambda p: None)
            clock.advance(5.0)
            live.container_exit("a")
        total = len(live.log)
        assert restore(journal_path, event_limit=total, clock=clock).log.events == live.log.events
        for k in range(total + 1):
            partial = restore(journal_path, event_limit=k, clock=clock)
            partial.check_invariants()
            assert len(partial.log) == k
            # Replayed prefix is exactly the live log prefix.
            assert partial.log.events == live.log.events[:k]


class TestRefusedVerbKeepsRestoreEqualLive:
    def test_refused_commit_then_correct_commit(self, journal_path):
        """``alloc_commit`` is one-way: its refusal reaches nobody, so it
        must change nothing — otherwise the journal (which gets no event
        for a refusal) and the live state part ways."""
        sched = make_scheduler()
        with SchedulerJournal(journal_path, snapshot_interval=None) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
            assert sched.request_allocation("a", 1, 16 * MiB).granted
            with pytest.raises(SchedulerError):
                sched.commit_allocation("a", 1, 0x1, 32 * MiB)  # > inflight
            sched.commit_allocation("a", 1, 0x1, 16 * MiB)
        assert sched.container("a").inflight == 0
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == serialize_state(sched)


class TestRecoveryJournalContinuity:
    def test_recovered_scheduler_keeps_journaling(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        # Recover and continue under a fresh journal writer.
        restored = restore(journal_path, clock=sched.test_clock)
        journal2 = SchedulerJournal(journal_path)
        journal2.attach(restored, compact=True)
        restored.request_allocation("a", 1, 100 * MiB)
        journal2.close()
        final = restore(journal_path, clock=sched.test_clock)
        assert snapshot(final) == snapshot(restored)
        assert journal_summary(journal_path)["snapshots"] == 1  # recovery snapshot

    def test_journal_attribute_wiring(self, journal_path):
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path)
        assert sched.journal is None
        journal.attach(sched)
        assert sched.journal is journal
        journal.close()
        assert sched.journal is None


class TestOrphanAdoption:
    def _crash_with_pending(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 2 * GiB)
            sched.register_container("b", 4 * GiB)
            sched.request_allocation("a", 1, 2 * GiB - 66 * MiB)
            sched.commit_allocation("a", 1, 0x1, 2 * GiB - 66 * MiB)
            decision = sched.request_allocation(
                "b", 2, 3800 * MiB, on_resume=lambda p: None
            )
            assert decision.paused
        return restore(journal_path, clock=sched.test_clock)

    def test_restored_pending_is_orphaned(self, journal_path):
        restored = self._crash_with_pending(journal_path)
        record = restored.container("b")
        assert len(record.pending) == 1
        assert record.pending[0].resume is None

    def test_reissued_request_is_adopted_not_requeued(self, journal_path):
        restored = self._crash_with_pending(journal_path)
        delivered = []
        decision = restored.request_allocation(
            "b", 2, 3800 * MiB, on_resume=delivered.append
        )
        assert decision.paused
        record = restored.container("b")
        assert len(record.pending) == 1          # adopted, not double-queued
        assert record.pending[0].resume is not None
        assert len(restored.log.of_type(AllocationPaused)) == 1  # no new pause event
        # The adopted callback fires when the reservation frees up.
        restored.container_exit("a")
        assert delivered == [{"decision": "grant"}]

    def test_mismatched_reissue_queues_normally(self, journal_path):
        restored = self._crash_with_pending(journal_path)
        # Different pid: not the orphan's owner -> normal pause path.
        decision = restored.request_allocation(
            "b", 99, 3800 * MiB, on_resume=lambda p: None
        )
        assert decision.paused
        assert len(restored.container("b").pending) == 2

    def test_adoption_requires_callback(self, journal_path):
        # A plain (callback-less) request must not consume the orphan.
        restored = self._crash_with_pending(journal_path)
        decision = restored.request_allocation("b", 2, 3800 * MiB)
        assert decision.paused
        assert restored.container("b").pending[0].resume is None
        assert len(restored.container("b").pending) == 2


class _CountingCondition(threading.Condition):
    """A Condition that counts the threads sleeping in ``wait``."""

    def __init__(self) -> None:
        super().__init__()
        self.waiting = 0

    def wait(self, timeout=None):
        self.waiting += 1
        try:
            return super().wait(timeout)
        finally:
            self.waiting -= 1


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


class _GatedFsync:
    """``os.fsync`` stand-in: the first call blocks on :attr:`release`,
    then it and every later call raise EIO."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, fd):
        self.entered.set()
        self.release.wait(10.0)
        raise OSError(5, "Input/output error")


class TestWaitDurable:
    def test_each_transition_is_written_by_the_thread_that_made_it(
        self, journal_path, monkeypatch
    ):
        """A group-mode journal starts no thread of its own: a transition's
        records are written by the thread that waits for them, before the
        transition returns."""
        sched = make_scheduler()
        threads_before = threading.active_count()
        journal = SchedulerJournal(journal_path)
        journal.attach(sched)
        assert threading.active_count() == threads_before
        writers = []
        write_items = journal._write_items

        def recording_write(items):
            writers.append(threading.current_thread())
            write_items(items)

        monkeypatch.setattr(journal, "_write_items", recording_write)
        sched.register_container("a", 1 * GiB)
        other = threading.Thread(
            target=sched.register_container, args=("b", 1 * GiB)
        )
        other.start()
        other.join(5.0)
        assert not other.is_alive()
        assert writers == [threading.current_thread(), other]
        assert journal_summary(journal_path)["events"] == 2
        journal.close()

    def test_a_due_snapshot_rides_the_leaders_write(
        self, journal_path, monkeypatch
    ):
        """The transition that reaches the snapshot interval writes its
        event and the snapshot after it in one append, with one fsync."""
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path, snapshot_interval=2, fsync=True)
        journal.attach(sched)
        batches = []
        write_items = journal._write_items

        def recording_write(items):
            batches.append([kind for kind, _ in items])
            write_items(items)

        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(journal, "_write_items", recording_write)
        monkeypatch.setattr(journal_mod.os, "fsync", counting_fsync)
        sched.register_container("a", 1 * GiB)
        sched.register_container("b", 1 * GiB)
        assert batches == [["event"], ["event", "snapshot"]]
        assert len(fsyncs) == 2
        journal.close()
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == serialize_state(sched)

    def test_failed_write_raises_in_the_leader_and_every_follower(
        self, journal_path, monkeypatch
    ):
        """The thread that leads a group commit writes the queue itself;
        a failed fsync there reaches the leader and both threads that
        followed it, and every later wait raises too (fail-stop): none of
        them may return as if its records were durable."""
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path, fsync=True)
        journal._cond = _CountingCondition()
        journal.attach(sched)
        sched.register_container("a", 1 * GiB)  # the healthy path leads too
        fsync = _GatedFsync()
        monkeypatch.setattr(journal_mod.os, "fsync", fsync)
        errors: dict[str, BaseException] = {}

        def register(container_id):
            try:
                sched.register_container(container_id, 1 * GiB)
            except BaseException as exc:  # noqa: BLE001
                errors[container_id] = exc

        leader = threading.Thread(target=register, args=("b",))
        leader.start()
        assert fsync.entered.wait(5.0)
        followers = [
            threading.Thread(target=register, args=(cid,)) for cid in ("c", "d")
        ]
        for thread in followers:
            thread.start()
        _wait_for(lambda: journal._cond.waiting == 2)
        fsync.release.set()
        for thread in (leader, *followers):
            thread.join(5.0)
            assert not thread.is_alive()
        assert sorted(errors) == ["b", "c", "d"]
        assert all(isinstance(exc, OSError) for exc in errors.values())
        with pytest.raises(OSError):
            journal.wait_durable()
        with pytest.raises(OSError):
            sched.register_container("e", 1 * GiB)
        journal.close()
        # b's line was written and flushed before its fsync failed; the
        # followers' records never reached the file.
        restored = restore(journal_path, clock=sched.test_clock)
        assert [r.container_id for r in restored.containers()] == ["a", "b"]

    def test_failed_write_lets_no_reply_of_the_turn_leave(
        self, journal_path, tmp_path, monkeypatch
    ):
        """A dispatch turn whose commit fails answers none of its frames:
        not the allocation whose event failed to reach the disk, nor the
        `mem_get_info` that shared its turn, nor anything after."""
        from repro.core.scheduler.daemon import SchedulerDaemon
        from repro.ipc import protocol
        from repro.ipc.unix_socket import UnixSocketClient

        sched = GpuMemoryScheduler(5 * GiB, make_policy("FIFO"))
        journal = SchedulerJournal(journal_path, fsync=True)
        journal.attach(sched)
        daemon = SchedulerDaemon(
            sched, base_dir=str(tmp_path / "sock"), journal=journal
        ).start()
        clients = []
        try:
            control = UnixSocketClient(daemon.control_path, timeout=5.0)
            clients.append(control)
            for cid in ("a", "b"):
                control.call(
                    protocol.MSG_REGISTER_CONTAINER, container_id=cid, limit=GiB
                )
            data = {
                cid: UnixSocketClient(daemon.container_socket_path(cid), timeout=0.5)
                for cid in ("a", "b")
            }
            clients.extend(data.values())
            fsync = _GatedFsync()
            monkeypatch.setattr(journal_mod.os, "fsync", fsync)
            # Turn 1 (the control socket's registration) holds the dispatch
            # thread in the gated fsync while a's request and b's query
            # queue up: both land in turn 2, which runs after the failure.
            control.pipeline_send(
                [(protocol.MSG_REGISTER_CONTAINER, {"container_id": "c", "limit": GiB})]
            )
            assert fsync.entered.wait(5.0)
            data["a"].pipeline_send([(protocol.MSG_ALLOC_REQUEST, {
                "container_id": "a", "pid": 1, "size": MiB, "api": "cudaMalloc",
            })])
            data["b"].pipeline_send(
                [(protocol.MSG_MEM_GET_INFO, {"container_id": "b", "pid": 1})]
            )
            loop = daemon._io_loop
            _wait_for(lambda: len(loop._ready) == 2)
            fsync.release.set()
            for client in clients:
                client._sock.settimeout(0.5)
                with pytest.raises(TimeoutError):
                    client._sock.recv(65536)
            with pytest.raises(OSError):
                journal.wait_durable()
        finally:
            for client in clients:
                client.close()
            daemon.stop()


class TestStreamingAttach:
    def test_read_meta_stops_at_meta_line(self, journal_path):
        """read_meta streams only as far as the meta record: corruption
        after it is invisible to attach, visible to full reads."""
        sched = make_scheduler(policy="BF")
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        with open(journal_path, "ab") as fh:
            fh.write(b"\x00\xffgarbage\n")
        assert read_meta(journal_path)["policy"] == "BF"
        with pytest.raises(JournalError, match="corrupt journal"):
            read_journal(journal_path)

    def test_attach_truncates_torn_tail(self, journal_path):
        """Re-attaching after a crash chops the torn fragment so the next
        append starts a fresh line instead of corrupting it."""
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        with open(journal_path, "ab") as fh:
            fh.write(b'{"kind": "event", "event": "AllocationCom')  # torn
        restored = restore(journal_path, clock=sched.test_clock)
        journal2 = SchedulerJournal(journal_path)
        journal2.attach(restored)
        restored.register_container("b", 1 * GiB)
        journal2.close()
        meta, records, torn = read_journal(journal_path)
        assert torn == 0  # fragment truncated at attach, not re-dropped
        assert [r["kind"] for r in records] == ["event", "event"]
        final = restore(journal_path, clock=sched.test_clock)
        assert snapshot(final) == snapshot(restored)

    def test_attach_refuses_meta_off_the_first_line(self, journal_path):
        """A journal restore() would refuse is refused at attach, before a
        single byte is appended to it."""
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched, compact=True)
            sched.register_container("a", 1 * GiB)
        with open(journal_path, "rb") as fh:
            meta, snap, *rest = fh.readlines()
        assert b'"meta"' in meta and b'"snapshot"' in snap
        swapped = b"".join([snap, meta, *rest])
        with open(journal_path, "wb") as fh:
            fh.write(swapped)
        with pytest.raises(JournalError, match="first line"):
            restore(journal_path)
        with pytest.raises(JournalError, match="first line"):
            SchedulerJournal(journal_path).attach(make_scheduler())
        with open(journal_path, "rb") as fh:
            assert fh.read() == swapped

    def test_fresh_journal_fsyncs_its_directory(self, tmp_path, monkeypatch):
        """With fsync on, a fresh journal's directory entry is made durable
        once its meta is written; a re-attach or fsync off adds no fsync."""
        synced = []
        monkeypatch.setattr(
            journal_mod, "_fsync_dir",
            lambda directory: synced.append((directory, os.path.getsize(path))),
        )
        path = str(tmp_path / "sub" / "scheduler.journal")
        with SchedulerJournal(path, fsync=True) as journal:
            journal.attach(make_scheduler())
        meta_size = os.path.getsize(path)
        assert synced == [(str(tmp_path / "sub"), meta_size)]
        with SchedulerJournal(path, fsync=True) as journal:
            journal.attach(make_scheduler())
        path = str(tmp_path / "unsynced.journal")
        with SchedulerJournal(path) as journal:
            journal.attach(make_scheduler())
        assert synced == [(str(tmp_path / "sub"), meta_size)]

    def test_attach_removes_stale_sidecar(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
        sidecar = journal_path + ".compact"
        with open(sidecar, "wb") as fh:
            fh.write(b"half-written compaction sidecar")
        restored = restore(journal_path, clock=sched.test_clock)
        with SchedulerJournal(journal_path) as journal2:
            journal2.attach(restored)
            assert not os.path.exists(sidecar)


def churn(sched, container_id, cycles, size=64 * MiB):
    """One container's worth of alloc/commit/release history."""
    sched.register_container(container_id, 2 * GiB)
    for index in range(cycles):
        pid = index + 1
        decision = sched.request_allocation(container_id, pid, size)
        if decision.granted:
            sched.commit_allocation(container_id, pid, pid, size)
            sched.release_allocation(container_id, pid, pid)


class TestCompaction:
    def test_explicit_compact_shrinks_file_and_preserves_state(
        self, journal_path
    ):
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path, snapshot_interval=None)
        journal.attach(sched)
        churn(sched, "a", cycles=100)  # long history, tiny live state
        journal.wait_durable()
        size_before = os.path.getsize(journal_path)
        assert journal.compact() is True
        assert journal.compactions == 1
        assert os.path.getsize(journal_path) < size_before
        assert not os.path.exists(journal_path + ".compact")
        # Byte-identical restore from the compacted file.
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == serialize_state(sched)
        # The re-opened handle keeps journaling.
        sched.register_container("post", 1 * GiB)
        journal.close()
        final = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(final) == serialize_state(sched)

    def test_compact_works_in_sync_mode(self, journal_path):
        sched = make_scheduler()
        journal = SchedulerJournal(journal_path, snapshot_interval=None,
                                   mode="sync")
        journal.attach(sched)
        churn(sched, "a", cycles=50)
        assert journal.compact() is True
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == serialize_state(sched)
        journal.close()

    def test_compact_requires_attachment(self, journal_path):
        journal = SchedulerJournal(journal_path)
        with pytest.raises(JournalError, match="not attached"):
            journal.compact()

    def test_bad_compact_at_bytes(self, journal_path):
        with pytest.raises(JournalError, match="compact_at_bytes"):
            SchedulerJournal(journal_path, compact_at_bytes=0)

    def test_auto_compaction_trigger(self, journal_path):
        """The writer's quiescent-point byte trigger arms the compactor."""
        sched = make_scheduler()
        journal = SchedulerJournal(
            journal_path, snapshot_interval=32, compact_at_bytes=8192
        )
        journal.attach(sched)
        churn(sched, "a", cycles=300)
        deadline = time.time() + 10.0
        while journal.compactions == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert journal.compactions >= 1
        journal.close()
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == serialize_state(sched)

    def test_offline_compact_journal(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path, snapshot_interval=32) as journal:
            journal.attach(sched)
            churn(sched, "a", cycles=100)
        expected = serialize_state(sched)
        stats = compact_journal(journal_path)
        assert stats["bytes_after"] < stats["bytes_before"]
        assert stats["events_dropped"] > 0
        assert not os.path.exists(journal_path + ".compact")
        summary = journal_summary(journal_path)
        assert summary["snapshots"] == 1
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == expected

    def test_offline_compact_synthesizes_missing_snapshot(self, journal_path):
        """A journal that never snapshotted is replayed to produce one."""
        sched = make_scheduler()
        with SchedulerJournal(journal_path, snapshot_interval=None) as journal:
            journal.attach(sched)
            churn(sched, "a", cycles=50)
        stats = compact_journal(journal_path)
        assert stats["events_kept"] == 0
        assert stats["snapshots_dropped"] == 0
        assert journal_summary(journal_path)["snapshots"] == 1
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == serialize_state(sched)

    def test_offline_compact_synthesizes_from_its_one_scan(
        self, journal_path, monkeypatch
    ):
        """The synthesized snapshot is rebuilt from the reader compaction
        already holds: one validating scan of the file, not two."""
        sched = make_scheduler()
        with SchedulerJournal(journal_path, snapshot_interval=None) as journal:
            journal.attach(sched)
            churn(sched, "a", cycles=20)
        scans = []
        real_scan = JournalReader.scan

        def counting_scan(reader, *args, **kwargs):
            scans.append(reader.path)
            return real_scan(reader, *args, **kwargs)

        monkeypatch.setattr(JournalReader, "scan", counting_scan)
        compact_journal(journal_path)
        assert scans == [journal_path]

    def test_offline_compact_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            compact_journal(str(tmp_path / "nope.journal"))


class TestConcurrentCompaction:
    def test_producers_keep_appending_while_compaction_renames(
        self, journal_path
    ):
        """The churn gate: compaction must never stall or lose producers.

        Four producer threads hammer alloc/commit/release cycles while the
        background compactor repeatedly rewrites and renames the journal
        underneath them; every producer must finish without an error and
        the compacted journal must restore byte-identical to the live
        scheduler.
        """
        sched = make_scheduler(total=16 * GiB)
        journal = SchedulerJournal(
            journal_path, snapshot_interval=64, compact_at_bytes=8192
        )
        journal.attach(sched)
        errors = []

        def worker(container_id):
            try:
                churn(sched, container_id, cycles=150)
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"c{index}",))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        deadline = time.time() + 10.0
        while journal.compactions == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert journal.compactions >= 1  # compaction ran under churn
        journal.close()
        restored = restore(journal_path, clock=sched.test_clock)
        assert serialize_state(restored) == serialize_state(sched)
        restored.check_invariants()


class TestSerializeState:
    def test_serialize_is_json_clean(self, journal_path):
        sched = make_scheduler()
        sched.register_container("a", 1 * GiB)
        sched.request_allocation("a", 1, 100 * MiB)
        state = serialize_state(sched)
        assert json.loads(json.dumps(state)) == state

    def test_summary_shape(self, journal_path):
        sched = make_scheduler()
        with SchedulerJournal(journal_path) as journal:
            journal.attach(sched)
            sched.register_container("a", 1 * GiB)
            sched.request_allocation("a", 1, 100 * MiB)
        summary = journal_summary(journal_path)
        assert summary["event_counts"] == {
            "AllocationGranted": 1, "ContainerRegistered": 1,
        }
        assert summary["torn_lines"] == 0
        assert os.path.basename(summary["path"]) == "scheduler.journal"
