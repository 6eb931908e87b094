"""Write-ahead journal + crash recovery for the GPU memory scheduler.

The paper's daemon keeps every reservation in process memory: kill it and
every container's wrapper blocks forever while the bookkeeping that maps
reservations to containers evaporates.  This module makes the scheduler
crash-recoverable:

- every :class:`~repro.core.scheduler.events.SchedulerEvent` is appended to
  an on-disk journal *before the decision's reply leaves the daemon*
  (classic WAL ordering);
- every ``snapshot_interval`` events a **compacted snapshot** — the full
  serialized scheduler state — is interleaved, bounding replay time;
- :func:`restore` rebuilds a scheduler from the newest snapshot plus the
  event tail, byte-identical to the pre-crash state (verified by the
  crash-consistency property suite in ``tests/core/test_journal_properties.py``):
  one validating scan of the file, one snapshot load, and a replay of only
  the events that snapshot does not cover.

**Group commit** (the default, ``mode="group"``): the scheduler's lock is
never held across disk I/O.  The event-log listener only *enqueues* the
event — a list append under a condition variable.  The runtime facade
calls :meth:`SchedulerJournal.wait_durable` after releasing the scheduler
lock and before any reply leaves, and the first waiter that finds records
queued and no write in progress becomes the **leader**: it takes the whole
queue and writes it with one ``write`` + ``flush`` (+ one ``fsync`` when
enabled) on its own thread, in strict enqueue order, while waiters that
arrive meanwhile follow — they sleep until a leader has made their records
durable, or lead the next write themselves.  No thread exists for the
journal; the WAL guarantee is unchanged while concurrent transitions share
a single flush instead of serializing on it
(``benchmarks/test_bench_ablation_journal.py`` measures the difference;
``mode="sync"`` keeps the seed's write-under-the-lock behaviour as the
ablation baseline).  The daemon's dispatch turn leans on the same
machinery: every frame of a turn runs inside one ``begin_batch`` /
``commit_batch`` bracket on the scheduler facade, which defers the
``wait_durable`` to the bracket's end — the whole turn rides one leader
write, and every reply in it still leaves only after the events it
depends on are durable.  A failed write is fail-stop: the leader and every
follower of that write raise, and so does every later ``wait_durable``.

Interval snapshots are taken only at **quiescent points**: when its
write reaches the interval, the leader briefly takes the scheduler lock
with the queue drained — so the serialized state exactly matches the
journal position — and writes the snapshot after the drained records, in
the same write and fsync, *outside* that lock.  ``mode="sync"``
writes in the listener itself; its interval snapshot is taken in
:meth:`SchedulerJournal.wait_durable`, the first call after a
transition's last event, and is serialized *and* written under the
scheduler lock.  In neither mode does a snapshot land
between two events of one transition — every verb applies its events as
it emits them, so a snapshot there would already contain the events that
are journaled after it.

**Compaction** (DESIGN.md §14): snapshots bound *replay*, but the file
itself grows with total history.  :meth:`SchedulerJournal.compact`
rewrites the journal down to ``meta + newest snapshot + event tail``
through a fsynced sidecar (``<path>.compact``) and one atomic
``os.rename``, then re-opens the live append handle — producers and the
leader never pause, because the only serialization point is the
journal's internal ``_io_lock`` (file-handle I/O), which the scheduler
lock never nests inside.  Compaction runs in three places: a background
compactor thread armed from the leader's quiescent points when the file
outgrows ``compact_at_bytes``; an explicit :meth:`compact` call; and the
offline :func:`compact_journal` (the ``repro compact`` CLI) for journals
with no live daemon.  A half-written sidecar is invisible to recovery —
the live journal is authoritative until the rename — and a stale sidecar
left by a crash is removed on the next :meth:`attach`.

Replay never re-runs the scheduling *policy*: derived decisions
(``MemoryAssigned``, ``ReservationReclaimed``, resumes) are applied
verbatim from the journal via
:meth:`~repro.core.scheduler.state.SchedulerState.apply_event`, so
recovery is deterministic even under the Random policy.

What intentionally does **not** survive a crash:

- withheld reply callbacks (``PendingAllocation.resume``) — they wrap dead
  sockets.  Restored pending entries are *orphans*; when the wrapper
  reconnects and re-issues its request, ``request_allocation`` adopts the
  orphan instead of double-queueing (see ``state.py``);
- event-log history older than the newest snapshot (state is exact, the
  Fig. 8 timeline before the snapshot is compacted away).  It does not
  survive in the *live* scheduler either: taking a snapshot drops the
  in-memory log entries it covers, so ``scheduler.log`` of a journaled
  scheduler is the events since the newest snapshot on both sides of a
  crash, and a daemon's memory does not grow with its uptime.

Journal format: one JSON object per line (same framing discipline as the
wire protocol).  ``{"kind": "meta"}`` opens the file and pins the scheduler
configuration; ``{"kind": "event"}`` records one scheduler event;
``{"kind": "snapshot"}`` holds a compacted state.  An *unterminated* final
line — the expected artifact of a crash mid-write — is detected and
dropped (and truncated away on re-attach, so new appends never concatenate
onto the fragment).  A *terminated* unparseable line is real corruption
and raises: a crash cannot manufacture a complete line of garbage ending
in a newline.  All reading is streaming (:class:`JournalReader`): neither
:func:`restore`, :func:`journal_summary`, the compactions nor
:meth:`SchedulerJournal.attach` ever loads the whole file into memory, and
the first four share one validating scan (:meth:`JournalReader.scan`), so
"find the newest snapshot" and every check on the way to it are written
once.  The scan puts *every* complete line through the line checks
(framing, UTF-8, JSON, a dict of a known ``kind``, ``meta`` first and only
once) and every event line through the two record checks (known type, all
fields present); building the typed event and applying it are computation,
not checks, and happen only for the events after the newest snapshot —
exactly the ones that survive a compaction.

Every line is parsed by one decoder, :func:`_decode_line`: the C scanner
called directly, its result taken only when the parse ends exactly at the
line's newline, and the reference ``json.JSONDecoder().decode`` for every
other line — so what is accepted, and every error message, is the
reference decoder's.  The scan walks the lines itself and checks an event
with one subset test against :data:`EVENT_FIELD_SETS`; what a line costs
is then a UTF-8 decode, one ``scan_once`` (about 80 % of it, the floor for
parsing every line) and a few dict operations.  What is left to gain is
CPUs: a journal of a MiB or more is cut into byte ranges that forked
children scan beside this process (:mod:`repro.fanout`), and their
findings are added up in file order (DESIGN.md §14).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import threading
import time
from functools import partial
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, TextIO

from repro import fanout
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.events import (
    AllocationAborted,
    AllocationCommitted,
    AllocationGranted,
    AllocationPaused,
    AllocationRejected,
    AllocationReleased,
    AllocationResumed,
    ContainerClosed,
    ContainerRegistered,
    MemoryAssigned,
    ProcessExited,
    ReservationReclaimed,
    SchedulerEvent,
)
from repro.core.scheduler.policies import SchedulingPolicy, make_policy
from repro.errors import JournalError
from repro.obs.metrics import DURATION_BUCKETS, LATENCY_BUCKETS, REGISTRY
from repro.obs.recorder import RECORDER

# Flight-recorder events (module alias: the obs-overhead bench stub idiom).
_REC = RECORDER
_EV_FLUSH = RECORDER.declare(
    "journal.flush", a="items", b="fsync", x="seconds"
)
_EV_SNAPSHOT = RECORDER.declare("journal.snapshot")
_EV_COMPACT = RECORDER.declare(
    "journal.compact", a="bytes_before", b="bytes_after", x="seconds"
)
_EV_COMPACT_FAILED = RECORDER.declare("journal.compact_failed", s="error")

_APPEND_SECONDS = REGISTRY.histogram(
    "convgpu_journal_append_seconds",
    "Wall time of one journal append batch (serialize + write + flush + fsync)",
    buckets=LATENCY_BUCKETS,
)
_FSYNC_SECONDS = REGISTRY.histogram(
    "convgpu_journal_fsync_seconds",
    "Wall time of the fsync portion of journal appends (fsync=True only)",
    buckets=LATENCY_BUCKETS,
)
_COMPACTIONS = REGISTRY.counter(
    "convgpu_journal_compactions_total",
    "Journal compactions completed (sidecar rewrite + atomic rename)",
)
_COMPACT_FAILURES = REGISTRY.counter(
    "convgpu_journal_compaction_failures_total",
    "Journal compactions that failed before the rename (journal intact)",
)
_COMPACT_SECONDS = REGISTRY.histogram(
    "convgpu_journal_compaction_seconds",
    "Wall time of one journal compaction (snapshot + rewrite + rename + reopen)",
    buckets=DURATION_BUCKETS,
)
_JOURNAL_BYTES = REGISTRY.gauge(
    "convgpu_journal_size_bytes",
    "Live journal file size, sampled at the leader's quiescent points",
)

__all__ = [
    "JOURNAL_VERSION",
    "JournalReader",
    "SchedulerJournal",
    "compact_journal",
    "encode_event",
    "decode_event",
    "serialize_state",
    "restore",
    "read_journal",
    "read_meta",
    "journal_summary",
    "inspect_journal",
]

JOURNAL_VERSION = 1

#: Sidecar suffix for the compaction rewrite (``<journal>.compact``).
COMPACT_SUFFIX = ".compact"

#: Bytes one ``os.pread`` of the validating scan reads: what a stripe holds
#: of the file at once, whatever the file's size.
_PIECE_BYTES = 1 << 16

#: Bytes after the meta line a scan needs before it forks: a stripe in a
#: child costs about 6 ms of fork and pickle, and saves what this process
#: would spend scanning it, about 15 ms a MiB (DESIGN.md §14).
_STRIPE_MIN_BYTES = 1 << 20

#: Event-type registry for the codec (name -> dataclass).
EVENT_TYPES: dict[str, type[SchedulerEvent]] = {
    cls.__name__: cls
    for cls in (
        ContainerRegistered,
        AllocationGranted,
        AllocationPaused,
        AllocationResumed,
        AllocationRejected,
        AllocationCommitted,
        AllocationReleased,
        AllocationAborted,
        MemoryAssigned,
        ReservationReclaimed,
        ProcessExited,
        ContainerClosed,
    )
}

#: Each event type's field names in dataclass order — a record's key order
#: on disk and the constructor's positional order.  Both directions of the
#: codec run off this one table, compiled at import.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    name: tuple(field.name for field in dataclasses.fields(cls))
    for name, cls in EVENT_TYPES.items()
}

#: The same field names as sets: the validating scan's record check is one
#: subset test per event line (:func:`_event_fields` gives the diagnostic).
EVENT_FIELD_SETS: dict[str, frozenset[str]] = {
    name: frozenset(fields) for name, fields in EVENT_FIELDS.items()
}

# One encoder for every line the journal writes, built once: the spelling of
# ``json.dumps(record, separators=(",", ":"))``, which builds a C encoder per
# call.  No cycle markers: every record is a fresh tree of dicts, lists and
# scalars (a flat event, the meta dict, a ``serialize()`` snapshot), so it
# cannot hold a cycle, and a shared markers dict would be mutable state
# shared by every thread that leads a journal write.
if json.encoder.c_make_encoder is not None:
    _c_encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ":", ",", False, False, True,
    )

    def _encode_json(record: dict[str, Any]) -> str:
        return "".join(_c_encode(record, 0))

else:  # an interpreter without the ``_json`` accelerator
    _encode_json = json.JSONEncoder(separators=(",", ":")).encode

# The reference decoder, and its scanner called directly: see _decode_line.
_DECODER = json.JSONDecoder()
_decode_json = _DECODER.decode
_scan_once = json.scanner.make_scanner(_DECODER)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def encode_event(event: SchedulerEvent) -> dict[str, Any]:
    """One event as a journal record (plain JSON types only)."""
    name = type(event).__name__
    fields = EVENT_FIELDS.get(name)
    if fields is None:
        raise JournalError(f"unknown event type {name!r}")
    record = {"kind": "event", "event": name}
    for field in fields:  # every event field is a scalar: nothing to copy
        record[field] = getattr(event, field)
    return record


def _event_fields(record: dict[str, Any]) -> tuple[str, ...]:
    """The two record checks: a known event type with every field present.

    Returns the type's field names.  :func:`decode_event` runs this before
    it builds the event; the validating scan runs the same checks as one
    subset test and calls this only for the diagnostic of a line that fails.
    """
    name = record.get("event")
    fields = EVENT_FIELDS.get(name) if isinstance(name, str) else None
    if fields is None:
        raise JournalError(f"journal record has unknown event type {name!r}")
    for field in fields:
        if field not in record:
            missing = sorted(f for f in fields if f not in record)
            raise JournalError(f"{name} record missing fields {missing}")
    return fields


def decode_event(record: dict[str, Any]) -> SchedulerEvent:
    """Rebuild the typed event from a journal record."""
    fields = _event_fields(record)
    return EVENT_TYPES[record["event"]](*[record[field] for field in fields])


def serialize_state(scheduler: GpuMemoryScheduler) -> dict[str, Any]:
    """Full scheduler state as plain JSON types (snapshot payload).

    Locks the runtime facade for one consistent read, then delegates to
    the pure core's :meth:`~repro.core.scheduler.state.SchedulerState.
    serialize`.
    """
    with scheduler._lock:
        return scheduler.state.serialize()


def _snapshot_and_trim(scheduler: GpuMemoryScheduler) -> dict[str, Any]:
    """Serialize the state and drop the log entries the snapshot covers.

    Caller holds the scheduler lock.  :func:`restore` replays only the
    events after the newest snapshot, so trimming here keeps one rule on
    both sides — the log of a journaled scheduler is *the events since the
    newest snapshot* — and a daemon's memory bounded by ``snapshot_interval``.
    """
    state = scheduler.state.serialize()
    scheduler.log.events.clear()
    return state


# ---------------------------------------------------------------------------
# the streaming reader
# ---------------------------------------------------------------------------


class JournalReader:
    """Read a journal line by line through one open handle, never slurping it.

    Iterating yields one decoded record dict per *complete* line (meta
    included).  Crash-vs-corruption semantics:

    - an **unterminated** final line is the expected artifact of a crash
      mid-append: it is dropped, counted in :attr:`torn`, and iteration
      ends;
    - a **terminated** unparseable line is real corruption (a crash cannot
      append a newline to garbage it never finished writing) and raises
      :class:`~repro.errors.JournalError` wherever it sits in the file.

    :attr:`offset` is the byte position of the record the consumer holds,
    and moves past it when the consumer comes back for the next one: a
    loop that runs out leaves it just past the last complete line, a loop
    that breaks leaves it on the record it stopped at.  Either way it is
    the cut point — every byte before it is covered by the records
    consumed, every byte at or after it is the delta to carry over
    verbatim.

    :meth:`scan` is the one validating pass :func:`restore`, both
    compactions and :func:`journal_summary` share; :meth:`tail` and
    :meth:`copy_tail` then re-read only ``[newest snapshot, offset)``
    through the same handle, so a compaction's rename between the two
    reads cannot mix two files.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.torn = 0
        self.offset = 0
        #: Raw bytes (newline included) of the record last yielded.
        self.raw: bytes = b""
        # What scan() learned (counts are up to the failing line if it raised).
        self.meta: dict[str, Any] | None = None
        self.meta_raw: bytes = b""
        #: Byte offset of the newest snapshot record, ``None`` without one.
        self.snapshot_at: int | None = None
        self.snapshots = 0
        self.events = 0
        #: Events after the newest snapshot: what a restore has to replay.
        self.replayed = 0
        self.event_counts: dict[str, int] = {}
        try:
            self._fh: BinaryIO | None = open(path, "rb")
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JournalReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _corrupt(self, lineno: int, exc: ValueError) -> JournalError:
        return JournalError(f"corrupt journal {self.path} at line {lineno}: {exc}")

    def __iter__(self) -> Iterator[dict[str, Any]]:
        fh = self._fh
        if fh is None:
            raise JournalError(f"journal reader for {self.path} is closed")
        for lineno, raw in enumerate(fh, 1):
            if not raw.endswith(b"\n"):
                # Unterminated tail: crash mid-append; drop and stop.
                self.torn = 1
                return
            try:
                record = _decode_line(raw)
            except ValueError as exc:
                raise self._corrupt(lineno, exc) from exc
            self.raw = raw
            yield record
            self.offset += len(raw)

    def scan(self, event_limit: int | None = None) -> None:
        """Validate every complete line and find the newest snapshot.

        On top of iteration's per-line checks: ``meta`` is the first record,
        the only one and of this version, every other record is an event or
        a snapshot, and every event passes the two record checks (a known
        type with all of :data:`EVENT_FIELD_SETS`' fields present).  No
        event is built, nothing is applied and nothing is kept but the meta
        record, :attr:`snapshot_at` and the counts, so memory is flat in
        journal size.  Stops at the end of the file as it was when the scan
        began, or on the ``(event_limit + 1)``-th event — a snapshot between
        the N-th event and that one still counts — and leaves :attr:`offset`
        there.  A failed check raises with the counts up to its line in
        place.

        The meta line is read through iteration.  The bytes after it are cut
        into byte ranges just after a newline, one per CPU
        (:func:`repro.fanout.width`, from :data:`_STRIPE_MIN_BYTES` bytes a
        range), each scanned by :func:`_scan_stripe` — this process's own
        range here, the others in forked children — through ``os.pread``
        on this reader's one descriptor, and the findings are added up in
        file order: the attributes, the error and the counts before it are
        the one-range scan's.  One range, in this process, for a short
        file, with an ``event_limit``, on one CPU or while another thread
        is alive.
        """
        first = next(iter(self), None)
        if first is None or first["kind"] != "meta":
            raise JournalError(
                f"journal {self.path} has no meta record on its first line"
            )
        self.meta, self.meta_raw = first, self.raw
        if first.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self.path} version {first.get('version')!r} "
                f"!= {JOURNAL_VERSION}"
            )
        fd = self._fh.fileno()
        start, stop = self.offset + len(self.meta_raw), os.fstat(fd).st_size
        width = 1
        if event_limit is None and stop - start >= _STRIPE_MIN_BYTES:
            width = fanout.width((stop - start) // _STRIPE_MIN_BYTES)
        spans = _spans(fd, start, stop, width)
        stripes = fanout.fan_out(
            partial(_scan_stripe, fd, self.path, event_limit), spans, len(spans)
        )
        counts = self.event_counts
        lineno = 2
        for stripe in stripes:
            self.events += stripe.events
            self.snapshots += stripe.snapshots
            if stripe.snapshot_at is None:
                self.replayed += stripe.replayed
            else:
                self.snapshot_at, self.replayed = stripe.snapshot_at, stripe.replayed
            for name, count in stripe.event_counts.items():
                counts[name] = counts.get(name, 0) + count
            self.offset, self.torn = stripe.stop, stripe.torn
            lineno += stripe.lines
            fault = stripe.fault
            if isinstance(fault, JournalError):
                raise fault
            if fault is not None:
                raise self._corrupt(lineno, fault) from fault

    def tail(self) -> Iterator[dict[str, Any]]:
        """After :meth:`scan`: the records a restore applies, re-read.

        The newest snapshot's record, when there is one, then the events
        between it and where the scan stopped — every event of a journal
        that never snapshotted.
        """
        stop = self.offset
        start = len(self.meta_raw) if self.snapshot_at is None else self.snapshot_at
        self._fh.seek(start)
        self.offset = start
        for record in self:
            if self.offset >= stop:
                return
            yield record

    def copy_tail(self, out: BinaryIO) -> None:
        """After :meth:`scan`: byte-copy ``[newest snapshot, offset)`` to ``out``."""
        _copy_bytes(self._fh, out, self.snapshot_at, self.offset)


def _decode_line(raw: bytes) -> dict[str, Any]:
    """One complete journal line, its newline included, as its record.

    The one line decoder every read shares.  The fast path calls the C
    scanner (``json.scanner.make_scanner``) directly and takes its result
    only when the parse ends exactly at the line's newline; every other
    line (leading or trailing whitespace, a ``\\r\\n`` ending, a second
    value, trailing garbage, an empty line, anything the scanner refuses)
    goes through the reference ``JSONDecoder().decode``, so the verdict and
    every error message are the reference's.  The fast path skips that
    wrapper's two regex whitespace matches per line.  Raises ``ValueError``
    (``UnicodeDecodeError`` and ``JSONDecodeError`` included) for a line
    that is not a dict with a ``kind``.
    """
    text = raw.decode("utf-8")
    try:
        record, end = _scan_once(text, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(text) - 1:
        record = _decode_json(text)
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError(f"not a journal record: {record!r}")
    return record


class _Stripe(NamedTuple):
    """What :func:`_scan_stripe` found in its byte range, up to its fault."""

    #: Complete lines that passed every check.
    lines: int
    events: int
    snapshots: int
    #: Byte offset of the range's newest snapshot, ``None`` without one.
    snapshot_at: int | None
    #: Events after that snapshot: every event of a range without one.
    replayed: int
    event_counts: dict[str, int]
    #: Where the scan stopped: just past its last line that passed.
    stop: int
    #: 1 when the range ends in an unterminated line (only the file's last
    #: range can).
    torn: int
    #: Why the line after :attr:`lines` failed: the ``ValueError`` of a line
    #: that did not decode, or the ``JournalError`` of a check that refused it.
    fault: Exception | None


def _scan_stripe(
    fd: int, path: str, event_limit: int | None, span: tuple[int, int]
) -> _Stripe:
    """The validating scan's checks on every line of ``span``, a byte range
    of a journal's records after its meta line that starts a line.

    Reads with ``os.pread`` (:func:`_line_batches`), so it never moves the
    descriptor's offset and runs the same in a forked child.  Stops at the
    first line that fails a check, and on the ``(event_limit + 1)``-th
    event.
    """
    offset, stop = span
    counts: dict[str, int] = {}
    required = EVENT_FIELD_SETS
    lines = events = replayed = snapshots = torn = 0
    snapshot_at: int | None = None
    fault: Exception | None = None
    for batch in _line_batches(fd, offset, stop):
        for raw in batch:
            if not raw.endswith(b"\n"):
                # Unterminated tail: crash mid-append; drop and stop.
                torn = 1
                break
            try:
                record = _decode_line(raw)
            except ValueError as exc:
                fault = exc
                break
            kind = record["kind"]
            if kind == "event":
                if events == event_limit:
                    break
                name = record.get("event")
                try:
                    complete = record.keys() >= required[name]
                except (KeyError, TypeError):  # unknown or unhashable type
                    complete = False
                if not complete:
                    try:
                        _event_fields(record)  # raises the diagnostic
                    except JournalError as exc:
                        fault = exc
                        break
                counts[name] = counts.get(name, 0) + 1
                events += 1
                replayed += 1
            elif kind == "snapshot":
                snapshot_at = offset
                snapshots += 1
                replayed = 0
            elif kind == "meta":
                fault = JournalError(f"duplicate meta record in {path}")
                break
            else:
                fault = JournalError(f"unknown journal record kind {kind!r} in {path}")
                break
            lines += 1
            offset += len(raw)
        else:
            continue
        break
    return _Stripe(
        lines, events, snapshots, snapshot_at, replayed, counts, offset, torn, fault
    )


def _line_batches(fd: int, start: int, stop: int) -> Iterator[list[bytes]]:
    """The lines of ``[start, stop)``, newline kept, split on ``\\n`` only:
    one list per ``os.pread`` of at most :data:`_PIECE_BYTES` that ends a
    line.  Only the last line of the last list can be unterminated."""
    pending: list[bytes] = []
    while start < stop:
        piece = os.pread(fd, min(_PIECE_BYTES, stop - start), start)
        if not piece:
            break
        start += len(piece)
        cut = piece.rfind(b"\n") + 1
        if not cut:  # a line longer than a piece
            pending.append(piece)
            continue
        pending.append(piece[:cut])
        yield io.BytesIO(b"".join(pending)).readlines()
        pending = [piece[cut:]]
    rest = b"".join(pending)
    if rest:
        yield [rest]


def _spans(fd: int, start: int, stop: int, width: int) -> list[tuple[int, int]]:
    """``[start, stop)`` cut into at most ``width`` byte ranges of about the
    same size, every cut just after a newline, so each range starts a line."""
    cuts = [start]
    for index in range(1, width):
        at = max(cuts[-1], start + (stop - start) * index // width)
        while at < stop:
            piece = os.pread(fd, min(_PIECE_BYTES, stop - at), at)
            if not piece:
                at = stop
                break
            newline = piece.find(b"\n")
            if newline >= 0:
                at += newline + 1
                break
            at += len(piece)
        if at >= stop:
            break
        cuts.append(at)
    cuts.append(stop)
    return list(zip(cuts, cuts[1:]))


def _copy_bytes(src: BinaryIO, dst: BinaryIO, start: int, stop: int) -> None:
    """Copy ``src[start:stop]`` in bounded chunks."""
    src.seek(start)
    while start < stop:
        chunk = src.read(min(1 << 20, stop - start))
        if not chunk:
            break
        dst.write(chunk)
        start += len(chunk)


def read_meta(path: str) -> dict[str, Any] | None:
    """The journal's meta record: its first complete line, and no further.

    Returns ``None`` when the file holds no complete line (empty, or a
    crash tore the meta write itself).  A first line that is anything but
    ``meta`` raises :class:`~repro.errors.JournalError` — the refusal
    :meth:`JournalReader.scan` makes at restore, made before anything is
    appended to a file no restore could read.
    """
    with JournalReader(path) as reader:
        first = next(iter(reader), None)
    if first is not None and first["kind"] != "meta":
        raise JournalError(f"journal {path} has no meta record on its first line")
    return first


def _truncate_torn_tail(path: str) -> int:
    """Chop an unterminated final line left by a crash mid-append.

    Returns the number of bytes dropped.  Appending to a journal whose
    last line is torn would concatenate the first new record onto the
    fragment, turning a tolerated crash artifact into mid-file corruption
    — so :meth:`SchedulerJournal.attach` truncates before reopening.
    """
    try:
        if os.path.getsize(path) == 0:
            return 0
    except OSError:
        return 0
    with open(path, "rb+") as fh:
        fh.seek(0, os.SEEK_END)
        end = fh.tell()
        fh.seek(end - 1)
        if fh.read(1) == b"\n":
            return 0
        # Scan backwards in chunks for the last newline; everything after
        # it is the torn fragment.
        cut = 0
        pos = end
        while pos > 0:
            step = min(65536, pos)
            fh.seek(pos - step)
            chunk = fh.read(step)
            newline = chunk.rfind(b"\n")
            if newline != -1:
                cut = pos - step + newline + 1
                break
            pos -= step
        fh.truncate(cut)
        return end - cut


def _fsync_dir(directory: str) -> None:
    """fsync a directory so a rename inside it survives power loss."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds
    try:
        os.fsync(fd)
    except OSError:
        pass  # lint: fsync on a directory fd is advisory on some filesystems
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# the live journal
# ---------------------------------------------------------------------------


class SchedulerJournal:
    """Append-only on-disk journal subscribed to a scheduler's event log.

    Args:
        path: journal file (created on first attach).
        snapshot_interval: events between compacted snapshots; ``None``
            disables interval snapshots (pure event log — what the
            property tests use so every prefix is replayable).
        fsync: force data to the platters on every append batch.  Off by
            default: the reproduction favours test throughput, a production
            deploy flips it on for durability across power loss (the write
            is still flushed to the OS either way, so it survives a process
            SIGKILL — the failure mode PR 1 defends against).
        mode: ``"group"`` (default) queues appends for the leader of the
            next group commit (:meth:`wait_durable`), so no disk I/O
            happens under the scheduler lock; ``"sync"`` writes
            synchronously inside the event-log listener — the seed
            behaviour, kept as the ablation baseline.
        compact_at_bytes: arm the background compactor (group mode only)
            when the live file exceeds this many bytes at a leader's
            quiescent point; ``None`` (default) disables auto-compaction.
            :meth:`compact` can always be called explicitly.
    """

    def __init__(
        self,
        path: str,
        *,
        snapshot_interval: int | None = 256,
        fsync: bool = False,
        mode: str = "group",
        compact_at_bytes: int | None = None,
    ) -> None:
        if snapshot_interval is not None and snapshot_interval < 1:
            raise JournalError(
                f"snapshot_interval must be >= 1 or None: {snapshot_interval}"
            )
        if mode not in ("group", "sync"):
            raise JournalError(f"unknown journal mode {mode!r}")
        if compact_at_bytes is not None and compact_at_bytes < 1:
            raise JournalError(
                f"compact_at_bytes must be >= 1 or None: {compact_at_bytes}"
            )
        self.path = path
        self.snapshot_interval = snapshot_interval
        self.fsync = fsync
        self.mode = mode
        self.compact_at_bytes = compact_at_bytes
        self._fh: TextIO | None = None
        self._scheduler: GpuMemoryScheduler | None = None
        self._events_since_snapshot = 0
        #: Appended event count this process lifetime (observability).
        self.events_written = 0
        #: Completed compactions this process lifetime (observability).
        self.compactions = 0
        # Group-commit machinery.  Lock ordering: scheduler lock, then
        # ``_cond`` — producers enqueue under both; the leader's quiescent
        # snapshot acquires them in the same order; never the reverse.
        self._cond = threading.Condition()
        self._queue: list[tuple[str, Any]] = []  # ("event", ev) | ("snapshot", st)
        self._enqueued = 0
        self._durable = 0
        #: True while one waiter writes the queue it took (the leader).
        self._leading = False
        #: The first failed write: every later wait raises it (fail-stop).
        self._error: Exception | None = None
        # Compaction machinery.  ``_io_lock`` serializes file-handle I/O
        # (leader writes vs the compactor's rename + reopen); it is a
        # leaf lock: nothing else is ever acquired inside it, and the
        # scheduler lock never nests around it on the producer path
        # (producers only touch ``_cond``).
        self._io_lock = threading.Lock()
        self._compact_mutex = threading.Lock()  # one compaction at a time
        self._compact_event = threading.Event()
        self._compact_stop = False
        self._compactor: threading.Thread | None = None
        # Size after the last compaction: the auto-trigger requires the
        # file to double past this floor so a live state larger than
        # ``compact_at_bytes`` cannot thrash the compactor.
        self._compact_floor = 0

    # -- lifecycle ----------------------------------------------------------

    def attach(self, scheduler: GpuMemoryScheduler, *, compact: bool = False) -> None:
        """Subscribe to ``scheduler`` and start journaling its events.

        A fresh (empty) journal gets a ``meta`` record pinning the
        scheduler's configuration; attaching an incompatible scheduler to
        an existing journal raises.  With ``compact=True`` (the recovery
        path) a snapshot of the current state is written immediately.  In
        group mode with ``compact_at_bytes`` the compactor thread starts
        here, after the meta and initial-snapshot writes.

        Re-attach hygiene: a stale ``<path>.compact`` sidecar (crash mid-
        compaction) is deleted — the live journal is authoritative until
        the rename — and an unterminated torn tail is truncated so new
        appends start on a fresh line.  Only the first line is read, and a
        journal whose first line is not ``meta`` is refused before the file
        is touched; attach cost is O(1) in journal size.
        """
        if self._scheduler is not None:
            raise JournalError(f"journal {self.path} already attached")
        sidecar = self.path + COMPACT_SUFFIX
        if os.path.exists(sidecar):
            os.remove(sidecar)
        existing_meta = None
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            existing_meta = read_meta(self.path)
            _truncate_torn_tail(self.path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._scheduler = scheduler
        if existing_meta is None:
            meta = {
                "kind": "meta",
                "version": JOURNAL_VERSION,
                "total_memory": scheduler.total_memory,
                "policy": scheduler.policy.name,
                "context_overhead": scheduler.context_overhead,
                "resume_mode": scheduler.resume_mode,
            }
            self._write_items([("meta", meta)])
            if self.fsync:
                # The file is new: its directory entry is durable only once
                # the directory is, or a power loss could drop the whole
                # journal under decisions it already made durable.
                _fsync_dir(directory)
        else:
            self._check_meta(existing_meta, scheduler)
        # On the sequence counter, not the records: a state whose
        # containers all exited holds none, and a snapshot already trimmed
        # its log, yet ``created_seq`` must carry on from where it stands.
        needs_snapshot = compact or (existing_meta is None and scheduler.state.seq)
        if needs_snapshot:
            self.write_snapshot()
        scheduler.log.listeners.append(self.record)
        scheduler.journal = self
        if self.mode == "group" and self.compact_at_bytes is not None:
            self._compact_stop = False
            self._compact_event.clear()
            self._compactor = threading.Thread(
                target=self._run_compactor,
                name="journal-compactor",
                daemon=True,
            )
            self._compactor.start()

    @staticmethod
    def _check_meta(meta: dict[str, Any], scheduler: GpuMemoryScheduler) -> None:
        mismatches = [
            (key, expected, actual)
            for key, expected, actual in (
                ("total_memory", meta.get("total_memory"), scheduler.total_memory),
                ("policy", meta.get("policy"), scheduler.policy.name),
                (
                    "context_overhead",
                    meta.get("context_overhead"),
                    scheduler.context_overhead,
                ),
                ("resume_mode", meta.get("resume_mode"), scheduler.resume_mode),
            )
            if expected != actual
        ]
        if mismatches:
            detail = ", ".join(
                f"{key}: journal={expected!r} scheduler={actual!r}"
                for key, expected, actual in mismatches
            )
            raise JournalError(f"journal/scheduler configuration mismatch: {detail}")

    def close(self) -> None:
        """Detach, stop the compactor, write what is queued, close the file.

        Order matters: the compactor goes first (an in-flight compaction
        waits for its snapshot through :meth:`wait_durable`), then this
        thread leads one last write of whatever no waiter asked for — not
        after a failed write, whose records stay off the disk — then the
        handle closes under ``_io_lock``.
        """
        if self._scheduler is not None:
            try:
                self._scheduler.log.listeners.remove(self.record)
            except ValueError:
                pass
            if getattr(self._scheduler, "journal", None) is self:
                self._scheduler.journal = None
        compactor = self._compactor
        if compactor is not None:
            self._compact_stop = True
            self._compact_event.set()
            compactor.join()
            self._compactor = None
        try:
            if self.mode == "group" and self._fh is not None and self._error is None:
                self.wait_durable()
        finally:
            self._scheduler = None
            if self._fh is not None:
                with self._io_lock:
                    self._fh.close()
                    self._fh = None

    def __enter__(self) -> "SchedulerJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- appends ------------------------------------------------------------

    def record(self, event: SchedulerEvent) -> None:
        """EventLog listener (called under the scheduler lock): one event.

        Group mode: enqueue only — a list append; the next leader of
        :meth:`wait_durable` does the disk I/O.  Sync mode: the seed's
        behaviour, write + flush (+ fsync) right here under the lock.  Never
        a snapshot: the listener runs *between* the events of one
        transition, whose state already holds all of them (see
        :meth:`wait_durable`).
        """
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        if self.mode == "sync":
            self._write_items([("event", event)])
            return
        with self._cond:
            self._enqueued += 1
            self._queue.append(("event", event))

    def wait_durable(self) -> None:
        """Block until everything enqueued so far is written and flushed.

        The runtime facade calls this *after* releasing the scheduler lock
        and before any reply leaves — the group-commit half of the WAL
        ordering guarantee.  The caller that finds records queued and no
        leader becomes the leader (:meth:`_lead`): it writes the whole
        queue itself.  A caller that finds a leader writing follows: it
        sleeps until that write ends, then returns if it covered its
        records or leads the next one.  A failed write raises in the leader
        and in every follower, and in every later call: no reply may leave
        once the journal cannot make decisions durable.

        In sync mode appends were already durable when the listener
        returned; this call — the first point after a transition's last
        event — is where that mode takes its interval snapshot, so none
        ever lands between two events of one transition.
        """
        if self.mode == "sync":
            if self._snapshot_due() and self._scheduler is not None:
                self.write_snapshot()
            return
        with self._cond:
            target = self._enqueued
            while True:
                if self._error is not None:
                    raise self._error
                if self._durable >= target:
                    return
                if not self._leading:
                    break
                self._cond.wait()
            self._leading = True
            batch = self._queue
            self._queue = []
        self._lead(batch)

    def _lead(self, batch: list[tuple[str, Any]]) -> None:
        """The leader's write: ``batch`` (and a due interval snapshot).

        Runs with ``_leading`` set and no lock held, so producers keep
        enqueueing behind it.  The compaction trigger runs here too, after
        the write; a failure in any of it is recorded for every waiter and
        re-raised.
        """
        try:
            items, written = self._maybe_snapshot_at_quiescent_point(batch)
            self._write_items(items)
            self._maybe_request_compaction()
        except BaseException as exc:
            with self._cond:
                self._error = (
                    exc
                    if isinstance(exc, Exception)
                    else JournalError(f"journal write interrupted: {exc!r}")
                )
                self._leading = False
                self._cond.notify_all()
            raise
        with self._cond:
            self._durable += written
            self._leading = False
            self._cond.notify_all()

    def write_snapshot(self) -> None:
        """Append a compacted snapshot of the attached scheduler's state.

        The state is serialized under the scheduler lock *while taking
        its position in the write order* (so no event can slip between the
        two): in group mode that is the enqueue, and the call returns once
        a leader — usually this caller — made the snapshot durable; in
        ``mode="sync"`` it is the write.
        """
        scheduler = self._scheduler
        if scheduler is None:
            raise JournalError("journal not attached to a scheduler")
        with scheduler._lock:
            state = _snapshot_and_trim(scheduler)
            if self.mode == "sync":
                # reprolint: ignore[lock-discipline] -- mode="sync" is by
                # definition the journal that writes under the scheduler
                # lock (record() does too).
                self._write_items([("snapshot", state)])
                return
            with self._cond:
                self._enqueued += 1
                self._queue.append(("snapshot", state))
        self.wait_durable()

    # -- compaction ----------------------------------------------------------

    def compact(self) -> bool:
        """Rewrite the journal to ``meta + newest snapshot + event tail``.

        Safe to call from any thread while producers keep appending: the
        scan and sidecar write are lock-free (the journal is append-only,
        so every byte below the scan's stopping offset is immutable), and
        only the final swap — delta copy, rename, reopen — holds the
        journal's internal ``_io_lock``, briefly blocking the next leader's
        flush but never a producer (producers only enqueue
        under ``_cond``).  The scheduler lock is not held across any of
        this I/O.

        Returns ``True`` when a compaction ran, ``False`` when another one
        is already in flight.  Crash safety: the live journal is
        untouched until the atomic ``os.rename``; a half-written sidecar
        is simply deleted on the next attach.
        """
        if self._fh is None or self._scheduler is None:
            raise JournalError("journal not attached to a scheduler")
        if not self._compact_mutex.acquire(blocking=False):
            return False
        try:
            began = time.perf_counter()
            bytes_before = os.path.getsize(self.path)
            # A fresh quiescent snapshot makes the rewrite maximally
            # effective (the tail after it is empty or nearly so) and is
            # durable before the scan starts.
            self.write_snapshot()
            sidecar, offset = self._prepare_sidecar()
            self._swap_in(sidecar, offset)
            bytes_after = os.path.getsize(self.path)
            elapsed = time.perf_counter() - began
            self._compact_floor = bytes_after
            self.compactions += 1
            _COMPACTIONS.inc()
            _COMPACT_SECONDS.observe(elapsed)
            _JOURNAL_BYTES.set(bytes_after)
            _REC.record(
                _EV_COMPACT, a=bytes_before, b=bytes_after, x=elapsed
            )
            return True
        finally:
            self._compact_mutex.release()

    def _prepare_sidecar(self) -> tuple[str, int]:
        """Write ``meta + newest snapshot + tail`` to a fsynced sidecar.

        Scans the live journal with no lock held: the file is append-only,
        so every byte up to the scan's stopping offset is immutable.
        Returns ``(sidecar_path, offset)`` where ``offset`` is the first
        live-journal byte *not* covered by the sidecar — the start of the
        delta :meth:`_swap_in` carries over.
        """
        with JournalReader(self.path) as reader:
            reader.scan()
            if reader.snapshot_at is None:
                # compact() writes one first; reaching this means the journal
                # was swapped out from under us — abort, nothing was touched.
                raise JournalError(
                    f"journal {self.path} has no snapshot to compact to"
                )
            return _write_sidecar(reader), reader.offset

    def _swap_in(self, sidecar: str, offset: int) -> None:
        """Atomically replace the live journal with the prepared sidecar.

        Under ``_io_lock`` — so no leader can append mid-swap —
        the delta (bytes appended past ``offset`` since the scan; always
        whole lines, because batches flush under the same lock) is copied
        onto the sidecar and fsynced, the sidecar is ``os.rename``d over
        the live path (atomic within a filesystem), the directory entry is
        fsynced, and the append handle re-opens on the new file.  A crash
        before the rename leaves the old journal intact; after it, the new
        one — there is no window where recovery sees neither.
        """
        with self._io_lock:
            if self._fh is None:
                raise JournalError(f"journal {self.path} is closed")
            self._fh.flush()
            with open(self.path, "rb") as live, open(sidecar, "ab") as out:
                _copy_bytes(live, out, offset, os.fstat(live.fileno()).st_size)
                out.flush()
                os.fsync(out.fileno())
            os.rename(sidecar, self.path)
            _fsync_dir(os.path.dirname(self.path))
            old = self._fh
            self._fh = open(self.path, "a", encoding="utf-8")
            old.close()

    def _run_compactor(self) -> None:
        """Background compactor: waits for the leader's size trigger."""
        while True:
            self._compact_event.wait()
            if self._compact_stop:
                return
            self._compact_event.clear()
            try:
                self.compact()
            except (JournalError, OSError) as exc:
                # The live journal is untouched until the rename, so a
                # failed compaction is safe to retry at the next trigger.
                _COMPACT_FAILURES.inc()
                _REC.record(_EV_COMPACT_FAILED, s=type(exc).__name__)

    def _maybe_request_compaction(self) -> None:
        """Arm the compactor when the live file outgrows the threshold.

        Runs in the leader at quiescent points (after each write), with
        no lock held.  The ``2 × floor`` term keeps a
        live state bigger than ``compact_at_bytes`` from re-arming the
        compactor on every batch: each compaction must have had room to
        halve the file before the next one is worth anything.
        """
        if self.compact_at_bytes is None or self._compactor is None:
            return
        fh = self._fh
        if fh is None:
            return
        try:
            size = os.fstat(fh.fileno()).st_size
        except (OSError, ValueError):
            return
        _JOURNAL_BYTES.set(size)
        if size >= self.compact_at_bytes and size >= 2 * self._compact_floor:
            self._compact_event.set()

    def _write_items(self, items: list[tuple[str, Any]]) -> None:
        """The journal's one append routine: a batch of records, one flush.

        Serialize + write every item, one flush, one fsync — a leader's
        batch, and (as batches of one) the meta record and ``mode="sync"``
        events and snapshots.
        The file I/O holds ``_io_lock`` so a concurrent compaction swap
        cannot rename the file out from under a half-written batch, and so
        do the counters it moves: successive leaders are different threads.
        The serialization and metric observation stay outside it.
        """
        began = time.perf_counter()
        lines: list[str] = []
        snapshots = 0
        events = 0
        #: Events after the batch's last snapshot (all of them without one).
        tail = 0
        for kind, payload in items:
            if kind == "event":
                record = encode_event(payload)
                events += 1
                tail += 1
            elif kind == "snapshot":  # pre-serialized state
                record = {"kind": "snapshot", "state": payload}
                snapshots += 1
                tail = 0
            else:  # meta: the record as given
                record = payload
            lines.append(_encode_json(record) + "\n")
        data = "".join(lines)
        fsync_elapsed = 0.0
        with self._io_lock:
            if self._fh is None:
                raise JournalError(f"journal {self.path} is closed")
            self._fh.write(data)
            self._fh.flush()
            if self.fsync:
                fsync_began = time.perf_counter()
                os.fsync(self._fh.fileno())
                fsync_elapsed = time.perf_counter() - fsync_began
            self.events_written += events
            if snapshots:
                self._events_since_snapshot = tail
            else:
                self._events_since_snapshot += tail
        if self.fsync:
            _FSYNC_SECONDS.observe(fsync_elapsed)
        elapsed = time.perf_counter() - began
        _APPEND_SECONDS.observe(elapsed)
        _REC.record(
            _EV_FLUSH, a=len(items), b=1 if self.fsync else 0, x=elapsed
        )
        for _ in range(snapshots):
            _REC.record(_EV_SNAPSHOT)

    def _snapshot_due(self, pending: int = 0) -> bool:
        """Whether ``pending`` more records reach the snapshot interval."""
        return (
            self.snapshot_interval is not None
            and self._events_since_snapshot + pending >= self.snapshot_interval
        )

    def _maybe_snapshot_at_quiescent_point(
        self, batch: list[tuple[str, Any]]
    ) -> tuple[list[tuple[str, Any]], int]:
        """The leader's records to write: ``batch``, and when the interval
        is due, everything queued since and a snapshot after it.

        Quiescence: the scheduler lock is taken with the queue drained, so
        the serialized state corresponds exactly to the journal position
        after the drained records.  The lock is released before anything
        hits the disk — no I/O under the lock — and the snapshot rides the
        batch's own write and fsync.  Returns the records and how many of
        them are queued records (the snapshot is not one).
        """
        scheduler = self._scheduler
        if scheduler is None or not self._snapshot_due(len(batch)):
            return batch, len(batch)
        with scheduler._lock:
            with self._cond:
                drained = self._queue
                self._queue = []
            state = _snapshot_and_trim(scheduler)
        return batch + drained + [("snapshot", state)], len(batch) + len(drained)


# ---------------------------------------------------------------------------
# offline compaction (the `repro compact` CLI)
# ---------------------------------------------------------------------------


def _write_sidecar(reader: JournalReader, snapshot: bytes | None = None) -> str:
    """``meta + newest snapshot + event tail`` of a scanned journal, fsynced.

    The meta line, then a byte-range copy of ``[newest snapshot, scan
    stop)`` — or, for a journal that never snapshotted, the ``snapshot``
    line the caller synthesized.  Returns the sidecar's path.
    """
    sidecar = reader.path + COMPACT_SUFFIX
    with open(sidecar, "wb") as out:
        out.write(reader.meta_raw)
        if snapshot is None:
            reader.copy_tail(out)
        else:
            out.write(snapshot)
        out.flush()
        os.fsync(out.fileno())
    return sidecar


def compact_journal(path: str) -> dict[str, Any]:
    """Compact a journal with no live daemon attached (``repro compact``).

    Rewrites ``path`` down to ``meta + newest snapshot + event tail``
    through a fsynced sidecar and one atomic ``os.rename`` — the same
    scan, the same checks and the same crash discipline as the online
    compactor.  A journal that has never snapshotted gets one synthesized
    by replaying it through the same open reader (one scan, no second
    pass), so the rewrite always compacts instead of copying the event
    log.  A torn final line is dropped (it would have been dropped
    at recovery anyway); real corruption raises and leaves the file
    untouched.

    Returns a stats dict: ``bytes_before``/``bytes_after``,
    ``events_kept``/``events_dropped``, ``snapshots_dropped``,
    ``torn_dropped``.
    """
    try:
        bytes_before = os.path.getsize(path)
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    with JournalReader(path) as reader:
        reader.scan()
        snapshot = None
        events_kept = reader.replayed
        if reader.snapshot_at is None:
            state = serialize_state(_rebuild(reader))
            snapshot = (
                _encode_json({"kind": "snapshot", "state": state}) + "\n"
            ).encode("utf-8")
            events_kept = 0
        sidecar = _write_sidecar(reader, snapshot)
    os.rename(sidecar, path)
    _fsync_dir(os.path.dirname(path))
    return {
        "path": path,
        "bytes_before": bytes_before,
        "bytes_after": os.path.getsize(path),
        "events_kept": events_kept,
        "events_dropped": reader.events - events_kept,
        "snapshots_dropped": max(reader.snapshots - 1, 0),
        "torn_dropped": reader.torn,
    }


# ---------------------------------------------------------------------------
# the reader / recovery path
# ---------------------------------------------------------------------------


def read_journal(
    path: str,
) -> tuple[dict[str, Any] | None, list[dict[str, Any]], int]:
    """Parse a journal file into memory (streaming under the hood).

    Returns ``(meta, records, torn)`` where ``records`` excludes the meta
    line and ``torn`` counts the dropped unterminated final line (the
    artifact of a crash mid-append).  Any *terminated* unparseable line —
    tail included — raises :class:`~repro.errors.JournalError`: a complete
    line of garbage is real corruption, not a torn write.

    Recovery and inspection paths (:func:`restore`,
    :func:`journal_summary`) stream instead of calling this; it remains
    for callers that genuinely need the full record list (``repro
    doctor``'s merged timeline, tests).
    """
    records: list[dict[str, Any]] = []
    meta: dict[str, Any] | None = None
    with JournalReader(path) as reader:
        for record in reader:
            if record["kind"] == "meta":
                if meta is not None:
                    raise JournalError(f"duplicate meta record in {path}")
                meta = record
            else:
                records.append(record)
        torn = reader.torn
    return meta, records, torn


def restore(
    path: str,
    *,
    clock: Callable[[], float] | None = None,
    policy: SchedulingPolicy | None = None,
    rng=None,
    event_limit: int | None = None,
) -> GpuMemoryScheduler:
    """Rebuild a scheduler from its journal, streaming record by record.

    The result's :func:`~repro.core.scheduler.stats.snapshot` is identical
    to the crashed scheduler's at its last journaled event.  ``event_limit``
    replays only the first N events — the fault-injection suite uses it to
    model a crash at every event boundary without rewriting files.

    Two reads through one open handle (:class:`JournalReader`): a
    validating scan of every complete line that keeps only the meta
    record, the offset of the newest snapshot and the offset it stopped
    at, then one ``load_snapshot`` and a decode + ``apply_event`` of the
    events between the two.  History a later snapshot replaces is checked
    line by line but never built or applied, and nothing is buffered, so
    a restore costs one scan of the file plus a replay of at most
    ``snapshot_interval`` events, and memory stays flat in journal size.
    ``policy``/``rng`` override the policy reconstructed from the meta
    record (replay itself never consults the policy; these only matter
    for post-recovery scheduling).  To *continue* journaling after
    recovery::

        scheduler = restore(path, clock=clock)
        SchedulerJournal(path).attach(scheduler, compact=True)
    """
    with JournalReader(path) as reader:
        reader.scan(event_limit)
        return _rebuild(reader, clock=clock, policy=policy, rng=rng)


def _rebuild(
    reader: JournalReader,
    *,
    clock: Callable[[], float] | None = None,
    policy: SchedulingPolicy | None = None,
    rng=None,
) -> GpuMemoryScheduler:
    """After :meth:`JournalReader.scan`: the scheduler its tail rebuilds.

    A scheduler configured from the scanned meta record, the newest
    snapshot loaded once, and the events after it decoded and applied —
    the second read of :func:`restore`, and the snapshot a never-
    snapshotted journal's :func:`compact_journal` synthesizes.
    """
    meta = reader.meta
    if policy is None:
        policy = make_policy(meta["policy"], rng)
    scheduler = GpuMemoryScheduler(
        meta["total_memory"],
        policy,
        clock=clock,
        context_overhead=meta["context_overhead"],
        resume_mode=meta["resume_mode"],
    )
    state, log = scheduler.state, scheduler.log
    for record in reader.tail():
        if record["kind"] == "snapshot":  # the newest one, first in the tail
            state.load_snapshot(record["state"])
        else:
            event = decode_event(record)
            state.apply_event(event)
            log.append(event)
    return scheduler


# ---------------------------------------------------------------------------
# inspection (the `repro recover` CLI)
# ---------------------------------------------------------------------------


def journal_summary(path: str) -> dict[str, Any]:
    """Shape of a journal without restoring it: counts per record type.

    One :meth:`JournalReader.scan`, so multi-GB journals cost O(1) memory
    and a summary runs exactly the checks a restore does.  A failed check
    is *surfaced*, not raised: the scan stops there and the summary's
    ``corrupt`` key carries the diagnostic beside the counts up to that
    line (``repro recover`` / ``repro doctor`` want to describe a damaged
    file, not die on it).  A missing/unreadable file still raises.
    ``events_replayed`` is the number of events after the newest snapshot
    — what :func:`restore` has to decode and apply.
    """
    with JournalReader(path) as reader:
        return _scan_summary(reader)


def inspect_journal(path: str) -> tuple[dict[str, Any], GpuMemoryScheduler | None]:
    """:func:`journal_summary` and :func:`restore` from one scan (``repro recover``).

    The restored scheduler is ``None`` when the scan found the journal
    corrupt; the summary's ``corrupt`` key then says why.
    """
    with JournalReader(path) as reader:
        summary = _scan_summary(reader)
        scheduler = None if summary["corrupt"] is not None else _rebuild(reader)
    return summary, scheduler


def _scan_summary(reader: JournalReader) -> dict[str, Any]:
    corrupt: str | None = None
    try:
        reader.scan()
    except JournalError as exc:
        corrupt = str(exc)
    return {
        "path": reader.path,
        "meta": reader.meta,
        "events": reader.events,
        "event_counts": dict(sorted(reader.event_counts.items())),
        "snapshots": reader.snapshots,
        "events_replayed": reader.replayed,
        "torn_lines": reader.torn,
        "corrupt": corrupt,
    }
