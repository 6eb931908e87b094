"""Flight recorder: always-on, lock-free ring buffers of typed events.

The daemon's last few thousand interesting moments — readable events,
batch dispatches, scheduler pauses, journal flushes, connection churn —
are kept in fixed-size per-thread ring buffers of binary-packed records
(44 bytes each) so that a crash, a SIGUSR2, a watchdog stall or ``repro
dump`` can produce a post-mortem timeline without any always-on logging
cost.  Design rules (DESIGN.md §13):

* **Single writer per ring.**  Each thread gets its own ring (created
  lazily via ``threading.local``), so the hot path takes no lock — one
  ``struct.pack_into`` plus a couple of integer ops.  The only lock in
  the module guards ring *creation* and ``dump()``.
* **Typed events, declared once.**  Every event type is declared at
  import time with :meth:`FlightRecorder.declare`, which returns the
  integer tag used by ``record()``.  The declaration names the payload
  fields so dumps are self-describing; an unknown slot or a conflicting
  re-declaration raises at import.
* **Bounded strings.**  Each ring interns its string payloads in a
  capped table; unbounded-cardinality strings (trace ids) must never be
  recorded — they go to the slow-trace buffer in ``repro.obs.stages``
  instead.  Table overflow degrades to a ``"…"`` sentinel, never grows.
* **Versioned JSONL dumps.**  ``dump()`` merges all rings by timestamp
  into ``flight_meta`` + ``flight_event`` JSON lines (plus any extra
  sections registered by other modules, e.g. stage summaries).  Records
  whose tag is not in the registry are counted and flagged in the meta
  line — the runtime half of the drift check.

The wall clock (``time.time``) is used rather than ``perf_counter`` so
flight events correlate with journal record timestamps in ``repro
doctor``'s merged timeline.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import time
from typing import Any, Callable, Iterable

__all__ = [
    "EventType",
    "FlightRecorder",
    "FLIGHT_VERSION",
    "RECORDER",
]

# Dump format version: bump when the meta/event line schema changes.
FLIGHT_VERSION = 1

# One packed record: wall-clock ts (f64), event tag (u16), interned
# string ref (u16), three integer payloads (i64), one float payload (f64).
_RECORD = struct.Struct("!dHHqqqd")

# Per-thread ring capacity in records (must be a power of two so the
# write index is a single mask).  4096 × 44 B ≈ 176 KiB per thread.
_DEFAULT_CAPACITY = 4096

# Cap on interned strings per ring; overflow records get _STR_OVERFLOW.
_MAX_STRINGS = 2048
_STR_EMPTY = 0
_STR_OVERFLOW = 1


class EventType:
    """A declared event type: name, integer tag and payload field labels."""

    __slots__ = ("name", "tag", "fields")

    def __init__(self, name: str, tag: int, fields: dict[str, str]) -> None:
        self.name = name
        self.tag = tag
        self.fields = fields

    def describe(self) -> dict[str, Any]:
        return {"tag": self.tag, "fields": self.fields}


class _Ring:
    """Fixed-size record ring owned by exactly one writer thread."""

    __slots__ = ("buf", "count", "mask", "capacity", "thread", "_intern", "_strings")

    def __init__(self, capacity: int, thread: str) -> None:
        self.buf = bytearray(capacity * _RECORD.size)
        self.count = 0
        self.mask = capacity - 1
        self.capacity = capacity
        self.thread = thread
        self._intern: dict[str, int] = {"": _STR_EMPTY, "…": _STR_OVERFLOW}
        self._strings: list[str] = ["", "…"]

    def put(self, ts: float, tag: int, s: str, a: int, b: int, c: int, x: float) -> None:
        if s:
            sref = self._intern.get(s)
            if sref is None:
                if len(self._strings) < _MAX_STRINGS:
                    sref = len(self._strings)
                    self._intern[s] = sref
                    self._strings.append(s)
                else:
                    sref = _STR_OVERFLOW
        else:
            sref = _STR_EMPTY
        _RECORD.pack_into(self.buf, (self.count & self.mask) * _RECORD.size, ts, tag, sref, a, b, c, x)
        self.count += 1

    def snapshot(self) -> tuple[bytes, int, list[str]]:
        """Copy the buffer for dumping.

        The ring may be written concurrently by its owner thread; the copy
        tolerates a torn record at the write frontier (it decodes as a
        stale or half-new record and is at worst attributed to the wrong
        tag, which the dump counts as unknown).
        """
        return bytes(self.buf), self.count, list(self._strings)


class FlightRecorder:
    """Process-global registry of event types plus per-thread rings."""

    def __init__(
        self,
        *,
        capacity: int = _DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 2 or capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two >= 2")
        self._capacity = capacity
        self._clock = clock
        self._registry: dict[str, EventType] = {}
        self._by_tag: dict[int, EventType] = {}
        self._local = threading.local()
        self._rings: list[_Ring] = []
        self._lock = threading.Lock()
        self._sections: list[Callable[[], Iterable[dict[str, Any]]]] = []

    # -- declaration ------------------------------------------------------

    def declare(self, name: str, **fields: str) -> int:
        """Declare an event type once; returns the tag ``record()`` takes.

        ``fields`` maps record slots to human labels, e.g.
        ``declare("io.read", a="bytes", b="frames")``.  Valid slots are
        ``s`` (interned string), ``a``/``b``/``c`` (ints) and ``x``
        (float).  Re-declaring with identical fields is idempotent (module
        reloads in tests); conflicting re-declaration raises.
        """
        bad = [k for k in fields if k not in ("s", "a", "b", "c", "x")]
        if bad:
            raise ValueError(f"unknown event field slots {bad!r} for {name!r}")
        with self._lock:
            existing = self._registry.get(name)
            if existing is not None:
                if existing.fields != fields:
                    raise ValueError(
                        f"flight event {name!r} re-declared with different fields"
                    )
                return existing.tag
            tag = len(self._registry) + 1  # tag 0 reserved: "never written"
            event = EventType(name, tag, dict(fields))
            self._registry[name] = event
            self._by_tag[tag] = event
            return tag

    def registry(self) -> dict[str, EventType]:
        with self._lock:
            return dict(self._registry)

    def add_dump_section(self, fn: Callable[[], Iterable[dict[str, Any]]]) -> None:
        """Register a callable contributing extra JSON lines to every dump.

        Used by ``repro.obs.stages`` to embed stage summaries and slow
        traces so ``repro doctor`` can work from the dump file alone.
        """
        with self._lock:
            self._sections.append(fn)

    # -- hot path ---------------------------------------------------------

    def record(
        self, tag: int, s: str = "", a: int = 0, b: int = 0, c: int = 0, x: float = 0.0
    ) -> None:
        """Append one event to the calling thread's ring (lock-free)."""
        try:
            ring = self._local.ring
        except AttributeError:
            ring = self._new_ring()
        ring.put(self._clock(), tag, s, a, b, c, x)

    def _new_ring(self) -> _Ring:
        ring = _Ring(self._capacity, threading.current_thread().name)
        self._local.ring = ring
        with self._lock:
            self._rings.append(ring)
        return ring

    # -- dumping ----------------------------------------------------------

    def _decode(self) -> tuple[list[dict[str, Any]], int, int, list[str]]:
        events: list[dict[str, Any]] = []
        unknown = 0
        dropped = 0
        threads: list[str] = []
        with self._lock:
            rings = list(self._rings)
            by_tag = dict(self._by_tag)
        for ring in rings:
            buf, count, strings = ring.snapshot()
            threads.append(ring.thread)
            start = max(0, count - ring.capacity)
            dropped += start
            for i in range(start, count):
                rec = _RECORD.unpack_from(buf, (i & ring.mask) * _RECORD.size)
                ts, tag, sref, a, b, c, x = rec
                event = by_tag.get(tag)
                if event is None:
                    unknown += 1
                    continue
                line: dict[str, Any] = {
                    "kind": "flight_event",
                    "ts": ts,
                    "event": event.name,
                    "thread": ring.thread,
                }
                for slot, label in event.fields.items():
                    if slot == "s":
                        line[label] = strings[sref] if sref < len(strings) else "…"
                    elif slot == "a":
                        line[label] = a
                    elif slot == "b":
                        line[label] = b
                    elif slot == "c":
                        line[label] = c
                    else:
                        line[label] = x
                events.append(line)
        events.sort(key=lambda e: e["ts"])
        return events, unknown, dropped, threads

    def dump_lines(self, *, reason: str) -> list[str]:
        """Render the full dump as JSON lines (meta first, then events)."""
        events, unknown, dropped, threads = self._decode()
        with self._lock:
            registry = {name: ev.describe() for name, ev in self._registry.items()}
            sections = list(self._sections)
        meta = {
            "kind": "flight_meta",
            "version": FLIGHT_VERSION,
            "reason": reason,
            "ts": self._clock(),
            "pid": os.getpid(),
            "events": len(events),
            "overwritten": dropped,
            "unknown_tags": unknown,
            "threads": threads,
            "registry": registry,
        }
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(json.dumps(e, sort_keys=True) for e in events)
        for fn in sections:
            try:
                extra = list(fn())
            # A broken dump section must not abort a crash dump: the core
            # timeline is still written and the section is simply absent.
            except Exception:
                continue
            lines.extend(json.dumps(e, sort_keys=True) for e in extra)
        return lines

    def dump_text(self, *, reason: str) -> str:
        return "\n".join(self.dump_lines(reason=reason)) + "\n"

    def dump(self, path: str, *, reason: str) -> str:
        """Write the dump atomically (tmp + rename) and return the path."""
        text = self.dump_text(reason=reason)
        tmp = f"{path}.tmp"
        with io.open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    # -- test support -----------------------------------------------------

    def reset_for_tests(self) -> None:
        """Drop all rings (tests only — declarations are kept)."""
        with self._lock:
            self._rings.clear()
        self._local = threading.local()


#: Process-global recorder.  Modules alias it (``_REC = RECORDER``) so the
#: overhead benchmark can stub the alias per module, mirroring the
#: ``_HOT_METRICS`` idiom in benchmarks/test_bench_obs_overhead.py.
RECORDER = FlightRecorder()


def read_dump(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a dump file into ``(meta, lines)``; tolerates a torn tail."""
    meta: dict[str, Any] = {}
    lines: list[dict[str, Any]] = []
    with io.open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except ValueError:
                break  # torn tail (crash mid-write)
            if obj.get("kind") == "flight_meta" and not meta:
                meta = obj
            else:
                lines.append(obj)
    return meta, lines
