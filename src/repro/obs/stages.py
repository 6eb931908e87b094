"""Per-request stage-latency attribution for the daemon hot path.

Answers "where does a request's time go?" by splitting the server-side
path into named stages::

    recv → frame → decode → dispatch → lock → transition → fsync_wait
         → encode → send

and recording each stage into ``convgpu_stage_seconds{stage=...}``
(DESIGN.md §13).  Requests slower than ``SLOW_SECONDS`` also land, with
their per-stage breakdown, in a bounded slow-request buffer that every
flight dump carries.

Cost model (the always-on <1% budget is enforced by
``benchmarks/test_bench_obs_overhead.py``):

* **Sampled clocks.**  Every ``SAMPLE_EVERY``-th dispatch batch per
  worker thread arms a :class:`StageClock` for its first request and
  times the batch's amortized fsync/send shares; the armed request pays
  a handful of ``perf_counter`` calls plus one histogram observe per
  non-zero stage.  Unarmed requests pay nothing at all — the sampling
  decision is one counter bump per *batch*, and slow-outlier detection
  rides the batch clock the dispatcher already holds for its flight
  event.
* **Thread-local current clock.**  The scheduler core attributes
  ``lock``/``transition``/``fsync_wait`` time by reading
  :func:`current`; when no clock is armed that read is a plain
  attribute hit on a defaulted ``threading.local`` subclass, so the
  scheduler's unsampled hot path is effectively untouched.
* **No unbounded strings on the hot path.**  Container ids go into the
  (bounded, locked, cold) slow-request buffer — never into the flight
  recorder's intern tables.

The IoLoop's ``recv``/``frame`` stages and the batch dispatcher's
amortized ``fsync_wait``/``send`` shares are observed directly via
:func:`observe_stage` since they cover many requests at once.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Iterable

from repro.obs.metrics import LATENCY_BUCKETS, REGISTRY
from repro.obs.recorder import RECORDER

__all__ = [
    "STAGES",
    "StageClock",
    "current",
    "set_current",
    "maybe_start",
    "io_sample",
    "observe_stage",
    "finish",
    "note_slow",
    "dump_sections",
]

#: Stage names, in hot-path order.  Index constants below must match.
STAGES = (
    "recv",
    "frame",
    "decode",
    "dispatch",
    "lock",
    "transition",
    "fsync_wait",
    "encode",
    "send",
)
(
    S_RECV,
    S_FRAME,
    S_DECODE,
    S_DISPATCH,
    S_LOCK,
    S_TRANSITION,
    S_FSYNC,
    S_ENCODE,
    S_SEND,
) = range(len(STAGES))

#: Arm a full StageClock on every Nth dispatch batch per connection.
#: An armed request costs ~5µs (a StageClock, ~8 ``perf_counter`` reads
#: and up to 10 histogram observes) against a ~15µs dispatch, so the
#: rate is set where amortized sampling stays well under 1% while a
#: busy daemon still collects hundreds of stage samples a minute.
SAMPLE_EVERY = 128
#: IoLoop recv/frame stages sampled every Nth readable event.
IO_SAMPLE_EVERY = 32
#: Requests slower than this always enter the slow-request buffer.
SLOW_SECONDS = 0.010
#: Bounded slow-request buffer size (cold path, lock-protected).
SLOW_CAPACITY = 256

_STAGE_SECONDS = REGISTRY.histogram(
    "convgpu_stage_seconds",
    "Sampled per-request latency attributed to one hot-path stage",
    labelnames=("stage",),
    buckets=LATENCY_BUCKETS,
)
# Pre-resolved children: index by stage constant on the hot path.
_STAGE_CHILDREN = tuple(_STAGE_SECONDS.labels(stage=name) for name in STAGES)

_SAMPLED_SECONDS = REGISTRY.histogram(
    "convgpu_sampled_request_seconds",
    "End-to-end server-side wall time of stage-sampled requests",
    buckets=LATENCY_BUCKETS,
)

_perf_counter = time.perf_counter


class _Local(threading.local):
    """Per-thread sampling state with class-attribute defaults, so the
    hot-path reads below are plain attribute hits (no ``getattr`` with a
    fallback, no ``AttributeError`` on a thread's first request)."""

    m = 0
    clock: StageClock | None = None


_local = _Local()

_slow_lock = threading.Lock()
_slow: deque[dict[str, Any]] = deque(maxlen=SLOW_CAPACITY)


class StageClock:
    """Accumulates per-stage durations for one sampled request."""

    __slots__ = ("began", "t", "durs")

    def __init__(self) -> None:
        self.durs = [0.0] * len(STAGES)
        self.began = self.t = _perf_counter()

    def mark(self, index: int) -> None:
        """Close the interval since the last mark into stage ``index``."""
        now = _perf_counter()
        self.durs[index] += now - self.t
        self.t = now

    def add(self, index: int, seconds: float) -> None:
        """Attribute time measured elsewhere (lock/transition/fsync)."""
        self.durs[index] += seconds

    def mark_dispatch(self) -> None:
        """Close the handler interval, minus time already attributed to
        the nested ``lock``/``transition``/``fsync_wait`` stages."""
        now = _perf_counter()
        durs = self.durs
        inner = durs[S_LOCK] + durs[S_TRANSITION] + durs[S_FSYNC]
        elapsed = (now - self.t) - inner
        if elapsed > 0.0:
            durs[S_DISPATCH] += elapsed
        self.t = now


def maybe_start(state: Any) -> StageClock | None:
    """Arm a StageClock for every ``SAMPLE_EVERY``-th call per ``state``.

    ``state`` is any object with a mutable ``sample_n`` attribute —
    in practice the transport's per-connection context, whose frames
    dispatch on one thread at a time, so a plain (cheap) attribute is
    race-free where a thread-local would be needlessly slow.
    """
    n = state.sample_n + 1
    state.sample_n = n
    if n % SAMPLE_EVERY:
        return None
    return StageClock()


def io_sample() -> bool:
    """Sampling decision for the IoLoop's recv/frame stage timing."""
    m = _local.m + 1
    _local.m = m
    return not m % IO_SAMPLE_EVERY


#: Count of StageClocks currently set as some thread's current clock.
#: The scheduler core reads this (a plain module attribute) before
#: paying the :func:`current` call — with sampling at 1/``SAMPLE_EVERY``
#: batches the count is almost always zero, so the unsampled hot path
#: costs one attribute read per transaction.
ARMED_CLOCKS = 0

_armed_lock = threading.Lock()


def current() -> StageClock | None:
    """The armed clock for the calling thread's in-flight request."""
    return _local.clock


def set_current(clock: StageClock | None) -> None:
    global ARMED_CLOCKS
    old = _local.clock
    _local.clock = clock
    delta = (clock is not None) - (old is not None)
    if delta:
        # Armed clocks are rare (one per sampled batch), so a lock here
        # never contends on the hot path; it only keeps the counter exact
        # across worker threads.
        with _armed_lock:
            ARMED_CLOCKS += delta


def observe_stage(index: int, seconds: float) -> None:
    """Directly observe one stage (loop recv/frame, batch fsync/send)."""
    _STAGE_CHILDREN[index].observe(seconds)


def finish(clock: StageClock, *, msg_type: str = "", container: str = "") -> float:
    """Flush an armed clock into the stage histograms; returns the total."""
    total = _perf_counter() - clock.began
    durs = clock.durs
    for index, duration in enumerate(durs):
        if duration > 0.0:
            _STAGE_CHILDREN[index].observe(duration)
    _SAMPLED_SECONDS.observe(total)
    if total >= SLOW_SECONDS:
        note_slow(
            msg_type=msg_type,
            container=container,
            total=total,
            stages={STAGES[i]: d for i, d in enumerate(durs) if d > 0.0},
        )
    return total


def note_slow(
    *,
    msg_type: str,
    container: str,
    total: float,
    stages: dict[str, float] | None = None,
) -> None:
    """Record one slow request into the bounded slow-request buffer.

    The kind stays ``slow_trace`` so dumps written by older daemons (whose
    entries also carry a ``trace`` key) read the same way.
    """
    entry: dict[str, Any] = {
        "kind": "slow_trace",
        "ts": time.time(),
        "type": msg_type,
        "container": container,
        "total": total,
    }
    if stages:
        entry["stages"] = stages
    with _slow_lock:
        _slow.append(entry)


def slow_traces() -> list[dict[str, Any]]:
    with _slow_lock:
        return list(_slow)


def dump_sections() -> Iterable[dict[str, Any]]:
    """Stage summaries + slow requests, embedded in every flight dump so
    ``repro doctor`` can report from the dump file alone."""
    lines: list[dict[str, Any]] = []
    for name, child in zip(STAGES, _STAGE_CHILDREN):
        sample = child.sample()
        if not sample["count"]:
            continue
        line: dict[str, Any] = {
            "kind": "stage_summary",
            "stage": name,
            "sum": sample["sum"],
            "count": sample["count"],
            "buckets": [[le, cum] for le, cum in sample["buckets"]],
        }
        lines.append(line)
    lines.extend(slow_traces())
    return lines


RECORDER.add_dump_section(dump_sections)


def reset_for_tests() -> None:
    """Clear sampling state and the slow buffer (tests only)."""
    global _local, ARMED_CLOCKS
    _local = _Local()
    with _armed_lock:
        ARMED_CLOCKS = 0
    with _slow_lock:
        _slow.clear()
