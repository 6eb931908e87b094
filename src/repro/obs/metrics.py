"""Dependency-free metrics primitives: counters, gauges, histograms.

Prometheus-shaped but stdlib-only: a :class:`MetricsRegistry` owns named
metric *families*; a family with ``labelnames`` hands out one child per
label-value combination via :meth:`MetricFamily.labels`.  Rendering (text
format, JSON) lives in :mod:`repro.obs.exporters` so the hot path never
touches string formatting.

Design constraints, in priority order:

1. **cheap** — instrumentation is on by default across the scheduler's
   allocation path, so ``inc()``/``observe()`` are a lock acquire plus an
   add (histograms: plus a bisect over ~16 bucket bounds);
2. **thread-safe** — the daemon serves one thread per connection;
3. **process-global by default** — components record into the module
   :data:`REGISTRY` unless handed another one, mirroring how a real
   exporter scrapes one registry per process.  Point-in-time state that
   would go stale (per-container reserved/used) is produced at scrape
   time by *collectors* (see :meth:`MetricsRegistry.add_collector`), not
   pushed from the hot path.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "DURATION_BUCKETS",
]

#: General-purpose buckets (seconds): microseconds up to ten seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Sub-millisecond-focused buckets for IPC / decision latencies.
LATENCY_BUCKETS: tuple[float, ...] = (
    5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0,
)

#: Coarse buckets for pause durations (virtual or wall seconds).
DURATION_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0, 1800.0,
)


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Value that can go up and down (set to a point-in-time reading)."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative rendering happens at export)."""

    kind = "histogram"
    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def sample(self) -> dict[str, Any]:
        """Cumulative bucket counts keyed by upper bound, plus sum/count."""
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative.append((bound, running))
        return {"buckets": cumulative, "sum": total, "count": n}


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its per-label-value children.

    A family with no ``labelnames`` proxies ``inc``/``set``/``observe``
    straight to its single default child, so unlabelled call sites read
    naturally: ``registry.counter("x").inc()``.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] | None = None,
    ) -> None:
        if kind not in _CHILD_TYPES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_BUCKETS)
        return _CHILD_TYPES[self.kind]()

    def labels(self, *values: str, **kw: str) -> Any:
        """The child for one label-value combination (created on demand)."""
        if kw:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kw[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc} for metric {self.name}") from exc
            if len(kw) != len(self.labelnames):
                extra = set(kw) - set(self.labelnames)
                raise ValueError(f"unknown labels {sorted(extra)} for {self.name}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {values!r}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child()
                self._children[values] = child
            return child

    def clear(self) -> None:
        """Drop all labelled children (scrape-time collectors re-populate)."""
        with self._lock:
            self._children.clear()
            if not self.labelnames:
                self._children[()] = self._make_child()

    def remove(self, *values: str, **kw: str) -> None:
        """Drop one label-value combination (e.g. a departed container)."""
        if kw:
            values = tuple(str(kw.get(name, "")) for name in self.labelnames)
        else:
            values = tuple(str(v) for v in values)
        with self._lock:
            self._children.pop(values, None)

    def samples(self) -> list[tuple[tuple[str, ...], dict[str, Any]]]:
        with self._lock:
            children = list(self._children.items())
        return [(values, child.sample()) for values, child in sorted(children)]

    # -- unlabelled conveniences -------------------------------------------

    def _default(self) -> Any:
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value


class MetricsRegistry:
    """Named metric families plus scrape-time collectors.

    Registration is idempotent: asking for an existing name returns the
    existing family, provided kind and labelnames match (a mismatch is a
    programming error and raises).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        #: (callback, weakref-to-owner | None); see :meth:`add_collector`.
        self._collectors: list[tuple[Callable[[], None], Any]] = []

    # -- registration -------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: Iterable[float] | None = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                        f"{family.labelnames}, not {kind}{tuple(labelnames)}"
                    )
                return family
            family = MetricFamily(name, kind, help, tuple(labelnames), buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, "histogram", help, labelnames, buckets)

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    # -- collectors ---------------------------------------------------------

    def add_collector(
        self, callback: Callable[[], None], *, owner: Any = None
    ) -> None:
        """Run ``callback`` before every scrape to refresh gauge state.

        When ``owner`` is given, the collector is dropped automatically
        once the owner is garbage-collected — so a daemon registering a
        per-container collector does not pin its scheduler alive in the
        process-global registry.
        """
        ref = weakref.ref(owner) if owner is not None else None
        with self._lock:
            self._collectors.append((callback, ref))

    def remove_collector(self, callback: Callable[[], None]) -> None:
        with self._lock:
            self._collectors = [
                (cb, ref) for cb, ref in self._collectors if cb is not callback
            ]

    def run_collectors(self) -> None:
        with self._lock:
            live: list[tuple[Callable[[], None], Any]] = []
            to_run: list[Callable[[], None]] = []
            for callback, ref in self._collectors:
                if ref is not None and ref() is None:
                    continue  # owner collected: drop silently
                live.append((callback, ref))
                to_run.append(callback)
            self._collectors = live
        for callback in to_run:
            try:
                callback()
            except Exception:
                # A broken collector must not take the scrape endpoint down.
                continue

    # -- scraping -----------------------------------------------------------

    def collect(self) -> list[MetricFamily]:
        """All families, collectors freshly run, sorted by name."""
        self.run_collectors()
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able dump of every family (exporters build on this)."""
        payload: dict[str, Any] = {}
        for family in self.collect():
            entries = []
            for values, sample in family.samples():
                entry: dict[str, Any] = dict(
                    zip(family.labelnames, values)
                ) if values else {}
                if family.kind == "histogram":
                    entry["sum"] = sample["sum"]
                    entry["count"] = sample["count"]
                    entry["buckets"] = [
                        {"le": bound, "count": count}
                        for bound, count in sample["buckets"]
                    ]
                else:
                    entry["value"] = sample["value"]
                entries.append(entry)
            payload[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": entries,
            }
        return payload

    def reset(self) -> None:
        """Drop every family and collector (test isolation only)."""
        with self._lock:
            self._families.clear()
            self._collectors.clear()


def labels_from(mapping: Mapping[str, Any]) -> tuple[str, ...]:
    """Normalize a mapping's values into a label tuple (ordering caller's)."""
    return tuple(str(v) for v in mapping.values())


#: The process-global registry instrumented components default to.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
