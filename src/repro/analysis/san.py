"""reprosan: runtime lockset race detection for the scheduler stack.

The static rules prove what syntax can prove; this module watches the
real interleavings.  While a :class:`SanSession` is active:

- every ``threading.Lock``/``RLock`` *created from a monitored module*
  is replaced by a recording proxy (locks created elsewhere — logging,
  pytest internals — stay native, so the tax lands only on the code
  under test).  ``Condition``/``Event``/``Queue`` built in monitored
  frames pick up proxies transparently because they allocate their
  internal locks through the patched factories.
- a ``sys.settrace`` line tracer fires on the attribute-write lines an
  AST pre-scan found in the monitored modules and records *which locks
  the writing thread held*.  Only frames of monitored code objects get a
  local tracer, so unmonitored code pays one set lookup per call.

Race detection is Eraser's lockset algorithm with a write-ownership
refinement: a field starts **exclusive** to its first writing thread
(constructor writes need no locks); the first ownership transfer seeds
the candidate lockset from the locks the new owner holds (a single
handoff — build in one thread, run in another — is the idiom, not a
bug); every later transfer intersects.  An empty candidate set on the
second or later transfer means two threads are trading unsynchronized
writes — that is reported as **san-race** at the racing write site.

Lock acquisitions feed a second check: the proxies record every
``held -> acquired`` edge with the acquiring site, the edges are named
``Class.attr`` via the creation-site index, and the graph of every edge
observed must stay acyclic (**san-lock-order**).  Runtime edges see
through dynamic dispatch: two threads taking the same pair of locks in
opposite orders is a cycle whichever call chain took them.

Reports are ordinary :class:`~repro.analysis.core.Finding` objects, so
``# reprolint: ignore[san-race] -- reason`` inline suppressions work
unchanged (:func:`~repro.analysis.core.apply_suppressions`).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.core import Finding
from repro.analysis.engine import find_root

__all__ = [
    "DEFAULT_MONITORED",
    "LockOrderViolation",
    "RaceReport",
    "SanReport",
    "SanSession",
]

#: Repo-relative modules the sanitizer instruments by default: the
#: shared-state core plus every module that owns a lock and a thread.
DEFAULT_MONITORED = (
    "src/repro/core/scheduler/core.py",
    "src/repro/core/scheduler/state.py",
    "src/repro/core/scheduler/journal.py",
    "src/repro/core/scheduler/daemon.py",
    "src/repro/ipc/loop.py",
)

#: Factories whose result is worth a ``Class.attr`` lock name when
#: assigned to ``self.<attr>`` (Condition/Event/Queue allocate their
#: internal lock through the patched factories, so the *outer*
#: assignment line is the creation site the stack walk lands on).
_LOCKY_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore",
     "BoundedSemaphore", "Queue"}
)

_MAX_FRAME_WALK = 25


# ---------------------------------------------------------------------------
# AST pre-scans: write sites and lock creation sites
# ---------------------------------------------------------------------------


def _attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """``self.a.b`` -> ("self", "a", "b"); None for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _flatten_targets(targets: Iterable[ast.AST]) -> Iterable[ast.AST]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(target.elts)
        elif isinstance(target, ast.Starred):
            yield target.value
        else:
            yield target


def _describe_target(target: ast.AST) -> tuple[tuple[str, ...], str] | None:
    """``(receiver chain, attr)`` for an attribute or container write.

    ``self.x = v`` and ``self.x += v`` write field ``x``; ``self.x[k] =
    v`` mutates the container *held in* ``x``, which races the same way,
    so it counts as a write to ``x`` too.
    """
    if isinstance(target, ast.Subscript):
        target = target.value
    if not isinstance(target, ast.Attribute):
        return None
    chain = _attr_chain(target.value)
    if chain is None:
        return None
    return chain, target.attr


def index_write_sites(text: str) -> dict[int, list[tuple[tuple[str, ...], str]]]:
    """``statement lineno -> [(receiver chain, attr), ...]``."""
    sites: dict[int, list[tuple[tuple[str, ...], str]]] = {}
    tree = ast.parse(text)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets: Iterable[ast.AST] = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        else:
            continue
        for target in _flatten_targets(targets):
            desc = _describe_target(target)
            if desc is not None:
                sites.setdefault(node.lineno, []).append(desc)
    return sites


def index_lock_names(text: str) -> dict[int, str]:
    """``lineno -> "Class.attr"`` for ``self.attr = threading.Lock()``
    (and friends) — how runtime lock objects get their report names."""
    names: dict[int, str] = {}
    tree = ast.parse(text)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            func = value.func
            last = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if last in _LOCKY_FACTORIES:
                names[node.lineno] = f"{cls.name}.{target.attr}"
    return names


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaceReport:
    """Two threads traded unsynchronized writes to one field."""

    field: str  # "Scheduler._containers"
    path: str   # absolute file of the racing write
    line: int
    thread: str
    lockset: tuple[str, ...]
    other_path: str
    other_line: int
    other_thread: str
    other_lockset: tuple[str, ...]

    def message(self) -> str:
        held = "{" + ", ".join(self.lockset) + "}" if self.lockset else "no locks"
        other = (
            "{" + ", ".join(self.other_lockset) + "}"
            if self.other_lockset else "no locks"
        )
        return (
            f"unsynchronized write to {self.field}: thread "
            f"{self.thread!r} wrote holding {held} while thread "
            f"{self.other_thread!r} last wrote at "
            f"{os.path.basename(self.other_path)}:{self.other_line} "
            f"holding {other} — the candidate lockset is empty, no lock "
            "consistently protects this field (Eraser)"
        )


@dataclass(frozen=True)
class LockOrderViolation:
    """A runtime acquisition edge that closes a cycle of observed edges."""

    edge: tuple[str, str]
    path: str  # absolute file of the acquiring site ("" when unknown)
    line: int
    detail: str

    def message(self) -> str:
        src, dst = self.edge
        return f"runtime acquisition {src} -> {dst}: {self.detail}"


@dataclass
class SanReport:
    races: list[RaceReport] = field(default_factory=list)
    lock_order: list[LockOrderViolation] = field(default_factory=list)
    locks_wrapped: int = 0
    writes_seen: int = 0
    fields_tracked: int = 0
    edges_observed: int = 0

    def summary(self) -> str:
        return (
            f"reprosan: {self.writes_seen} write(s) across "
            f"{self.fields_tracked} field(s), {self.locks_wrapped} "
            f"lock(s) wrapped, {self.edges_observed} acquisition "
            f"edge(s); {len(self.races)} race(s), "
            f"{len(self.lock_order)} lock-order violation(s)"
        )

    def findings(self, root: str) -> list[Finding]:
        """Races and ordering violations as lint findings (so inline
        suppressions apply unchanged)."""
        found: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for race in self.races:
            rel = _rel(race.path, root)
            key = (rel, race.line, race.field)
            if key in seen:
                continue  # one report per site+field across N instances
            seen.add(key)
            found.append(
                Finding(
                    path=rel,
                    line=race.line,
                    col=1,
                    rule="san-race",
                    message=race.message(),
                    snippet=_line_text(race.path, race.line),
                )
            )
        for violation in self.lock_order:
            rel = _rel(violation.path, root) if violation.path else "<runtime>"
            found.append(
                Finding(
                    path=rel,
                    line=violation.line,
                    col=1,
                    rule="san-lock-order",
                    message=violation.message(),
                    snippet=_line_text(violation.path, violation.line),
                )
            )
        return sorted(found)


def _rel(path: str, root: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def _line_text(path: str, line: int) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return ""
    if 1 <= line <= len(lines):
        return lines[line - 1].strip()
    return ""


# ---------------------------------------------------------------------------
# Lock proxies and held-lock tracking
# ---------------------------------------------------------------------------


class _Held(threading.local):
    """Per-thread held-lock state (recursion counts + acquisition order)."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}   # id(proxy) -> recursion depth
        self.order: list["_LockProxy"] = []  # distinct proxies, oldest first


class _LockProxy:
    """Wraps one real lock; reports acquire/release to the session.

    Implements the private trio (``_release_save`` / ``_acquire_restore``
    / ``_is_owned``) so a ``Condition`` built over it works — crucially,
    a thread parked in ``cond.wait()`` does *not* count the condition's
    lock in its lockset.
    """

    __slots__ = ("_inner", "_san", "name")

    def __init__(self, inner, san: "SanSession", name: str) -> None:
        self._inner = inner
        self._san = san
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1):
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._san._on_acquire(self)
        return ok

    def release(self) -> None:
        self._san._on_release(self)
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    # Condition support ----------------------------------------------------

    def _release_save(self):
        count = self._san._held_count(self)
        if hasattr(self._inner, "_release_save"):
            state = self._inner._release_save()
        else:
            self._inner.release()
            state = None
        self._san._on_release_all(self)
        return (count, state)

    def _acquire_restore(self, saved) -> None:
        count, state = saved
        if state is None:
            self._inner.acquire()
        else:
            self._inner._acquire_restore(state)
        self._san._on_acquire_restore(self, count)

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        return self._san._held_count(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<san lock {self.name} over {self._inner!r}>"


# ---------------------------------------------------------------------------
# Eraser field table
# ---------------------------------------------------------------------------


@dataclass
class _FieldState:
    ref: object          # weakref.ref(obj), or the object itself when
    pin: object          # not weakref-able (pin guards id() reuse)
    owner: int           # ident of the last writing thread
    owner_name: str
    lockset: tuple[str, ...]
    path: str
    line: int
    transfers: int = 0
    candidates: frozenset | None = None  # None until first transfer
    reported: bool = False

    def holder(self) -> object | None:
        if self.ref is not None:
            return self.ref()
        return self.pin


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


class SanSession:
    """Context manager that instruments the monitored modules.

    Usage::

        with SanSession() as san:
            ...run tests / drive the scheduler...
        report = san.report()
        findings = report.findings(root)
    """

    def __init__(
        self,
        monitored: Sequence[str] | None = None,
        *,
        root: str | None = None,
    ) -> None:
        self.root = os.path.abspath(
            root or find_root([os.path.dirname(os.path.abspath(__file__))])
        )
        rels = monitored if monitored is not None else DEFAULT_MONITORED
        self._monitored: set[str] = set()
        self._write_sites: dict[str, dict] = {}
        self._lock_names: dict[str, dict[int, str]] = {}
        for rel in rels:
            path = rel if os.path.isabs(rel) else os.path.join(self.root, rel)
            path = os.path.abspath(path)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            self._monitored.add(path)
            self._write_sites[path] = index_write_sites(text)
            self._lock_names[path] = index_lock_names(text)
        self._mutex = threading.Lock()  # real: created before patching
        self._held = _Held()
        self._fields: dict[tuple[int, str], _FieldState] = {}
        self._races: list[RaceReport] = []
        self._edges: dict[tuple[str, str], tuple[str, int]] = {}
        self._locks: list[_LockProxy] = []  # strong refs pin lock ids
        self._real_lock = None
        self._real_rlock = None
        self._old_trace = None
        self._writes_seen = 0

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "SanSession":
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        threading.Lock = self._factory(self._real_lock)
        threading.RLock = self._factory(self._real_rlock)
        self._old_trace = sys.gettrace()
        threading.settrace(self._global_trace)
        sys.settrace(self._global_trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._old_trace)
        threading.settrace(None)
        threading.Lock = self._real_lock
        threading.RLock = self._real_rlock

    # -- lock factory ------------------------------------------------------

    def _factory(self, real):
        def make(*args, **kwargs):
            inner = real(*args, **kwargs)
            site = self._creation_site()
            if site is None:
                return inner
            name = self._lock_names.get(site[0], {}).get(
                site[1], f"{os.path.basename(site[0])}:{site[1]}"
            )
            proxy = _LockProxy(inner, self, name)
            with self._mutex:
                self._locks.append(proxy)
            return proxy

        return make

    def _creation_site(self) -> tuple[str, int] | None:
        """First monitored frame below the factory, or None to skip
        wrapping.  ``Thread.__init__`` allocates bookkeeping events whose
        locks would only add noise, so those are skipped outright."""
        frame = sys._getframe(2)
        for _ in range(_MAX_FRAME_WALK):
            if frame is None:
                return None
            code = frame.f_code
            if code.co_qualname.startswith("Thread."):
                return None
            if code.co_filename in self._monitored:
                return code.co_filename, frame.f_lineno
            frame = frame.f_back
        return None

    # -- held-lock bookkeeping (called from proxies) -----------------------

    def _on_acquire(self, proxy: _LockProxy) -> None:
        held = self._held
        key = id(proxy)
        count = held.counts.get(key, 0)
        held.counts[key] = count + 1
        if count:
            return
        for outer in held.order:
            edge = (outer.name, proxy.name)
            if edge[0] != edge[1] and edge not in self._edges:
                site = self._first_monitored_frame() or ("", 0)
                with self._mutex:
                    self._edges.setdefault(edge, site)
        held.order.append(proxy)

    def _on_release(self, proxy: _LockProxy) -> None:
        held = self._held
        key = id(proxy)
        count = held.counts.get(key, 0)
        if count <= 1:
            held.counts.pop(key, None)
            if proxy in held.order:
                held.order.remove(proxy)
        else:
            held.counts[key] = count - 1

    def _on_release_all(self, proxy: _LockProxy) -> None:
        self._held.counts.pop(id(proxy), None)
        if proxy in self._held.order:
            self._held.order.remove(proxy)

    def _on_acquire_restore(self, proxy: _LockProxy, count: int) -> None:
        # A cond.wait() wake-up is a *re*-acquire: the ordering edge was
        # recorded at the original acquire, so none is recorded here.
        self._held.counts[id(proxy)] = max(count, 1)
        if proxy not in self._held.order:
            self._held.order.append(proxy)

    def _held_count(self, proxy: _LockProxy) -> int:
        return self._held.counts.get(id(proxy), 0)

    def _first_monitored_frame(self) -> tuple[str, int] | None:
        frame = sys._getframe(2)
        for _ in range(_MAX_FRAME_WALK):
            if frame is None:
                return None
            if frame.f_code.co_filename in self._monitored:
                return frame.f_code.co_filename, frame.f_lineno
            frame = frame.f_back
        return None

    # -- write recording (called from the line tracer) ---------------------

    def _global_trace(self, frame, event, arg):
        if frame.f_code.co_filename in self._write_sites:
            return self._local_trace
        return None

    def _local_trace(self, frame, event, arg):
        if event == "line":
            sites = self._write_sites[frame.f_code.co_filename].get(
                frame.f_lineno
            )
            if sites:
                self._record_sites(frame, sites)
        return self._local_trace

    def _record_sites(self, frame, sites) -> None:
        for chain, attr in sites:
            obj = frame.f_locals.get(chain[0])
            for part in chain[1:]:
                if obj is None:
                    break
                obj = getattr(obj, part, None)
            if obj is None:
                continue
            self._record_write(
                obj, attr, frame.f_code.co_filename, frame.f_lineno
            )

    def _record_write(self, obj, attr: str, path: str, line: int) -> None:
        if isinstance(obj, threading.local):
            return  # per-thread storage: one id, N disjoint field sets
        ident = threading.get_ident()
        tname = threading.current_thread().name
        lockset = tuple(p.name for p in self._held.order)
        key = (id(obj), attr)
        with self._mutex:
            self._writes_seen += 1
            state = self._fields.get(key)
            if state is not None and state.holder() is not obj:
                state = None  # id() reuse after GC: fresh field
            if state is None:
                try:
                    ref, pin = weakref.ref(obj), None
                except TypeError:
                    ref, pin = None, obj
                self._fields[key] = _FieldState(
                    ref=ref, pin=pin, owner=ident, owner_name=tname,
                    lockset=lockset, path=path, line=line,
                )
                return
            if state.owner == ident:
                # Same-thread writes need no locks; no refinement.
                state.lockset, state.path, state.line = lockset, path, line
                return
            prev = (state.owner_name, state.path, state.line, state.lockset)
            state.transfers += 1
            current = frozenset(lockset)
            if state.transfers == 1:
                # First handoff seeds the candidates: construction in one
                # thread, operation in another is the idiom, not a race.
                state.candidates = current
            else:
                state.candidates = (state.candidates or frozenset()) & current
            state.owner, state.owner_name = ident, tname
            state.lockset, state.path, state.line = lockset, path, line
            if (
                state.transfers >= 2
                and not state.candidates
                and not state.reported
            ):
                state.reported = True
                self._races.append(
                    RaceReport(
                        field=f"{type(obj).__name__}.{attr}",
                        path=path, line=line, thread=tname, lockset=lockset,
                        other_path=prev[1], other_line=prev[2],
                        other_thread=prev[0], other_lockset=prev[3],
                    )
                )

    # -- reporting ---------------------------------------------------------

    def report(self) -> SanReport:
        report = SanReport(
            races=list(self._races),
            lock_order=self._lock_order_violations(),
            locks_wrapped=len(self._locks),
            writes_seen=self._writes_seen,
            fields_tracked=len(self._fields),
            edges_observed=len(self._edges),
        )
        return report

    def _lock_order_violations(self) -> list[LockOrderViolation]:
        graph: dict[str, dict[str, None]] = {}
        for src, dst in self._edges:
            graph.setdefault(src, {})[dst] = None
        cycle = _find_cycle(graph)
        if cycle is None:
            return []
        edge = (cycle[0], cycle[1])
        site = self._edges[edge]
        return [
            LockOrderViolation(
                edge=edge,
                path=site[0], line=site[1],
                detail=(
                    "it closes a cycle in the runtime acquisition graph: "
                    + " -> ".join(cycle)
                    + " — two threads taking these in opposite order "
                    "deadlock"
                ),
            )
        ]


def _find_cycle(
    graph: dict[str, dict[str, tuple]]
) -> list[str] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for nxt in graph.get(node, ()):
            if color.get(nxt, WHITE) == GRAY:
                return stack[stack.index(nxt):] + [nxt]
            if color.get(nxt, WHITE) == WHITE:
                color.setdefault(nxt, WHITE)
                found = dfs(nxt)
                if found is not None:
                    return found
        color[node] = BLACK
        stack.pop()
        return None

    for node in list(graph):
        if color.get(node, WHITE) == WHITE:
            found = dfs(node)
            if found is not None:
                return found
    return None
