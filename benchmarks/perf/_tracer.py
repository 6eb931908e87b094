"""Outside-in span tracing, done entirely from the benchmark's own files.

For a traced run the public entry of every layer is wrapped (class
attributes are patched for the duration of the run and restored after):

    WrapperModule.cudaMalloc/cudaFree/cudaMemGetInfo   (driven generators)
      > ResilientClient.call/notify
      > UnixSocketClient.call/notify/pipeline_send/pipeline_collect/connect
      > SchedulerService.handle (+ batch_begin / batch_commit)
      > GpuMemoryScheduler verbs
      > SchedulerState transitions, CandidateIndex.pick,
        SchedulerJournal.record / wait_durable, os.fsync
    CudaRuntime.cudaMalloc/cudaFree under the wrapper

A span has a name, start, end, parent (the enclosing span on the same
thread), a request id ``rid`` (``container:seq``), the container ``cid``
and a ``tag`` (the message type).  Spans stay in memory, one set of columns
per thread, and are analysed (and optionally written out) after the run.

A layer's *self* time is its span minus the time its children cover.  A
daemon-side span belongs to the blocking client span of the same container
whose interval contains it — the client is parked in ``recv`` meanwhile —
so self times in one blocking tree add up to the root span exactly.
Daemon work that runs after a one-way notification returned is nobody's
child: it is counted as busy time, never as part of a call's latency.
"""

from __future__ import annotations

import bisect
import inspect
import os
import threading
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.journal import SchedulerJournal
from repro.core.scheduler.policies import CandidateIndex
from repro.core.scheduler.service import SchedulerService
from repro.core.scheduler.state import SchedulerState
from repro.core.wrapper.module import WrapperModule
from repro.cuda.runtime import CudaRuntime
from repro.ipc.retry import ResilientClient
from repro.ipc.unix_socket import DEFER, UnixSocketClient

_INHERITED = object()

#: Client spans a daemon-side span can be the child of (the caller blocks).
BLOCKING = ("transport.call", "generator.window")
#: Layers whose top-level spans on a daemon thread look for such a parent.
DAEMON_LAYERS = ("service", "scheduler", "state", "journal")


class Columns:
    """One thread's spans.  Columns instead of one object per span: arrays
    and strings are invisible to the cycle collector, so a few hundred
    thousand spans do not slow the traced program's collections down."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid: list[str | None] = []
        self.cid: list[str | None] = []
        self.tag: list[str | None] = []
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)


class _Local(threading.local):
    columns: Columns | None = None
    #: Container of the frames dispatched since the last batch_begin.
    batch_cid: str | None = None


class Tracer:
    """Span store + the patches that feed it."""

    def __init__(self, *, activations: bool = False) -> None:
        #: False: a driven generator is one span from first resume to
        #: return (live mode — one program per thread).  True: one span per
        #: resume (the simulator interleaves many programs on one thread).
        self.activations = activations
        self.on = False
        self.threads: list[Columns] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Durations of the state transitions that resumed a paused container.
        self.resume_transitions: list[float] = []
        self._local = _Local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, rid=None, cid=None, tag=None) -> None:
        cols = self._local.columns
        if cols is None:
            cols = self._local.columns = Columns()
            with self._lock:
                self.threads.append(cols)
        stack = cols.stack
        cols.parent.append(stack[-1] if stack else -1)
        stack.append(len(cols.name))
        cols.name.append(name)
        cols.rid.append(rid)
        cols.cid.append(cid)
        cols.tag.append(tag)
        cols.end.append(0.0)
        cols.start.append(perf_counter())

    def end(self) -> float:
        now = perf_counter()
        cols = self._local.columns
        index = cols.stack.pop()
        cols.end[index] = now
        return now - cols.start[index]

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering what ``owner`` itself held (an
        inherited method is patched on the subclass and deleted again)."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: type, attr: str, name: str,
             ident: Callable[..., tuple] | None = None,
             after: Callable[[Any, float], None] | None = None,
             patch_as: tuple[str, ...] = ()) -> None:
        """Wrap a plain method: one span per call."""
        original = inspect.getattr_static(owner, attr)
        tracer = self

        def traced(self, *args, **kwargs):
            if not tracer.on:
                return original(self, *args, **kwargs)
            rid, cid, tag = ident(self, args, kwargs) if ident else (None, None, None)
            tracer.begin(name, rid, cid, tag)
            try:
                result = original(self, *args, **kwargs)
            except BaseException:
                tracer.end()
                raise
            took = tracer.end()
            if after is not None:
                after(result, took)
            return result

        traced.__name__ = attr
        for target in (attr, *patch_as):
            self._patch(owner, target, traced)

    def wrap_generator(self, owner: type, attr: str, name: str) -> None:
        """Wrap a driven effect generator (wrapper and native CUDA calls)."""
        original = inspect.getattr_static(owner, attr)
        tracer = self

        def traced(self, *args, **kwargs):
            generator = original(self, *args, **kwargs)
            if not tracer.on:
                return (yield from generator)
            cid = getattr(self, "container_id", None)
            if not tracer.activations:
                tracer.begin(name, None, cid)
                try:
                    return (yield from generator)
                finally:
                    tracer.end()
            resume, argument = generator.send, None
            while True:
                tracer.begin(name, None, cid)
                try:
                    effect = resume(argument)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.end()
                try:
                    argument = yield effect
                    resume = generator.send
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # an Interrupt thrown into the program
                    argument, resume = exc, generator.throw

        traced.__name__ = attr
        self._patch(owner, attr, traced)

    def install(self) -> "Tracer":
        """Patch every layer entry; undone by :meth:`uninstall`."""
        for api in ("cudaMalloc", "cudaFree", "cudaMemGetInfo"):
            self.wrap_generator(WrapperModule, api, f"wrapper.{api}")
        for api in ("cudaMalloc", "cudaFree"):
            self.wrap_generator(CudaRuntime, api, f"cuda.{api}")

        def retry_ident(client, args, kwargs):
            return None, kwargs.get("container_id"), args[0]

        self.wrap(ResilientClient, "call", "retry.call", retry_ident)
        self.wrap(ResilientClient, "notify", "retry.notify", retry_ident)

        def wire_ident(client, args, kwargs):
            cid = kwargs.get("container_id")
            return f"{cid}:{client._seq + 1}", cid, args[0]

        def send_ident(client, args, kwargs):
            requests = args[0]
            cid = requests[0][1].get("container_id") if requests else None
            return f"{cid}:{client._seq + 1}+{len(requests)}", cid, None

        # Patched on the unix client only: the TCP transport is out of scope.
        self.wrap(UnixSocketClient, "call", "transport.call", wire_ident)
        self.wrap(UnixSocketClient, "notify", "transport.notify", wire_ident)
        self.wrap(UnixSocketClient, "pipeline_send", "transport.pipeline_send", send_ident)
        self.wrap(UnixSocketClient, "pipeline_collect", "transport.pipeline_collect")
        self.wrap(UnixSocketClient, "__init__", "transport.connect")

        local = self._local
        counts = self.counts

        def handle_ident(service, args, kwargs):
            message = args[0]
            cid = message.get("container_id")
            local.batch_cid = cid
            return f"{cid}:{message.get('seq')}", cid, message.get("type")

        def handle_after(result, took):
            if result is DEFER:
                counts["service.deferred"] += 1

        # ``__call__`` is what the socket servers invoke; it was bound to the
        # original ``handle`` when the class was made, so it is patched too.
        self.wrap(SchedulerService, "handle", "service.handle", handle_ident,
                  handle_after, patch_as=("__call__",))
        self.wrap(SchedulerService, "batch_begin", "service.batch_begin")
        self.wrap(SchedulerService, "batch_commit", "service.batch_commit",
                  lambda *_: (None, local.batch_cid, None))

        for attr, verb in (
            ("request_allocation", "request"),
            ("commit_allocation", "commit"),
            ("release_allocation", "release"),
            ("mem_get_info", "mem_get_info"),
            ("register_container", "register"),
            ("container_exit", "container_exit"),
            ("process_exit", "process_exit"),
        ):
            self.wrap(GpuMemoryScheduler, attr, f"scheduler.{verb}")

        resume_transitions = self.resume_transitions

        def transition_after(transition, took):
            if transition.metric == "pause":
                counts["state.pauses"] += 1
            elif transition.metric == "reject":
                counts["state.rejects"] += 1
            if transition.resumptions:
                counts["state.resumes"] += len(transition.resumptions)
                resume_transitions.append(took)

        for attr in ("request", "commit", "release", "register", "container_exit",
                     "process_exit"):
            self.wrap(SchedulerState, attr, f"state.{attr}", None, transition_after)

        pending = list(CandidateIndex.__subclasses__())
        while pending:
            index_class = pending.pop()
            pending.extend(index_class.__subclasses__())
            if "pick" in vars(index_class):
                self.wrap(index_class, "pick", "policies.pick")

        self.wrap(SchedulerJournal, "record", "journal.record")
        self.wrap(SchedulerJournal, "wait_durable", "journal.wait_durable")

        real_fsync = os.fsync
        tracer = self

        def traced_fsync(fd):
            if not tracer.on:
                return real_fsync(fd)
            tracer.begin("journal.fsync")
            try:
                return real_fsync(fd)
            finally:
                tracer.end()

        self._patch(os, "fsync", traced_fsync)
        if self.activations:
            self._install_simulator()
        return self

    def _install_simulator(self) -> None:
        """One span per simulated schedule, and a count of simulator events."""
        from repro.experiments import multi
        from repro.sim.engine import Environment

        tracer = self
        run_schedule = multi.run_schedule

        def traced_schedule(*args, **kwargs):
            if not tracer.on:
                return run_schedule(*args, **kwargs)
            tracer.begin("sim.run_schedule", None, None, args[0] if args else None)
            try:
                return run_schedule(*args, **kwargs)
            finally:
                tracer.end()

        self._patch(multi, "run_schedule", traced_schedule)
        run = Environment.run
        counts = self.counts

        def counted_run(env, until=None):
            before = env.steps
            try:
                return run(env, until)
            finally:
                if tracer.on:
                    counts["sim.events"] += env.steps - before

        self._patch(Environment, "run", counted_run)

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def analyse(self, since: float = 0.0) -> "Analysis":
        """Roll-ups over spans begun at or after ``since`` (the start of the
        measured interval; set-up spans are only read by ``all_time`` queries)."""
        return Analysis([cols for cols in self.threads if len(cols)], since)

    def export(self, limit: int) -> dict[str, Any]:
        """Spans as JSON rows (at most ``limit``, threads in first-use order)."""
        rows: list[dict[str, Any]] = []
        for thread, cols in enumerate(self.threads):
            for index in range(min(len(cols), limit - len(rows))):
                parent = cols.parent[index]
                rows.append({
                    "id": f"{thread}.{index}",
                    "name": cols.name[index],
                    "start": cols.start[index],
                    "end": cols.end[index],
                    "parent": f"{thread}.{parent}" if parent >= 0 else None,
                    "rid": cols.rid[index],
                    "tag": cols.tag[index],
                })
        return {
            "spans_total": sum(len(cols) for cols in self.threads),
            "spans_written": len(rows),
            "spans": rows,
        }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


Key = tuple[int, int]  # (thread, index)


class Analysis:
    """Self times, cross-thread attachment and per-layer roll-ups."""

    def __init__(self, threads: list[Columns], since: float = 0.0) -> None:
        self.threads = threads
        self.since = since
        self.children: dict[Key, list[Key]] = defaultdict(list)
        self.self_time: dict[Key, float] = {}
        self.roots: list[Key] = []
        self.by_name: dict[str, list[Key]] = defaultdict(list)
        # A span still open when tracing stopped (a thread blocked in recv)
        # is dropped; what it enclosed becomes top-level.
        for t, cols in enumerate(threads):
            for i in range(len(cols)):
                if not cols.end[i]:
                    continue
                took = cols.end[i] - cols.start[i]
                self.by_name[cols.name[i]].append((t, i))
                self.self_time[(t, i)] = self.self_time.get((t, i), 0.0) + took
                parent = cols.parent[i]
                if parent >= 0 and cols.end[parent]:
                    self.children[(t, parent)].append((t, i))
                    self.self_time[(t, parent)] = self.self_time.get((t, parent), 0.0) - took
                else:
                    self.roots.append((t, i))
        self._inherit_batch_containers()
        self._attach_daemon_spans()

    def took(self, key: Key) -> float:
        cols = self.threads[key[0]]
        return cols.end[key[1]] - cols.start[key[1]]

    def _inherit_batch_containers(self) -> None:
        """A batch_begin serves the container of the frame handled next."""
        for t, i in self.roots:
            cols = self.threads[t]
            if cols.name[i] != "service.batch_begin":
                continue
            for later in range(i + 1, len(cols)):
                if cols.parent[later] < 0:
                    cols.cid[i] = cols.cid[later]
                    break

    def _attach_daemon_spans(self) -> None:
        owners: dict[str, list[tuple[float, float, Key]]] = defaultdict(list)
        for t, cols in enumerate(self.threads):
            for i, name in enumerate(cols.name):
                if name in BLOCKING and cols.cid[i] is not None and cols.end[i]:
                    owners[cols.cid[i]].append((cols.start[i], cols.end[i], (t, i)))
        for intervals in owners.values():
            intervals.sort()
        for key in self.roots:
            cols, i = self.threads[key[0]], key[1]
            if layer_of(cols.name[i]) not in DAEMON_LAYERS:
                continue
            intervals = owners.get(cols.cid[i])
            if not intervals:
                continue
            at = bisect.bisect_right(intervals, (cols.start[i], float("inf"))) - 1
            if at < 0:
                continue
            start, end, owner = intervals[at]
            if start <= cols.start[i] and cols.end[i] <= end:
                self.children[owner].append(key)
                self.self_time[owner] -= self.took(key)

    # -- queries --------------------------------------------------------------

    def _matching(self, name: str, tag: str | None, since: float):
        for t, i in self.by_name.get(name, ()):
            cols = self.threads[t]
            if cols.start[i] >= since and (tag is None or cols.tag[i] == tag):
                yield t, i

    def named(self, name: str, tag: str | None = None, all_time: bool = False) -> list[float]:
        """Durations of every finished span called ``name``."""
        since = 0.0 if all_time else self.since
        return [self.took(key) for key in self._matching(name, tag, since)]

    def self_of(self, name: str) -> list[float]:
        return [self.self_time[key] for key in self._matching(name, None, self.since)]

    def trees(self, root_name: str) -> tuple[int, float, dict[str, float]]:
        """(count, total root time, self time per layer) over every tree
        rooted at a top-level span called ``root_name``."""
        count, total = 0, 0.0
        layers: dict[str, float] = defaultdict(float)
        for key in self.roots:
            cols, i = self.threads[key[0]], key[1]
            if cols.name[i] != root_name or cols.start[i] < self.since:
                continue
            count += 1
            total += self.took(key)
            pending = [key]
            while pending:
                node = pending.pop()
                layer = layer_of(self.threads[node[0]].name[node[1]])
                layers[layer] += max(self.self_time[node], 0.0)
                pending.extend(self.children.get(node, ()))
        return count, total, layers

    def busy(self, layers: tuple[str, ...]) -> float:
        """Total time of top-level spans of these layers (children included)."""
        return sum(
            self.took(key)
            for key in self.roots
            if layer_of(self.threads[key[0]].name[key[1]]) in layers
            and self.threads[key[0]].start[key[1]] >= self.since
        )

    def batch_sizes(self) -> list[int]:
        """Frames handled between each batch_begin and its batch_commit."""
        sizes = []
        size = None
        thread = -1
        for t, i in self.roots:
            cols = self.threads[t]
            if t != thread:
                thread, size = t, None
            if cols.start[i] < self.since:
                continue
            name = cols.name[i]
            if name == "service.batch_begin":
                size = 0
            elif name == "service.handle" and size is not None:
                size += 1
            elif name == "service.batch_commit" and size is not None:
                sizes.append(size)
                size = None
        return sizes
