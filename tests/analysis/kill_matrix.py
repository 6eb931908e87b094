"""The rule x mutant kill matrix of ``repro.analysis`` (DESIGN.md §12).

Each row reintroduces one bug of a class a check claims, as text edits to
a copy of the real sources, and says where the class comes from and what
goes wrong while the bug is present.  The columns are every check that
could catch it:

- one per static rule id (computed live: ``static``);
- ``san-race`` / ``san-lock-order``, what ``make san`` reports
  (``san_lane``, recorded);
- ``tier1``: the first test that fails in plain tier-1 — every test
  outside ``tests/analysis``, so a check cannot count twice through the
  self-clean test (recorded);
- ``ruff``: the rule of CI's ``ruff check`` selection that flags the
  mutant, taken from the rule's definition rather than from a ruff run
  (unverified).

``tests/analysis/test_kill_matrix.py`` recomputes the static columns
(and, for the sanitizer's own rows, the sanitizer over a small driver)
in tier-1 and checks that every kept check kills a row nothing else
kills.  The recorded columns come from this script, one scratch copy of
the repository per row::

    PYTHONPATH=src python tests/analysis/kill_matrix.py --out rows.jsonl [ROW ...]

A run with no result within ``HANG_S`` seconds is a hang.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

WRONG_RESULT = "wrong result"
HANG = "hang"
LOST_SIGNAL = "lost signal"

#: The sanitizer's two report kinds.
SAN_KINDS = ("san-race", "san-lock-order")


@dataclass(frozen=True)
class Mutant:
    """One row: a bug of the class ``check`` claims, planted by ``edits``."""

    id: str
    check: str
    source: str
    harm: str
    what: str
    #: ``(repo-relative path, old text, new text)``; each old text occurs
    #: exactly once in its file.
    edits: tuple[tuple[str, str, str], ...]
    #: Static rule ids that report the mutant (checked live in tier-1).
    static: frozenset[str] = frozenset()
    #: Sanitizer kinds ``make san`` reports on the mutant (recorded).
    san_lane: frozenset[str] = frozenset()
    #: First failing plain tier-1 test, or ``None`` when all pass (recorded).
    tier1: str | None = None
    #: The ruff rule (CI's selection) that flags the mutant (unverified).
    ruff: str | None = None
    notes: str = field(default="", compare=False)

    def killers(self) -> frozenset[str]:
        """Every column that kills this row."""
        columns = set(self.static) | set(self.san_lane)
        if self.tier1 is not None:
            columns.add("tier-1")
        if self.ruff is not None:
            columns.add("ruff")
        return frozenset(columns)

    def patched(self, root: Path) -> dict[str, str]:
        """``repo-relative path -> edited text`` of the files the edits
        touch, read from the tree at ``root``; nothing is written."""
        texts: dict[str, str] = {}
        for rel, old, new in self.edits:
            text = texts.get(rel) or (root / rel).read_text()
            if text.count(old) != 1:
                raise ValueError(f"{self.id}: edit target occurs "
                                 f"{text.count(old)} times in {rel}")
            texts[rel] = text.replace(old, new)
        return texts

    def apply(self, root: Path) -> None:
        """Apply the edits to the tree at ``root`` in place."""
        for rel, text in self.patched(root).items():
            (root / rel).write_text(text)


_CORE = "src/repro/core/scheduler/core.py"
_STATE = "src/repro/core/scheduler/state.py"
_POLICIES = "src/repro/core/scheduler/policies.py"
_JOURNAL = "src/repro/core/scheduler/journal.py"
_DAEMON = "src/repro/core/scheduler/daemon.py"
_SERVICE = "src/repro/core/scheduler/service.py"
_MULTIGPU = "src/repro/cluster/multigpu.py"
_LOOP = "src/repro/ipc/loop.py"
_RETRY = "src/repro/ipc/retry.py"
_PROTOCOL = "src/repro/ipc/protocol.py"
_WRAPPER = "src/repro/core/wrapper/module.py"
_STAGES = "src/repro/obs/stages.py"
_PROTOCOL_DOC = "docs/PROTOCOL.md"

#: The seed's paused_containers(): filters the snapshot returned by
#: containers() after its lock is released.
_SEED_PAUSED = '''\
    def paused_containers(self) -> list[ContainerRecord]:
        return sorted(
            [r for r in self.containers() if r.paused],
            key=lambda r: r.created_seq,
        )
'''
_PAUSED_NOW = '''\
    def paused_containers(self) -> list[ContainerRecord]:
        # One consistent snapshot under a single lock acquisition (the seed
        # filtered the result of containers(), taking the lock twice and
        # allowing a resume to slip between the two reads).
        with self._lock:
            return [r for r in self.state.records() if r.paused]
'''

_QUIESCENT = """\
        with scheduler._lock:
            with self._cond:
                drained = self._queue
                self._queue = []
            state = _snapshot_and_trim(scheduler)
"""

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        id="purity-wall-clock",
        check="purity",
        source="PR 4, DESIGN.md §11",
        harm=WRONG_RESULT,
        tier1="tests/core/test_exited_containers.py::test_history_leaves_no_trace[FIFO]",
        what="a transition stamps its event with the wall clock instead of "
        "the injected `now`: simulated runs and replays stop being a "
        "function of their inputs",
        edits=(
            (_STATE, "from dataclasses import dataclass, field\n",
             "import time\nfrom dataclasses import dataclass, field\n"),
            (_STATE, "            ContainerRegistered(\n                time=now,",
             "            ContainerRegistered(\n                time=time.monotonic(),"),
        ),
    ),
    Mutant(
        id="purity-policy-rng",
        check="purity",
        source="PR 4, DESIGN.md §11",
        harm=WRONG_RESULT,
        tier1="tests/core/test_golden_traces.py::"
        "TestGoldenTraces::test_trace_is_byte_identical_to_seed[Rand]",
        what="Rand's select() draws from the global `random` module instead "
        "of the injected generator: a seeded run no longer replays",
        edits=(
            (_POLICIES, "import heapq\n", "import heapq\nimport random\n"),
            (_POLICIES, "index = int(self._rng.integers(0, len(paused)))",
             "index = random.randrange(len(paused))"),
        ),
    ),
    Mutant(
        id="purity-global-counter",
        check="purity",
        source="PR 4, DESIGN.md §11",
        harm=WRONG_RESULT,
        tier1="tests/core/test_exited_containers.py::test_history_leaves_no_trace[FIFO]",
        what="`created_seq` is drawn from a module-global counter: two "
        "schedulers in one process (devices, a restore beside the live "
        "state) number their containers from one sequence",
        edits=(
            (_STATE, "from dataclasses import dataclass, field\n",
             "from dataclasses import dataclass, field\n\n_REGISTRATIONS = 0\n"),
            (_STATE, """\
        if kind is ContainerRegistered:
            self._seq += 1
            record = ContainerRecord(
                container_id=event.container_id,
                limit=event.limit,
                created_seq=self._seq,""", """\
        if kind is ContainerRegistered:
            global _REGISTRATIONS
            _REGISTRATIONS += 1
            self._seq += 1
            record = ContainerRecord(
                container_id=event.container_id,
                limit=event.limit,
                created_seq=_REGISTRATIONS,"""),
        ),
    ),
    Mutant(
        id="state-escape-live-view",
        check="state-escape",
        source="PR 10, DESIGN.md §16",
        harm=WRONG_RESULT,
        static=frozenset({"state-escape"}),
        what="`SchedulerState.records()` returns the live `.values()` view: "
        "a caller iterating outside the lock sees the dict change under it",
        edits=((_STATE, "return tuple(self._containers.values())",
                "return self._containers.values()"),),
    ),
    Mutant(
        id="lock-discipline-effects-under-lock",
        check="lock-discipline",
        source="PR 4, DESIGN.md §11",
        harm=HANG,
        notes="make san hangs as well",
        tier1="hang (no result in 300 s)",
        static=frozenset({"lock-discipline"}),
        what="`_transact` runs the transition's effects (durability wait, "
        "resume callbacks) before releasing the scheduler lock: every "
        "producer waits out one fsync, and a callback's socket write "
        "holds the lock",
        edits=((_CORE, """\
            done = _perf_counter() if timed else 0.0
        if timed:
            clock.add(_stages.S_LOCK, acquired - began)
            clock.add(_stages.S_TRANSITION, done - acquired)
        self._finish(transition)
""", """\
            done = _perf_counter() if timed else 0.0
            self._finish(transition)
        if timed:
            clock.add(_stages.S_LOCK, acquired - began)
            clock.add(_stages.S_TRANSITION, done - acquired)
"""),),
    ),
    Mutant(
        id="lock-discipline-sync-write",
        check="lock-discipline",
        source="PR 4, DESIGN.md §11 (group commit)",
        harm=HANG,
        tier1="tests/core/test_cli_recover.py::test_table_says_what_a_restore_replays",
        what="the journal listener writes and fsyncs each event itself, "
        "under the scheduler lock, in group mode (and queues sync mode's "
        "for a leader it never gets)",
        edits=((_JOURNAL, """\
        if self.mode == "sync":
            self._write_items([("event", event)])
            return
        with self._cond:
            self._enqueued += 1""", """\
        if self.mode != "sync":
            self._write_items([("event", event)])
            return
        with self._cond:
            self._enqueued += 1"""),),
    ),
    Mutant(
        id="lock-discipline-swap-under-lock",
        check="lock-discipline",
        source="PR 8, DESIGN.md §14",
        harm=HANG,
        static=frozenset({"lock-discipline"}),
        what="compaction holds the scheduler lock across the sidecar swap "
        "(copy, fsync, rename): every producer stalls for the rewrite",
        edits=((_JOURNAL, """\
            sidecar, offset = self._prepare_sidecar()
            self._swap_in(sidecar, offset)
""", """\
            sidecar, offset = self._prepare_sidecar()
            with self._scheduler._lock:
                self._swap_in(sidecar, offset)
"""),),
    ),
    Mutant(
        id="double-lock-seed-paused",
        check="double-lock",
        source="PR 4 (the seed's paused_containers)",
        harm=WRONG_RESULT,
        static=frozenset({"double-lock"}),
        what="`paused_containers()` filters `containers()` after its lock "
        "is released: a resume between the two reads reports a running "
        "container as paused",
        edits=((_CORE, _PAUSED_NOW, _SEED_PAUSED),),
    ),
    Mutant(
        id="lock-order-reversed-nesting",
        check="lock-order",
        source="PR 1, journal docstring",
        harm=HANG,
        san_lane=frozenset({"san-lock-order"}),
        what="the leader's quiescent snapshot takes `_cond` before the "
        "scheduler lock, the reverse of every producer: the two deadlock",
        edits=((_JOURNAL, _QUIESCENT, """\
        with self._cond:
            with scheduler._lock:
                drained = self._queue
                self._queue = []
                state = _snapshot_and_trim(scheduler)
"""),),
    ),
    Mutant(
        id="lock-order-placements-reversal",
        check="lock-order",
        source="DESIGN.md §12 (lock-order's MultiGpuScheduler scope)",
        harm=HANG,
        san_lane=frozenset({"san-lock-order"}),
        what="`container_exit` calls into the device while it holds "
        "`_placements_lock`, and the invariant check reads the placements "
        "while it holds a device's lock: an exit and a check on two "
        "threads deadlock",
        edits=(
            (_MULTIGPU, """\
        with self._placements_lock:
            ordinal = self._placements.pop(container_id, None)
        if ordinal is None:
            return 0
        return self.schedulers[ordinal].container_exit(container_id)
""", """\
        with self._placements_lock:
            ordinal = self._placements.pop(container_id, None)
            if ordinal is None:
                return 0
            return self.schedulers[ordinal].container_exit(container_id)
"""),
            (_MULTIGPU, """\
        for scheduler in self.schedulers:
            scheduler.check_invariants()
""", """\
        for ordinal, scheduler in enumerate(self.schedulers):
            scheduler.check_invariants()
            with scheduler._lock:
                with self._placements_lock:
                    for record in scheduler.state.records():
                        assert self._placements[record.container_id] == ordinal
"""),
        ),
    ),
    Mutant(
        id="loop-blocking-backoff-sleep",
        check="loop-blocking",
        source="PR 3, DESIGN.md §10",
        harm=HANG,
        static=frozenset({"loop-blocking"}),
        what="the selector thread backs off a second after a failed "
        "`select`: every connection freezes for that second",
        edits=((_LOOP, """\
                events = selector.select(timeout=1.0)
            except OSError:
                continue
""", """\
                events = selector.select(timeout=1.0)
            except OSError:
                time.sleep(1.0)
                continue
"""),),
    ),
    Mutant(
        id="loop-blocking-inline-dispatch",
        check="loop-blocking",
        source="PR 3, DESIGN.md §10",
        harm=HANG,
        what="the selector thread dispatches a readable batch itself instead "
        "of queueing it for the dispatch thread: the handler's lock wait, "
        "fsync wait and reply `sendall` all run on the one I/O thread",
        notes="with one dispatch thread, `make san` sees the selector and "
        "the dispatch thread trading writes; "
        "`test_handlers_run_on_the_dispatch_thread_only` fails too",
        tier1="tests/core/test_journal.py::TestWaitDurable::"
        "test_failed_write_lets_no_reply_of_the_turn_leave",
        san_lane=frozenset({"san-race"}),
        edits=((_LOOP, """\
        if frames:
            self._enqueue(state, frames)
""", """\
        if frames:
            self._enqueue(state, frames)
            self._run_turn()
"""),),
    ),
    Mutant(
        id="thread-spawn-undeclared",
        check="thread-spawn",
        source="PR 10, DESIGN.md §16",
        harm=WRONG_RESULT,
        notes="the directory race decides which teardown test fails first; "
        "three of three runs of test_daemon_lifecycle.py failed",
        tier1="tests/core/test_daemon_lifecycle.py::"
        "TestContainerDirectories::test_shared_prefix_ids_get_their_own_sockets",
        what="container teardown deletes the socket directory on an "
        "undeclared fire-and-forget thread: `container_exit` returns "
        "while the directory still exists",
        edits=((_DAEMON, """\
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
""", """\
        if directory is not None:
            threading.Thread(
                target=shutil.rmtree, args=(directory, True), daemon=True
            ).start()
"""),),
    ),
    Mutant(
        id="protocol-drift-undeclared-field",
        check="protocol-drift",
        source="PR 5, docs/PROTOCOL.md",
        harm=LOST_SIGNAL,
        static=frozenset({"protocol-drift"}),
        what="the wrapper sends a field the schema never declared; both "
        "codecs carry it and the daemon ignores it without a word",
        edits=((_WRAPPER, "protocol.MSG_ALLOC_REQUEST, size=adjusted_size, api=api",
                "protocol.MSG_ALLOC_REQUEST, size=adjusted_size, api=api, "
                "stream=0"),),
    ),
    Mutant(
        id="protocol-drift-misspelled-match",
        check="protocol-drift",
        source="PR 5, docs/PROTOCOL.md",
        harm=WRONG_RESULT,
        tier1="tests/core/test_container_socket_binding.py::"
        "test_a_container_socket_cannot_exit_or_register_another_container",
        static=frozenset({"protocol-drift"}),
        what="the control socket matches registration against a misspelled "
        "type literal: no container can register",
        edits=((_DAEMON, "if msg_type == protocol.MSG_REGISTER_CONTAINER:",
                'if msg_type == "register_containers":'),),
    ),
    Mutant(
        id="protocol-drift-handler-typo",
        check="protocol-drift",
        source="PR 5, docs/PROTOCOL.md",
        harm=LOST_SIGNAL,
        notes="a first run beside a concurrent one failed a Fig. 4 timing "
        "test; alone, tier-1 passed",
        static=frozenset({"protocol-drift"}),
        what="the service's heartbeat handler is misspelled, so no "
        "heartbeat is ever dispatched (notifications get no reply)",
        edits=((_SERVICE, "def _on_heartbeat(", "def _on_hearbeat("),),
    ),
    Mutant(
        id="protocol-drift-handwritten-tags",
        check="protocol-drift",
        source="PR 6 (binary codec)",
        harm=WRONG_RESULT,
        tier1="tests/core/test_container_socket_binding.py::"
        "test_verb_by_id_by_socket_matrix[control]",
        static=frozenset({"protocol-drift"}),
        what="the binary tag table is a hand-written copy that lacks "
        "`heartbeat`: the binary codec cannot carry the verb",
        edits=((_PROTOCOL, """\
MESSAGE_TAGS: dict[str, int] = {
    name: index + 1 for index, name in enumerate(sorted(REQUEST_FIELDS))
}""", """\
MESSAGE_TAGS: dict[str, int] = {
    "alloc_abort": 1, "alloc_commit": 2, "alloc_release": 3,
    "alloc_request": 4, "container_exit": 5, "hello": 7,
    "mem_get_info": 8, "process_exit": 9, "register_container": 10,
}"""),),
    ),
    Mutant(
        id="protocol-doc-drift-missing-row",
        check="protocol-doc-drift",
        source="PR 5, docs/PROTOCOL.md",
        harm=LOST_SIGNAL,
        static=frozenset({"protocol-doc-drift"}),
        what="the wire reference loses the `heartbeat` row: a client "
        "written from the document never sends the verb the reaper "
        "needs from an idle container",
        edits=((_PROTOCOL_DOC, "| `heartbeat` | `container_id` | proof of life "
                "from an idle container (any other traffic also counts; see "
                "the liveness monitor) |\n", ""),),
    ),
    Mutant(
        id="metric-drift-off-convention",
        check="metric-drift",
        source="PR 2, DESIGN.md §9",
        harm=LOST_SIGNAL,
        tier1="tests/obs/test_consumed_names.py::"
        "test_every_metric_family_doctor_and_top_read_is_declared",
        what="the stage histogram is renamed off the `convgpu_` prefix: "
        "`repro top` and `repro doctor`, which read it by name, show no "
        "stages",
        edits=((_STAGES, '    "convgpu_stage_seconds",\n',
                '    "stage_seconds",\n'),),
    ),
    Mutant(
        id="metric-drift-conflicting-redeclare",
        check="metric-drift",
        source="PR 2, DESIGN.md §9",
        harm=WRONG_RESULT,
        tier1="tests/conftest.py (import error)",
        what="a second module declares an existing family with another "
        "kind: the registry raises at import",
        edits=((_RETRY, '    "convgpu_ipc_redials_total",\n',
                '    "convgpu_open_connections",\n'),),
    ),
    Mutant(
        id="event-drift-unknown-slot",
        check="event-drift",
        source="PR 7, DESIGN.md §13",
        harm=WRONG_RESULT,
        tier1="tests/conftest.py (import error)",
        what="an event declares a payload slot the record does not have: "
        "`declare` raises at import",
        edits=((_LOOP, '_EV_ACCEPT = RECORDER.declare("io.accept", a="fd")',
                '_EV_ACCEPT = RECORDER.declare("io.accept", fd="fd")'),),
    ),
    Mutant(
        id="event-drift-conflicting-redeclare",
        check="event-drift",
        source="PR 7, DESIGN.md §13",
        harm=WRONG_RESULT,
        tier1="tests/conftest.py (import error)",
        what="two modules declare one event type with different payloads: "
        "`declare` raises at import",
        edits=((_DAEMON, '_EV_REAP = RECORDER.declare("daemon.reap", s="container")',
                '_EV_REAP = RECORDER.declare("sched.pause", s="reaped")'),),
    ),
    Mutant(
        id="event-drift-string-record",
        check="event-drift",
        source="PR 7, DESIGN.md §13",
        harm=WRONG_RESULT,
        tier1="tests/cluster/test_multigpu_facade.py::"
        "TestPlacementThroughNvidiaDocker::test_same_workload_serializes_on_one_gpu",
        what="`record()` is passed the event's name instead of its tag: the "
        "ring's struct pack raises on the first pause",
        edits=((_CORE, "_REC.record(_EV_PAUSE, s=_container_of(transition))",
                '_REC.record("sched.pause", s=_container_of(transition))'),),
    ),
    Mutant(
        id="event-drift-off-convention",
        check="event-drift",
        source="PR 7, DESIGN.md §13",
        harm=LOST_SIGNAL,
        tier1="tests/obs/test_consumed_names.py::"
        "test_every_event_doctor_counts_is_declared",
        what="the frame-error event is renamed off the dotted convention: "
        "`repro doctor`, which counts it by name, reports no frame errors",
        edits=((_LOOP, 'RECORDER.declare("io.frame_error", s="error", a="fd")',
                'RECORDER.declare("io_frame_error", s="error", a="fd")'),),
    ),
    Mutant(
        id="bare-except-in-retry",
        check="bare-except",
        source="PR 5, DESIGN.md §8",
        harm=LOST_SIGNAL,
        ruff="E722",
        what="the retry layer's close-path handler becomes a bare `except:`: "
        "a KeyboardInterrupt or SystemExit raised there is swallowed",
        edits=((_RETRY, """\
            # from close() carries no new information.
            except Exception:
                pass""", """\
            # from close() carries no new information.
            except:
                pass"""),),
    ),
    Mutant(
        id="swallowed-exception-reaper",
        check="swallowed-exception",
        source="PR 5, DESIGN.md §8",
        harm=LOST_SIGNAL,
        static=frozenset({"swallowed-exception"}),
        what="the reaper's failed sweep is swallowed without its "
        "`reap_sweep_failed` error: orphans pile up with no trace",
        edits=((_DAEMON, """\
            except Exception as exc:
                # The reaper thread must survive a failed sweep; individual
                # failures are logged and retried on the next interval.
                self.log.error("reap_sweep_failed", error=str(exc))
                continue""", """\
            except Exception:
                continue"""),),
    ),
    Mutant(
        id="san-race-unlocked-transact",
        check="san-race",
        source="PR 10, DESIGN.md §16",
        harm=WRONG_RESULT,
        tier1="tests/core/test_lock_discipline.py::"
        "test_sync_mode_fsyncs_under_the_lock_proving_the_spy_works",
        san_lane=frozenset({"san-race"}),
        what="`_transact` runs the transition without the scheduler mutex: "
        "two transports' transitions interleave on the shared state",
        edits=((_CORE, """\
        with self._lock:
            acquired = _perf_counter() if timed else 0.0""", """\
        if True:
            acquired = _perf_counter() if timed else 0.0"""),),
    ),
    Mutant(
        id="san-race-unlocked-enqueue",
        check="san-race",
        source="PR 3, DESIGN.md §10",
        harm=HANG,
        san_lane=frozenset({"san-race"}),
        what="the selector thread queues a batch and tests the connection's "
        "`scheduled` flag before taking the loop's lock: racing the "
        "dispatch thread that is just taking the connection's frames, it "
        "sees the connection still scheduled, and the batch is never "
        "dispatched",
        edits=((_LOOP, """\
        with self._cond:
            state.pending.append(item)
            if state.scheduled:
                return
            state.scheduled = True
""", """\
        state.pending.append(item)
        if state.scheduled:
            return
        state.scheduled = True
        with self._cond:
"""),),
    ),
    Mutant(
        id="san-race-untracked-container",
        check="san-race",
        source="DESIGN.md §10 (idempotent container teardown)",
        harm=WRONG_RESULT,
        san_lane=frozenset({"san-race"}),
        what="registration adds a container's server and directory without "
        "the teardown lock: a teardown between the two writes stops the "
        "server and leaves the directory entry, so a later registration of "
        "the id gets no socket",
        edits=((_DAEMON, """\
        with self._teardown_lock:
            self._container_servers[container_id] = server""", """\
        if True:
            self._container_servers[container_id] = server"""),),
    ),
    Mutant(
        id="san-lock-order-dynamic-reversal",
        check="san-lock-order",
        source="PR 10, DESIGN.md §16",
        harm=HANG,
        san_lane=frozenset({"san-lock-order"}),
        what="the leader drains the queue and snapshots through a helper "
        "that takes the scheduler lock while `_cond` is held: the reverse "
        "of every producer, behind a call the static graph does not "
        "follow, and the two deadlock",
        edits=(
            (_JOURNAL, _QUIESCENT, """\
        with self._cond:
            drained, state = self._drain_and_snapshot(scheduler)
"""),
            (_JOURNAL, "    def _maybe_snapshot_at_quiescent_point(\n",
             """\
    def _drain_and_snapshot(self, scheduler):
        with scheduler._lock:
            drained = self._queue
            self._queue = []
            return drained, _snapshot_and_trim(scheduler)

    def _maybe_snapshot_at_quiescent_point(
"""),
        ),
    ),
)

BY_ID = {mutant.id: mutant for mutant in MUTANTS}


# ---------------------------------------------------------------------------
# The recorded columns: one scratch copy per row
# ---------------------------------------------------------------------------

#: The tier-1 tests that run the checks themselves; plain tier-1 leaves
#: them out so that no check is credited twice.
PLAIN_TIER1_EXCLUDES = ("--ignore=tests/analysis",)

#: Seconds after which a run counts as a hang.
HANG_S = 300.0

_FAILED_RE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
_SAN_RE = re.compile(r"(\d+) race\(s\), (\d+) lock-order violation\(s\)")


def _copy_tree(src: Path, dst: Path) -> None:
    shutil.copytree(
        src, dst,
        ignore=shutil.ignore_patterns(".git", "__pycache__", "*.pyc",
                                      ".pytest_cache", ".hypothesis"),
    )


def _run(cmd: list[str], cwd: Path) -> tuple[str, int | None, float]:
    """Output, exit status (``None`` on a hang) and seconds of one run.

    A hung run is killed with its whole process group (``make`` starts
    the interpreter as a grandchild).
    """
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    began = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=HANG_S)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        status = None
    return out, status, time.monotonic() - began


def measure(mutant: Mutant, tree: Path) -> dict:
    """Plain tier-1 and ``make san`` on a scratch copy with ``mutant``."""
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as tmp:
        root = Path(tmp) / "repo"
        _copy_tree(tree, root)
        mutant.apply(root)
        out, status, tier1_s = _run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *PLAIN_TIER1_EXCLUDES],
            root,
        )
        failed = _FAILED_RE.search(out)
        if status is None:
            tier1 = f"hang (no result in {HANG_S:.0f} s)"
        elif status == 0:
            tier1 = None
        elif failed is not None:
            tier1 = failed.group(1)
        elif "ImportError while loading conftest" in out:
            tier1 = "tests/conftest.py (import error)"
        else:
            tier1 = f"pytest exit status {status}"
        san_out, san_status, san_s = _run(
            ["make", "-C", str(root), "san", f"PYTHON={sys.executable}"], root
        )
        counts = _SAN_RE.search(san_out)
        kinds = sorted(set(re.findall(r"\[(san-race|san-lock-order)\]", san_out)))
        san_failed = _FAILED_RE.search(san_out)
    return {
        "id": mutant.id,
        "tier1": tier1,
        "tier1_s": round(tier1_s, 1),
        "san_lane": kinds,
        "san_summary": counts.group(0) if counts else
        ("hang" if san_status is None else "no summary"),
        "san_failed": san_failed.group(1) if san_failed else None,
        "san_s": round(san_s, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", help="row ids (default: every row)")
    parser.add_argument("--tree", type=Path, default=REPO_ROOT,
                        help="the checkout to copy (default: this one)")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON lines file the results are appended to")
    args = parser.parse_args(argv)
    rows = [BY_ID[name] for name in args.rows] if args.rows else list(MUTANTS)
    for mutant in rows:
        result = measure(mutant, args.tree)
        with args.out.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
