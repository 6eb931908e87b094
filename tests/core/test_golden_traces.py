"""Golden-trace equivalence tests for the scheduler core refactor.

The core/runtime split (DESIGN.md §11) rebuilt the scheduler's decision
engine as a pure transition core with policy-maintained candidate indexes.
The refactor must be *behaviour-preserving*: the exact event sequence the
seed implementation emitted for a fixed workload — every grant, pause,
resume, redistribution pick and wedge reclaim, with identical timestamps
and amounts — defines the Fig. 7/8 schedules, so it is pinned here
byte-for-byte.

``tests/core/golden/trace_<POLICY>.jsonl`` holds the journal-codec encoding
of the full event log produced by :func:`drive_scenario` under the seed
(pre-refactor) implementation, one JSON object per line.  The test replays
the identical scenario on the current code and compares the serialized
log byte-identically.  Any divergence — a different policy pick, a
reordered event, a changed float — fails loudly.

Regenerate (only when the *intended* semantics change, never to paper over
an accidental divergence)::

    PYTHONPATH=src python tests/core/test_golden_traces.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.events import (
    AllocationPaused,
    AllocationRejected,
    AllocationResumed,
    MemoryAssigned,
)
from repro.core.scheduler.journal import encode_event
from repro.core.scheduler.policies import PAPER_POLICIES, make_policy
from repro.ipc import protocol
from repro.units import GiB, MiB

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: One fixed seed per policy keeps the four traces independent.
SEED = 20170905  # the paper's venue year/month, arbitrary but fixed
TOTAL_MEMORY = 8 * GiB
N_CONTAINERS = 10
N_OPS = 600


class _TickClock:
    """Deterministic clock advancing a fixed step per scheduler call."""

    def __init__(self) -> None:
        self.time = 0.0

    def __call__(self) -> float:
        return self.time

    def tick(self) -> None:
        self.time += 1.0


def drive_scenario(policy_name: str, seed: int = SEED) -> GpuMemoryScheduler:
    """Run a fixed pseudo-random workload against one policy.

    The op mix is chosen to exercise every transition: registration with
    partial assignment, grants, pauses (over-assigned requests), rejects
    (over-limit requests), commits, aborts, releases, process exits,
    container exits (redistribution) and — when the policy's picks strand
    partial reservations — the all-paused wedge reclaim.  Resumed grants are
    committed by the harness exactly as the wrapper would.  Every
    registration uses a fresh name (``c000``–``c040``, ``wa``–``wc``,
    ``wh``); the re-registration of an exited name is covered by
    ``test_reference_model.py`` and ``test_exited_containers.py``.
    """
    rng = np.random.default_rng(seed)
    clock = _TickClock()
    policy = make_policy(policy_name, np.random.default_rng(seed + 1))
    sched = GpuMemoryScheduler(TOTAL_MEMORY, policy, clock=clock)

    next_address = [0x1000]
    # Live harness bookkeeping, per container id.
    open_ids: list[str] = []
    committed: dict[str, list[tuple[int, int]]] = {}  # cid -> [(addr, pid)]
    inflight: dict[str, list[tuple[int, int]]] = {}  # cid -> [(pid, size)]
    resumed: list[tuple[str, int, int]] = []  # (cid, pid, size) grants to commit
    limits: dict[str, int] = {}
    exited = 0

    def on_resume(cid: str, pid: int, size: int):
        def deliver(payload: dict) -> None:
            if payload.get("decision") == "grant":
                resumed.append((cid, pid, size))

        return deliver

    def drain_resumed() -> None:
        while resumed:
            cid, pid, size = resumed.pop(0)
            if cid not in open_ids:
                continue
            clock.tick()
            addr = next_address[0]
            next_address[0] += 0x1000
            sched.commit_allocation(cid, pid, addr, size)
            committed[cid].append((addr, pid))

    def register(index: int) -> None:
        cid = f"c{index:03d}"
        limit = int(rng.integers(1, 9)) * 512 * MiB
        clock.tick()
        sched.register_container(cid, limit)
        open_ids.append(cid)
        committed[cid] = []
        inflight[cid] = []
        limits[cid] = limit

    for i in range(N_CONTAINERS):
        register(i)

    spawned = N_CONTAINERS
    for _ in range(N_OPS):
        if not open_ids:
            register(spawned)
            spawned += 1
        op = rng.choice(
            ["alloc", "alloc", "alloc", "commit", "release", "abort",
             "pexit", "cexit", "register"],
        )
        cid = open_ids[int(rng.integers(0, len(open_ids)))]
        pid = int(rng.integers(1, 4))  # a few pids per container
        clock.tick()
        if op == "alloc":
            # Mostly modest sizes; occasionally over-limit to hit rejects.
            if rng.random() < 0.1:
                size = limits[cid] + 64 * MiB
            else:
                size = int(rng.integers(1, 13)) * 64 * MiB
            decision = sched.request_allocation(
                cid, pid, size, on_resume=on_resume(cid, pid, size)
            )
            if decision.granted:
                inflight[cid].append((pid, size))
        elif op == "commit" and inflight[cid]:
            pid, size = inflight[cid].pop(0)
            addr = next_address[0]
            next_address[0] += 0x1000
            sched.commit_allocation(cid, pid, addr, size)
            committed[cid].append((addr, pid))
        elif op == "abort" and inflight[cid]:
            pid, size = inflight[cid].pop(0)
            sched.abort_allocation(cid, pid, size)
        elif op == "release" and committed[cid]:
            addr, pid = committed[cid].pop(0)
            sched.release_allocation(cid, pid, addr)
        elif op == "pexit":
            sched.process_exit(cid, pid)
            committed[cid] = [(a, p) for (a, p) in committed[cid] if p != pid]
        elif op == "cexit" and (len(open_ids) > 2 or exited < 40):
            sched.container_exit(cid)
            open_ids.remove(cid)
            inflight[cid].clear()
            committed[cid].clear()
            exited += 1
        elif op == "register" and spawned < N_CONTAINERS + 30:
            register(spawned)
            spawned += 1
        drain_resumed()
        sched.check_invariants()

    # Scripted wedge epilogue: close the random-phase survivors, then build
    # the all-paused stranded-reservation state so every golden trace pins
    # the ReservationReclaimed path.  The construction wedges under *every*
    # policy: when `wa` exits, the freed 5 GiB is strictly smaller than
    # both paused insufficiencies (6 and 7 GiB), so whichever container the
    # policy picks absorbs everything without resuming — all open
    # containers are left paused and the reclaim must break the tie.
    for cid in list(open_ids):
        clock.tick()
        sched.container_exit(cid)
        open_ids.remove(cid)
        drain_resumed()

    def scripted(cid: str, limit: int) -> None:
        clock.tick()
        sched.register_container(cid, limit)
        open_ids.append(cid)
        committed[cid] = []
        inflight[cid] = []
        limits[cid] = limit

    def scripted_alloc(cid: str, pid: int, size: int) -> None:
        clock.tick()
        decision = sched.request_allocation(
            cid, pid, size, on_resume=on_resume(cid, pid, size)
        )
        if decision.granted:
            inflight[cid].append((pid, size))

    def scripted_commit(cid: str) -> None:
        pid, size = inflight[cid].pop(0)
        clock.tick()
        addr = next_address[0]
        next_address[0] += 0x1000
        sched.commit_allocation(cid, pid, addr, size)
        committed[cid].append((addr, pid))

    scripted("wa", 5 * GiB)                      # running, holds 5 GiB
    scripted_alloc("wa", 90, 4 * GiB)
    scripted_commit("wa")
    scripted("wh", 1 * GiB)                      # helper: shapes wb/wc shares
    scripted_alloc("wh", 91, 512 * MiB)
    scripted_commit("wh")
    scripted("wb", 8 * GiB)                      # assigned only 2 GiB
    clock.tick()
    sched.container_exit("wh")                   # nobody paused: 1 GiB idles
    open_ids.remove("wh")
    scripted("wc", 8 * GiB)                      # assigned only that 1 GiB
    scripted_alloc("wb", 92, TOTAL_MEMORY - 256 * MiB)   # pauses (ins 6 GiB)
    scripted_alloc("wc", 93, TOTAL_MEMORY - 256 * MiB)   # pauses (ins 7 GiB)
    clock.tick()
    sched.container_exit("wa")                   # frees 5 GiB -> wedge
    open_ids.remove("wa")
    drain_resumed()
    sched.check_invariants()

    # Drain: close every container, largest reservation first, so the tail
    # exercises a burst of redistribution picks.
    for cid in sorted(open_ids, key=lambda c: (-sched.container(c).assigned, c)):
        clock.tick()
        sched.container_exit(cid)
        drain_resumed()
    sched.check_invariants()
    return sched


def serialize_trace(sched: GpuMemoryScheduler) -> str:
    """The event log in journal-codec JSON lines (the golden format)."""
    return "".join(
        json.dumps(encode_event(event), separators=(",", ":")) + "\n"
        for event in sched.log
    )


def golden_path(policy_name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"trace_{policy_name}.jsonl")


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
class TestGoldenTraces:
    def test_trace_is_byte_identical_to_seed(self, policy_name):
        path = golden_path(policy_name)
        assert os.path.exists(path), (
            f"missing golden {path}; generate with "
            f"`PYTHONPATH=src python {__file__}`"
        )
        with open(path, "r", encoding="utf-8", newline="") as fh:
            golden = fh.read()
        actual = serialize_trace(drive_scenario(policy_name))
        assert actual == golden, (
            f"{policy_name}: scheduler event trace diverged from the seed "
            f"semantics (first differing line: "
            f"{_first_divergence(golden, actual)})"
        )

    def test_scenario_exercises_the_interesting_paths(self, policy_name):
        """The goldens only guard what the scenario actually reaches."""
        sched = drive_scenario(policy_name)
        log = sched.log
        assert len(log.of_type(AllocationPaused)) >= 10
        assert len(log.of_type(AllocationResumed)) >= 10
        assert len(log.of_type(AllocationRejected)) >= 5
        assert len(log.of_type(MemoryAssigned)) >= 10


class TestWireCodecInvariance:
    """The wire is transparent to scheduler semantics.

    The same deterministic workload, driven over a live socket under every
    {private, shared loop} x {wire codec} cell, must leave the scheduler with
    a byte-identical serialized event log — the binary codec and the batch
    dispatch path are allowed to change performance, never a decision, an
    ordering, or a float.
    """

    WORKLOAD_POLICY = "Rand"  # any paper policy works; rng is seeded

    def _drive_over_wire(self, loop, client_codec: str, path: str) -> str:
        from repro.core.scheduler.service import SchedulerService
        from repro.ipc.unix_socket import UnixSocketClient, UnixSocketServer

        policy = make_policy(self.WORKLOAD_POLICY, np.random.default_rng(SEED))
        sched = GpuMemoryScheduler(TOTAL_MEMORY, policy, clock=lambda: 0.0)
        service = SchedulerService(sched)
        with UnixSocketServer(path, service, loop=loop):
            with UnixSocketClient(path, codec=client_codec) as client:
                self._workload(client)
        return serialize_trace(sched)

    @staticmethod
    def _workload(client) -> None:
        address = [0x1000]

        def commit(cid: str, pid: int, size: int) -> None:
            # Commits are fire-and-forget; the next blocking call fences them.
            client.notify(
                protocol.MSG_ALLOC_COMMIT,
                container_id=cid, pid=pid, address=address[0], size=size,
            )
            address[0] += 0x1000

        for i in range(4):
            reply = client.call(
                protocol.MSG_REGISTER_CONTAINER,
                container_id=f"w{i}", limit=1 * GiB,
            )
            assert reply["status"] == "ok"
        for i in range(4):
            for pid in (1, 2):
                reply = client.call(
                    protocol.MSG_ALLOC_REQUEST,
                    container_id=f"w{i}", pid=pid, size=64 * MiB,
                    api="cuMemAlloc",
                )
                assert reply["status"] == "ok"
                if reply.get("decision") == "grant":
                    commit(f"w{i}", pid, 64 * MiB)
        # Over-limit ask: answered in-band (reject or error), never deferred.
        over = client.call(
            protocol.MSG_ALLOC_REQUEST,
            container_id="w0", pid=1, size=2 * GiB, api="cuMemAlloc",
        )
        assert over.get("decision") != "grant"
        # Pipelined burst with a notification in the middle: exercises the
        # batch-dispatch + group-commit path on the server side.
        burst = [
            (
                protocol.MSG_ALLOC_REQUEST,
                {"container_id": "w1", "pid": pid, "size": 32 * MiB,
                 "api": "cuMemAlloc"},
            )
            for pid in (1, 2, 3)
        ]
        burst.insert(2, (protocol.MSG_HEARTBEAT, {"container_id": "w1"}))
        replies = client.call_pipelined(burst)
        assert len(replies) == 3
        for reply in replies:
            if reply.get("decision") == "grant":
                commit("w1", 1, 32 * MiB)
        client.call(protocol.MSG_MEM_GET_INFO, container_id="w2", pid=1)
        client.notify(protocol.MSG_ALLOC_RELEASE,
                      container_id="w0", pid=1, address=0x1000)
        client.notify(protocol.MSG_PROCESS_EXIT, container_id="w3", pid=2)
        for i in range(4):
            client.call(protocol.MSG_CONTAINER_EXIT, container_id=f"w{i}")

    def test_event_log_byte_identical_across_backends_and_codecs(self, tmp_path):
        from repro.ipc.loop import IoLoop

        traces: dict[tuple[str, str], str] = {}
        for codec in ("binary", "json"):
            client_codec = "auto" if codec == "binary" else "json"
            path = str(tmp_path / f"private-{codec}.sock")
            traces[("private", codec)] = self._drive_over_wire(
                None, client_codec, path
            )
            with IoLoop() as loop:
                path = str(tmp_path / f"loop-{codec}.sock")
                traces[("loop", codec)] = self._drive_over_wire(
                    loop, client_codec, path
                )
        reference_cell = ("loop", "json")
        reference = traces[reference_cell]
        assert reference.strip(), "workload produced an empty event log"
        for cell, trace in traces.items():
            assert trace == reference, (
                f"{cell}: event log diverged from {reference_cell} "
                f"({_first_divergence(reference, trace)})"
            )


def _first_divergence(golden: str, actual: str) -> str:
    for i, (g, a) in enumerate(zip(golden.splitlines(), actual.splitlines())):
        if g != a:
            return f"line {i + 1}: golden={g!r} actual={a!r}"
    return (
        f"length mismatch: golden {len(golden.splitlines())} lines, "
        f"actual {len(actual.splitlines())} lines"
    )


def _regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for policy_name in PAPER_POLICIES:
        trace = serialize_trace(drive_scenario(policy_name))
        path = golden_path(policy_name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(trace)
        print(f"wrote {path} ({trace.count(chr(10))} events)")


if __name__ == "__main__":
    _regenerate()
