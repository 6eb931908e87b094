"""The five workloads.

Every live workload is a closed loop: each client sends its next call only
after the previous one returned (the wrapper blocks the CUDA call), with
one thread and one data connection per client.  A workload object does
``setup() -> measure(seconds) -> finish()``; ``run.py`` repeats the set-up
to time it, and owns tracing.

A measurement is cut into chunks: about a second of load on the live
workloads, one sweep on ``sweep_sim``, one restore/compact/restore cycle on
``recover_100k``.  Latencies are the plain median over every sample (and
the highest percentile the sample supports); the issue's throughputs are the
median over the chunks of completions / seconds.  BENCHMARK.json wants one
list of figures from every workload, so ``driver_figures`` files the median
of the primary operation, and the operations per second at the median cycle
time, under workload-generic names (README.md has the mapping and why the
driver's throughput is built on a median and not on the chunk rates).

The two workloads that run in this process on one thread and do nothing but
compute (``sweep_sim``, ``recover_100k``) are *paced*: every timed call sits
between two probes of the host's speed (``_common.host_pace``) and the
figures the driver gates on are the times at the quiet host's speed.  The
sandbox host changes speed by 1.3-2x for seconds to minutes at a time;
README.md has the measurements that made this necessary.

Why each workload exists, and which layer it starves, is in README.md.
"""

from __future__ import annotations

import collections
import json
import os
import random
import resource
import shutil
import threading
import time
from time import perf_counter
from typing import Any, Callable

from _common import (
    CLIENTS,
    DEFAULT_SEED,
    GiB,
    MiB,
    PERF_DIR,
    REPO_ROOT,
    WORK_ROOT,
    host_pace,
    log_uniform_sizes,
    median,
    ops_hash,
    tail,
)
from _rig import CALL_TIMEOUT, Program, RemoteSystem, Rig

from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE, GpuMemoryScheduler
from repro.core.scheduler.journal import (
    SchedulerJournal,
    compact_journal,
    journal_summary,
    restore,
    serialize_state,
)
from repro.core.scheduler.policies import make_policy
from repro.cuda.errors import cudaError
from repro.errors import ReproError
from repro.experiments.metrics import percentile
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient

WARMUP_OPS = 200
WINDOW = 32
SUCCESS = cudaError.cudaSuccess


def metric(value: float, unit: str, **extra: Any) -> dict[str, Any]:
    return {"value": value, "unit": unit, **extra}


def timing(samples: list[float], scale: float, unit: str) -> tuple[dict, dict]:
    """(median, tail) metrics of ``samples`` seconds, scaled into ``unit``."""
    high, which = tail(samples)
    n = len(samples)
    return (
        metric(median(samples) * scale, unit, n=n),
        metric(high * scale, unit, n=n, percentile=which),
    )


def run_clients(count: int, loop: Callable[[int], None]) -> None:
    """Run ``loop(client)`` on ``count`` threads that start together."""
    barrier = threading.Barrier(count)

    def start(client: int) -> None:
        barrier.wait()
        loop(client)

    threads = [threading.Thread(target=start, args=(c,)) for c in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Common result bookkeeping; subclasses fill in the three phases."""

    name = ""
    #: Concurrent closed-loop callers (threads = data connections).
    clients = 1
    #: Fewest repeats of a whole-second operation (sweep, recovery cycle).
    min_repeats = 3
    #: Set-ups timed in one run (``setup_s`` is their median).
    setup_repeats = 3

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, dict[str, Any]] = {}
        #: What the driver-facing result line reports for this workload.
        self.driver: dict[str, dict[str, Any]] = {}
        #: One entry per measured chunk: rate, p50, p90.
        self.chunks: list[dict[str, float]] = []
        self.samples: dict[str, int] = {}
        self.measured_s = 0.0
        #: Raw median of the primary operation (base of trace.overhead_ratio).
        self.primary_p50_s = 0.0
        #: Inputs of the per-layer roll-up that only the workload knows.
        self.layer_inputs: dict[str, float] = {}
        self.ops_digest = ""

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def finish(self, check: bool = True) -> None:
        raise NotImplementedError

    def check(self, name: str, ok: bool) -> None:
        """A whole-run correctness check; a failed one is a failed op."""
        self.checks[name] = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1

    def add_chunk(self, samples: list[float], completed: float, seconds: float) -> None:
        """One chunk: the latency samples of its operations, and how many
        completions its rate counts over how many seconds."""
        self.chunks.append({
            "rate": completed / seconds,
            "p50": median(samples),
            "p90": percentile(samples, 90),
        })

    def run_chunks(
        self, seconds: float, run_chunk: Callable[[float], tuple[list[float], int, float]]
    ) -> None:
        """Cut ``seconds`` into ~1 s chunks.  ``run_chunk(deadline)`` runs the
        load until the deadline and returns the chunk's latency samples, the
        operations it completed and the seconds they were completed in."""
        count = max(2, round(seconds))
        length = seconds / count
        began = perf_counter()
        for _ in range(count):
            samples, completed, took = run_chunk(perf_counter() + length)
            if samples:
                self.add_chunk(samples, completed, took)
        self.measured_s = perf_counter() - began

    def chunk_rate(self) -> float:
        """Median completions/s over the chunks (ISSUE: not best-of-N)."""
        return median([chunk["rate"] for chunk in self.chunks])

    def driver_figures(self, p50_s: float, cycle_s: float, per_cycle: float,
                       rss_mb: float) -> None:
        """The workload-generic figures of BENCHMARK.json, medians over the
        whole run: the median of the primary operation (seconds), the
        operations per second the callers complete at the median time
        ``cycle_s`` of one closed-loop cycle of ``per_cycle`` operations (all
        callers together), and peak memory.  The median chunk p90 goes with
        the per-layer figures: a tail does not repeat within any bound on the
        sandbox host."""
        self.driver = {
            "op_p50_us": metric(p50_s * 1e6, "us"),
            "ops_per_s": metric(per_cycle / cycle_s, "1/s"),
            "rss_mb": metric(rss_mb, "MiB"),
        }
        self.layer_inputs["tail.op_p90_us"] = median([c["p90"] for c in self.chunks]) * 1e6
        self.primary_p50_s = p50_s


class LiveWorkload(Workload):
    """A workload that talks to a daemon over its sockets."""

    total_memory = 8 * GiB
    policy = "FIFO"

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.rig: Rig | None = None

    def start_rig(self) -> Rig:
        self.rig = Rig(
            self.total_memory, in_process=self.tracer is not None, policy=self.policy
        ).start()
        return self.rig

    def check_journal(self) -> None:
        """After the daemon stopped: its journal restores to a consistent,
        empty scheduler (nothing in use, nothing pending, nobody paused)."""
        try:
            scheduler = self.rig.restored()
            scheduler.check_invariants()
            leftovers = [
                record.container_id
                for record in scheduler.containers(include_closed=True)
                if record.used or record.inflight or record.pending
            ]
            self.check("journal_restores_empty", not leftovers)
            self.check_restored(scheduler)
        except (ReproError, AssertionError, OSError):
            self.check("journal_restores_empty", False)

    def check_restored(self, scheduler) -> None:
        """Workload-specific checks on the restored scheduler."""

    def daemon_probe(self) -> tuple[float, float]:
        return self.rig.cpu_seconds(), sum(os.times()[:2])

    def record_cpu(self, before: tuple[float, float], ops: int) -> None:
        """Daemon and generator CPU share of the measured interval (child
        daemon only: in-process they are one process)."""
        if self.tracer is not None:
            return
        daemon_cpu, own_cpu = (now - was for now, was in zip(self.daemon_probe(), before))
        wall = self.measured_s
        self.layer_inputs.update({
            "daemon.cpu_util": daemon_cpu / wall,
            "generator.cpu_util": own_cpu / wall,
            "daemon.cpu_ms_per_kdecision": daemon_cpu * 1e3 / max(ops / 1000.0, 1e-9),
            "daemon.threads": float(self.rig.proc_status("Threads")),
        })

    def finish(self, check: bool = True) -> None:
        rig = self.rig
        if rig is None:
            return
        try:
            self.release_clients()
            self.layer_inputs["daemon.start_ms"] = rig.start_ms
            rig.stop_daemon()
            self.layer_inputs["daemon.stop_ms"] = rig.stop_ms
            if check:
                self.check_journal()
                summary = journal_summary(rig.journal_path)
                self.layer_inputs["journal.snapshots"] = float(summary["snapshots"])
                self.layer_inputs["journal.events"] = float(summary["events"])
                self.layer_inputs["journal.bytes"] = float(os.path.getsize(rig.journal_path))
        finally:
            rig.close()
            self.rig = None

    def release_clients(self) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# call_depth1
# ----------------------------------------------------------------------


class CallDepth1(LiveWorkload):
    """One container, one thread: cudaMalloc -> (every 8th) cudaMemGetInfo
    -> cudaFree through the whole client stack, nothing batched."""

    name = "call_depth1"
    limit = 1 * GiB
    #: The program "computes" this long between iterations.  Back-to-back
    #: calls leave idle gaps of ~0.2 ms, right at the hypervisor's adaptive
    #: halt-polling window, and a wake-up then costs 7 us or 40 us for
    #: minutes at a time (a dozen wake-ups a call: 0.9 ms or 1.3 ms).  With a
    #: real pause every gap is long, the host stays in the slow-wake regime,
    #: and runs repeat (spread 5 % instead of 12-40 %).  Only the calls are
    #: timed.
    think_s = 0.003

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.sizes = log_uniform_sizes(random.Random(f"{seed}:call"), 4096)
        self.ops_digest = ops_hash(self.sizes)
        self.program: Program | None = None
        self.system: RemoteSystem | None = None
        self.index = 0

    def setup(self) -> None:
        rig = self.start_rig()
        self.system = RemoteSystem(rig.control_path, 2 * GiB)
        self.program = Program(self.system, "c0", self.limit)
        self.cycles(lambda done: done < WARMUP_OPS, [], [], [])

    def cycles(self, keep_going, mallocs, infos, frees) -> None:
        """The measured loop (also the warm-up, with throwaway sample lists)."""
        api, sizes = self.program.api, self.sizes
        drive = self.program.drive
        limit = self.limit
        index = self.index
        done = 0
        while keep_going(done):
            size = sizes[index % len(sizes)]
            began = perf_counter()
            err, pointer = drive(api.cudaMalloc(size))
            mallocs.append(perf_counter() - began)
            self.attempted += 1
            index += 1
            done += 1
            if err is not SUCCESS or not pointer:
                self.failed += 1
                continue
            if index % 8 == 1:
                began = perf_counter()
                err, info = drive(api.cudaMemGetInfo())
                infos.append(perf_counter() - began)
                self.attempted += 1
                expected = (limit - size - CONTEXT_OVERHEAD_CHARGE, limit)
                if err is not SUCCESS or tuple(info) != expected:
                    self.failed += 1
            began = perf_counter()
            err, _ = drive(api.cudaFree(pointer))
            frees.append(perf_counter() - began)
            self.attempted += 1
            if err is not SUCCESS:
                self.failed += 1
            time.sleep(self.think_s)
        self.index = index

    def measure(self, seconds: float) -> None:
        mallocs: list[float] = []
        infos: list[float] = []
        frees: list[float] = []
        self.attempted = self.failed = 0
        probe = self.daemon_probe()

        def chunk(deadline: float) -> tuple[list[float], int, float]:
            first, started = len(mallocs), perf_counter()
            self.cycles(lambda done: perf_counter() < deadline, mallocs, infos, frees)
            return mallocs[first:], len(mallocs) - first, perf_counter() - started

        self.run_chunks(seconds, chunk)
        self.record_cpu(probe, len(mallocs))
        p50, p99 = timing(mallocs, 1e6, "us")
        self.metrics = {
            "malloc_p50_us": p50,
            "malloc_p99_us": p99,
            "meminfo_p50_us": timing(infos, 1e6, "us")[0],
            "free_p50_us": timing(frees, 1e6, "us")[0],
        }
        self.samples = {"malloc": len(mallocs), "meminfo": len(infos), "free": len(frees)}
        # One loop iteration at the median call times: cudaMalloc, cudaFree
        # and an eighth of a cudaMemGetInfo (the think time is not the
        # program's cost).
        iteration = median(mallocs) + median(frees) + median(infos) / 8
        self.driver_figures(median(mallocs), iteration, 1,
                            self.rig.proc_status("VmHWM") / 1024.0)
        self.layer_inputs["ops"] = float(len(mallocs))
        wrapper = self.system.wrapper_for("c0", self.program.api.pid)
        self.layer_inputs["wrapper.retries"] = float(wrapper.ipc_retries)
        self.layer_inputs["retry.redials"] = float(len(self.program.runner.ipc_retries))

    def release_clients(self) -> None:
        if self.program is not None:
            self.program.exit()
            self.program = None
        if self.system is not None:
            self.system.close()
            self.system = None


# ----------------------------------------------------------------------
# saturate_pipelined
# ----------------------------------------------------------------------


class SaturatePipelined(LiveWorkload):
    """CLIENTS connections, each firing depth-32 windows of full
    request -> commit -> release cycles on the negotiated binary codec."""

    name = "saturate_pipelined"
    clients = CLIENTS
    limit = 1 * GiB
    pool = 64  # pre-built windows per connection, cycled

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.windows: list[list[list[tuple[str, dict]]]] = []
        digest = []
        for client in range(CLIENTS):
            sizes = log_uniform_sizes(random.Random(f"{seed}:sat:{client}"), self.pool * WINDOW)
            digest.append(sizes)
            cid, pid = f"s{client}", 9000 + client
            pool = []
            for w in range(self.pool):
                requests: list[tuple[str, dict]] = []
                for k in range(WINDOW):
                    size = sizes[w * WINDOW + k]
                    address = 0x1000_0000 + (w * WINDOW + k) * 0x100
                    common = {"container_id": cid, "pid": pid}
                    requests.append((protocol.MSG_ALLOC_REQUEST,
                                     {**common, "size": size, "api": "cudaMalloc"}))
                    requests.append((protocol.MSG_ALLOC_COMMIT,
                                     {**common, "address": address, "size": size}))
                    requests.append((protocol.MSG_ALLOC_RELEASE,
                                     {**common, "address": address}))
                pool.append(requests)
            self.windows.append(pool)
        self.ops_digest = ops_hash(digest)
        self.control: UnixSocketClient | None = None
        self.connections: list[UnixSocketClient] = []
        self.cursor = [0] * CLIENTS

    def setup(self) -> None:
        rig = self.start_rig()
        self.control = UnixSocketClient(rig.control_path, timeout=CALL_TIMEOUT)
        self.connections = []
        for client in range(CLIENTS):
            reply = self.control.call(
                protocol.MSG_REGISTER_CONTAINER, container_id=f"s{client}", limit=self.limit
            )
            if reply.get("status") != "ok":
                raise RuntimeError(f"registration refused: {reply}")
            path = os.path.join(reply["socket_dir"], "convgpu.sock")
            self.connections.append(UnixSocketClient(path, timeout=CALL_TIMEOUT, codec="auto"))
        warm = max(1, WARMUP_OPS // (WINDOW * CLIENTS))
        self.fire(lambda done: done < warm)

    def fire(self, keep_going) -> list[float]:
        """Run every connection's closed loop on its own thread; returns
        the window latencies of all of them."""
        failures = [0] * CLIENTS
        attempts = [0] * CLIENTS
        latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
        tracer = self.tracer

        def loop(client: int) -> None:
            connection = self.connections[client]
            pool = self.windows[client]
            cursor = self.cursor[client]
            cid = f"s{client}"
            done = 0
            try:
                while keep_going(done):
                    requests = pool[cursor % len(pool)]
                    traced = tracer is not None and tracer.on
                    if traced:
                        tracer.begin("generator.window", None, cid)
                    began = perf_counter()
                    replies = connection.pipeline_collect(connection.pipeline_send(requests))
                    ended = perf_counter()
                    if traced:
                        tracer.end()
                    bad = sum(
                        1 for reply in replies
                        if reply.get("status") != "ok" or reply.get("decision") != "grant"
                    )
                    attempts[client] += WINDOW
                    failures[client] += bad
                    latencies[client].append(ended - began)
                    cursor += 1
                    done += 1
            except ReproError:
                attempts[client] += WINDOW
                failures[client] += WINDOW
            self.cursor[client] = cursor

        run_clients(CLIENTS, loop)
        self.attempted += sum(attempts)
        self.failed += sum(failures)
        return [sample for per_client in latencies for sample in per_client]

    def measure(self, seconds: float) -> None:
        windows: list[float] = []
        self.attempted = self.failed = 0
        self.check("binary_codec_negotiated",
                   all(c.codec == protocol.CODEC_BINARY for c in self.connections))
        probe = self.daemon_probe()

        def chunk(deadline: float) -> tuple[list[float], int, float]:
            started = perf_counter()
            samples = self.fire(lambda done: perf_counter() < deadline)
            windows.extend(samples)
            return samples, len(samples) * WINDOW, perf_counter() - started

        self.run_chunks(seconds, chunk)
        decisions = len(windows) * WINDOW
        self.record_cpu(probe, decisions)
        rss = self.rig.proc_status("VmHWM") / 1024.0
        p50, p99 = timing(windows, 1e3, "ms")
        self.metrics = {
            "decisions_per_s": metric(self.chunk_rate(), "1/s", n=len(self.chunks)),
            "window_p50_ms": p50,
            "window_p99_ms": p99,
            "daemon_rss_mb": metric(rss, "MiB"),
        }
        self.samples = {"window": len(windows), "decision": decisions}
        self.driver_figures(median(windows), median(windows), CLIENTS * WINDOW, rss)
        self.layer_inputs["ops"] = float(decisions)

    def release_clients(self) -> None:
        for client, connection in enumerate(self.connections):
            try:
                connection.notify(protocol.MSG_PROCESS_EXIT,
                                  container_id=f"s{client}", pid=9000 + client)
                # A round trip on the same connection orders the notification
                # before the container's exit on the control socket.
                connection.call(protocol.MSG_MEM_GET_INFO,
                                container_id=f"s{client}", pid=9000 + client)
                self.control.call(protocol.MSG_CONTAINER_EXIT, container_id=f"s{client}")
            except ReproError:
                self.failed += 1
            connection.close()
        self.connections = []
        if self.control is not None:
            self.control.close()
            self.control = None


# ----------------------------------------------------------------------
# contend_handoff
# ----------------------------------------------------------------------


class ContendHandoff(LiveWorkload):
    """Two containers on a device that fits one of them.

    Each thread loops a whole container life: run -> cudaMalloc(big) ->
    hold -> cudaFree -> exit.  ConVGPU reserves memory for a container's
    lifetime (§III-D: a ``cudaFree`` returns bytes to the container's own
    reservation), so what hands memory to the paused container is the
    holder's exit, which follows its ``cudaFree`` at once.  The newcomer is
    under-assigned at registration and pauses in ``cudaMalloc`` until then.

    Two containers whatever the host (the issue's ``C`` is 2 on the 2-CPU
    hosts this runs on): they alternate strictly, so each blocked
    ``cudaMalloc`` has exactly one ``cudaFree`` of the other container inside
    it and the pairing in ``handoffs`` is exact.  With more containers two
    overlapping hand-offs could not be told apart from the client side.
    Several containers paused at once are ``sweep_sim``'s to cover.
    """

    name = "contend_handoff"
    clients = 2
    limit = 256 * MiB
    #: The holder keeps its memory this long (its "kernel"), so the next
    #: container is already paused when the memory is given up.
    hold_s = 0.003
    total_memory = (clients - 1) * limit + limit // 4

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        usable = self.limit - CONTEXT_OVERHEAD_CHARGE
        self.sizes = []
        for client in range(self.clients):
            rng = random.Random(f"{seed}:contend:{client}")
            self.sizes.append([rng.randint(self.limit // 2, usable - MiB) for _ in range(1024)])
        self.ops_digest = ops_hash(self.sizes)
        self.systems: list[RemoteSystem] = []
        self.cursor = [0] * self.clients

    def setup(self) -> None:
        rig = self.start_rig()
        self.systems = [RemoteSystem(rig.control_path, GiB) for _ in range(self.clients)]
        warm = max(2, WARMUP_OPS // 16)
        self.fire(lambda done: done < warm)

    def fire(self, keep_going) -> tuple[list[float], list[float]]:
        """Run every container thread; returns the hand-off latencies and
        the duration of every container life completed."""
        failures = [0] * self.clients
        attempts = [0] * self.clients
        cycles: list[list[tuple[float, float, float, float]]] = [
            [] for _ in range(self.clients)
        ]

        def loop(client: int) -> None:
            system = self.systems[client]
            sizes = self.sizes[client]
            cursor = self.cursor[client]
            done = 0
            while keep_going(done):
                size = sizes[cursor % len(sizes)]
                cursor += 1
                done += 1
                attempts[client] += 1
                try:
                    born = perf_counter()
                    program = Program(system, f"h{client}", self.limit)
                    issued = perf_counter()
                    err, pointer = program.drive(program.api.cudaMalloc(size))
                    returned = perf_counter()
                    if err is not SUCCESS:
                        failures[client] += 1
                        program.exit()
                        continue
                    time.sleep(self.hold_s)
                    freeing = perf_counter()
                    err, _ = program.drive(program.api.cudaFree(pointer))
                    program.exit()
                    if err is not SUCCESS:
                        failures[client] += 1
                    cycles[client].append((issued, returned, freeing, perf_counter() - born))
                except ReproError:
                    failures[client] += 1
            self.cursor[client] = cursor

        run_clients(self.clients, loop)
        self.attempted += sum(attempts)
        self.failed += sum(failures)
        return self.handoffs(cycles), [cycle[3] for own in cycles for cycle in own]

    @staticmethod
    def handoffs(cycles: list[list[tuple[float, float, float, float]]]) -> list[float]:
        """Holder's cudaFree issued -> paused container's cudaMalloc returns.

        A cudaMalloc is a hand-off when the other container started giving
        up its memory while the call was blocked (two containers alternate,
        so there is at most one such ``cudaFree``).
        """
        out = []
        for client, own in enumerate(cycles):
            others = sorted(
                cycle[2] for other, theirs in enumerate(cycles) if other != client
                for cycle in theirs
            )
            at = 0
            for issued, returned, _freeing, _life in own:
                while at < len(others) and others[at] < returned:
                    at += 1
                if at and others[at - 1] > issued:
                    out.append(returned - others[at - 1])
        return out

    def measure(self, seconds: float) -> None:
        handoffs: list[float] = []
        durations: list[float] = []
        self.attempted = self.failed = 0
        probe = self.daemon_probe()

        def chunk(deadline: float) -> tuple[list[float], int, float]:
            started = perf_counter()
            samples, lives = self.fire(lambda done: perf_counter() < deadline)
            handoffs.extend(samples)
            durations.extend(lives)
            return samples, len(lives), perf_counter() - started

        self.run_chunks(seconds, chunk)
        lives = self.attempted - self.failed
        self.record_cpu(probe, lives)
        p50, p99 = timing(handoffs, 1e6, "us")
        self.metrics = {
            "handoff_p50_us": p50,
            "handoff_p99_us": p99,
            "cycles_per_s": metric(self.chunk_rate(), "1/s", n=len(self.chunks)),
        }
        self.samples = {"handoff": len(handoffs), "cycle": lives}
        self.driver_figures(median(handoffs), median(durations), self.clients,
                            self.rig.proc_status("VmHWM") / 1024.0)
        self.layer_inputs["ops"] = float(lives)

    def release_clients(self) -> None:
        for system in self.systems:
            system.close()
        self.systems = []

    def check_restored(self, scheduler) -> None:
        # Every cycle ran to its exit, so nothing may be left paused.
        self.check("no_container_paused", not scheduler.paused_containers())


# ----------------------------------------------------------------------
# the paced, in-process workloads
# ----------------------------------------------------------------------


class PacedWorkload(Workload):
    """A workload that computes on this thread and nothing else.

    Its wall time follows the host's speed of the moment and nothing else,
    so each timed call sits between two ``host_pace`` probes (one probe is
    shared by neighbouring calls) and is also reported divided by their
    mean: the time the call would have taken on the quiet host.  The calls
    must be short (a fraction of a second): the host's speed changes within
    seconds.
    """

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.pace = 0.0

    def paced(self, call: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``call()``: (its result, seconds as measured, seconds at the
        quiet host's speed)."""
        before = self.pace or host_pace()
        began = perf_counter()
        result = call()
        took = perf_counter() - began
        self.pace = host_pace()
        return result, took, took / ((before + self.pace) / 2)


# ----------------------------------------------------------------------
# sweep_sim
# ----------------------------------------------------------------------


class SweepSim(PacedWorkload):
    """The Fig. 7/8 policy sweep in virtual time: no sockets, no journal.

    One operation (and one chunk) is a whole ``sweep(repeats=6, seed=S)``,
    run one container count at a time — ``sweep`` seeds a schedule from
    (count, repetition) alone, so the 18 parts give the tables of the whole
    call — because a part takes 0.05-0.5 s and a whole sweep 4 s, too long
    for one pair of pace probes to describe.
    """

    name = "sweep_sim"
    min_repeats = 2
    setup_repeats = 7
    golden_path = os.path.join(PERF_DIR, "golden_fig78.json")

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        from repro.workloads.arrivals import PAPER_CONTAINER_COUNTS

        self.counts = tuple(PAPER_CONTAINER_COUNTS)
        self.policies = ("FIFO", "BF", "RU", "Rand")
        self.repeats = 6
        self.ops_digest = ops_hash(
            {"seed": seed, "counts": self.counts, "policies": self.policies,
             "repeats": self.repeats}
        )
        self.tables: dict[str, dict[str, dict[int, float]]] = {}

    def setup(self) -> None:
        from repro.experiments.multi import sweep

        # Imports, caches, first-call paths: every policy on every third count.
        sweep(self.policies, self.counts[::3], repeats=1, seed=self.seed)

    def one_sweep(self) -> tuple[float, float]:
        """A whole sweep: (seconds as measured, seconds at the quiet host's
        speed), leaving the result tables in ``self.tables``."""
        from repro.experiments.multi import sweep

        tables = {key: {policy: {} for policy in self.policies}
                  for key in ("finished", "suspended", "failures")}
        wall = quiet = 0.0
        for count in self.counts:
            part, took, at_pace = self.paced(lambda: sweep(
                self.policies, (count,), repeats=self.repeats, seed=self.seed))
            wall += took
            quiet += at_pace
            for key, table in tables.items():
                for policy in self.policies:
                    table[policy][count] = getattr(part, key)[policy][count]
        self.tables = tables
        return wall, quiet

    def measure(self, seconds: float) -> None:
        schedules = len(self.policies) * len(self.counts) * self.repeats
        walls: list[float] = []
        quiets: list[float] = []
        self.attempted = self.failed = 0
        began = perf_counter()
        while (len(walls) < self.min_repeats
               or perf_counter() - began + 0.5 * walls[-1] < seconds):
            wall, quiet = self.one_sweep()
            walls.append(wall)
            quiets.append(quiet)
            self.add_chunk(quiets[-1:], schedules, quiet)
            self.attempted += schedules
            self.failed += sum(
                self.tables["failures"][policy][count]
                for policy in self.policies for count in self.counts
            )
        self.measured_s = perf_counter() - began
        self.metrics = {"sweep_wall_s": metric(median(walls), "s", n=len(walls))}
        self.samples = {"sweep": len(walls), "schedule": self.attempted}
        self.driver_figures(median(quiets), median(quiets), schedules, peak_rss_mb())
        self.layer_inputs["ops"] = float(self.attempted)

    def finish(self, check: bool = True) -> None:
        if not check or not self.tables or self.seed != DEFAULT_SEED:
            return
        with open(self.golden_path, encoding="utf-8") as fh:
            golden = json.load(fh)
        for key, figure in (("finished", "fig7"), ("suspended", "fig8")):
            table = self.tables[key]
            rows = {p: [round(table[p][c], 1) for c in self.counts] for p in self.policies}
            self.check(f"{figure}_matches_committed", rows == golden[key])


# ----------------------------------------------------------------------
# recover_100k
# ----------------------------------------------------------------------


class Recover100k(PacedWorkload):
    """The journal's read side: restore, offline compaction, restore again."""

    name = "recover_100k"
    events = 100_000
    containers = 8

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.sizes = log_uniform_sizes(random.Random(f"{seed}:recover"), 4096)
        self.ops_digest = ops_hash(self.sizes)
        self.work = os.path.relpath(
            os.path.join(WORK_ROOT, f"j{os.getpid()}-{time.monotonic_ns()}"), REPO_ROOT
        )
        self.source = os.path.join(self.work, "source.wal")
        self.expected = None
        self.events_written = 0

    def setup(self) -> None:
        """Build the journal from a seeded in-process scheduler (no sockets)."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        scheduler = GpuMemoryScheduler(64 * GiB, make_policy("FIFO", None))
        journal = SchedulerJournal(self.source, mode="sync", fsync=False)
        journal.attach(scheduler)
        try:
            names = [f"r{index}" for index in range(self.containers)]
            for name in names:
                scheduler.register_container(name, 4 * GiB)
            live = {name: collections.deque() for name in names}
            sizes = self.sizes
            step = 0
            while journal.events_written < self.events:
                name = names[step % len(names)]
                size = sizes[step % len(sizes)]
                address = 0x2000_0000 + step * 0x100
                if not scheduler.request_allocation(name, 1, size).granted:
                    raise RuntimeError("journal build: request not granted")
                scheduler.commit_allocation(name, 1, address, size)
                held = live[name]
                held.append(address)
                if len(held) > 4:
                    scheduler.release_allocation(name, 1, held.popleft())
                step += 1
            self.events_written = journal.events_written
            self.expected = serialize_state(scheduler)
        finally:
            journal.close()

    def measure(self, seconds: float) -> None:
        restores: list[float] = []
        compacts: list[float] = []
        again: list[float] = []
        quiet_restores: list[float] = []
        quiet_cycles: list[float] = []
        copy = os.path.join(self.work, "copy.wal")
        size_before = os.path.getsize(self.source)
        size_after = 0
        self.attempted = self.failed = 0
        began = perf_counter()
        last = 0.0
        while (len(restores) < self.min_repeats
               or perf_counter() - began + 0.5 * last < seconds):
            started = perf_counter()
            shutil.copyfile(self.source, copy)
            first, took, quiet_restore = self.paced(lambda: restore(copy))
            restores.append(took)
            quiet_restores.append(quiet_restore)
            _, took, quiet_compact = self.paced(lambda: compact_journal(copy))
            compacts.append(took)
            second, took, quiet_again = self.paced(lambda: restore(copy))
            again.append(took)
            # The rate is journal events through the whole cycle, so
            # compact_journal() shows in it.
            quiet_cycles.append(quiet_restore + quiet_compact + quiet_again)
            self.add_chunk(quiet_restores[-1:], self.events_written, quiet_cycles[-1])
            size_after = os.path.getsize(copy)
            self.attempted += 3
            before, after = serialize_state(first), serialize_state(second)
            self.failed += (before != self.expected) + (after != before)
            try:
                second.check_invariants()
            except AssertionError:
                self.failed += 1
            last = perf_counter() - started
        self.measured_s = perf_counter() - began
        self.metrics = {
            "restore_ms": metric(median(restores) * 1e3, "ms", n=len(restores)),
            "compact_ms": metric(median(compacts) * 1e3, "ms", n=len(compacts)),
        }
        self.samples = {"restore": len(restores), "compact": len(compacts)}
        self.driver_figures(median(quiet_restores), median(quiet_cycles), self.events_written,
                            peak_rss_mb())
        self.layer_inputs.update({
            "ops": float(len(restores)),
            "journal.restore_us_per_kevent":
                median(restores) * 1e6 / (self.events_written / 1000.0),
            "journal.compact_mb_per_s": size_before / MiB / median(compacts),
            "journal.restore_compacted_ms": median(again) * 1e3,
            "journal.size_before_kib": size_before / 1024.0,
            "journal.size_after_kib": size_after / 1024.0,
        })

    def finish(self, check: bool = True) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


BY_NAME = {
    cls.name: cls
    for cls in (CallDepth1, SaturatePipelined, ContendHandoff, SweepSim, Recover100k)
}
