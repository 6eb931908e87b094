"""Shard scaling — aggregate throughput of the sharded control plane.

The sharded deployment (DESIGN.md §15) runs one full daemon *process* per
device behind the consistent-hash router.  This benchmark measures what
sharding buys on this host: N journal-less shard daemons are driven flat
out and aggregate alloc_request throughput is recorded per shard count,
both **direct** (load generators connect to the shards' own container
sockets — the ceiling of the shard fleet itself) and **routed** (through
the router's byte-splice proxies — what a wrapper actually traverses).

Methodology — built to saturate daemons, not load generators:

- load generators are separate **processes** (one per shard), so generator
  work never shares a GIL with daemon work;
- each generator sends **canned frames**: a window of pre-encoded binary
  ``alloc_request`` messages built once and re-sent verbatim (both wire
  codecs are self-describing per frame, so no hello handshake is needed),
  and replies are *counted* with ``protocol.split_frames`` without
  decoding them.  Client-side CPU per request is a socket write plus a
  frame scan — the daemons are the bottleneck being measured.  Pure
  requests against a large virtual limit is exactly the committed
  baseline's load shape (its batches were also alloc_request-only);
- shards run without journals (``journal=False``) matching the committed
  single-daemon concurrency baseline, which also measured scheduling +
  wire, not fsync.

Caveat for reading the numbers: this host has a single CPU.  Shard
daemons, router, and generators all time-share one core, so aggregate
throughput measures how much *total per-request CPU* the architecture
needs, not true multi-core parallelism — on an N-core host each shard owns
a core and the direct rows scale with the fleet.  The committed
single-daemon baseline (``concurrency_scaling.txt`` at e50ac9e:
binary/depth-32 at 256 containers) is the reference the acceptance ratio
is computed against.
"""

from __future__ import annotations

import multiprocessing
import socket
import time

import pytest

from repro.cluster import ShardEndpoint, ShardRouter, ShardSupervisor
from repro.experiments.report import format_table
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.units import MiB

SHARD_COUNTS = (1, 2, 4)
CONTAINERS_PER_SHARD = 32
#: alloc_requests per canned window (one window is one sendall; its
#: replies are collected before the next window on that connection,
#: windows overlap across a generator's connections).
WINDOW = 64
#: Per-container limit.  Virtual and deliberately huge: the grant path is
#: what is measured, so no request may reject or pause across all trials
#: (inflight grows by 1 MiB per granted request and is never aborted).
LIMIT_MIB = 32 * 1024
#: Seconds each measured cell runs after registration/warm-up.
DURATION = 2.0
TRIALS = 3

#: Reference: single-daemon binary/depth-32 peak from
#: benchmarks/results/concurrency_scaling.txt as committed at e50ac9e on
#: the single-CPU host shard_scaling.txt was measured on (that table has
#: since been regenerated on a 2-CPU host and reads higher).
COMMITTED_BASELINE_RPS = 48435.0

#: (shards, route) -> req/s; filled by the grid.
_RESULTS: dict[tuple[int, str], float] = {}


def _canned_window(container_id: str) -> bytes:
    """Pre-encode one window of binary alloc_request frames."""
    return b"".join(
        protocol.encode_as(
            protocol.make_request(
                protocol.MSG_ALLOC_REQUEST, seq=seq,
                container_id=container_id, pid=1, size=MiB, api="cudaMalloc",
            ),
            "binary",
        )
        for seq in range(1, WINDOW + 1)
    )


def _generator(socket_paths: list[str], t_start: float, t_end: float,
               result_queue) -> None:
    """One load-generator process: canned windows over its containers.

    Connects one blocking socket per container, then until the deadline:
    send every connection its window, then drain every connection's
    ``WINDOW`` reply frames (counted, never decoded).
    """
    conns: list[tuple[socket.socket, bytes]] = []
    for path in socket_paths:
        cid = path.rsplit("/", 2)[-2]  # <base>/<cid>/convgpu.sock
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        conns.append((sock, _canned_window(cid)))
    buffers = [b""] * len(conns)
    replies = 0
    while time.monotonic() < t_start:
        time.sleep(0.001)
    try:
        while time.monotonic() < t_end:
            for sock, window in conns:
                sock.sendall(window)
            for index, (sock, _window) in enumerate(conns):
                need = WINDOW
                buffer = buffers[index]
                while need:
                    frames, buffer = protocol.split_frames(buffer)
                    if frames:
                        got = min(need, len(frames))
                        need -= got
                        replies += got
                        # Leftover frames can't happen (we stop at need=0
                        # and the server sends exactly one reply per
                        # request), but stay honest if they ever do.
                        continue
                    chunk = sock.recv(1 << 20)
                    if not chunk:
                        raise ConnectionError("server closed mid-window")
                    buffer += chunk
                buffers[index] = buffer
    finally:
        for sock, _window in conns:
            sock.close()
        result_queue.put(replies)


def _container_ids(shards: int) -> list[str]:
    return [f"c{i:03d}" for i in range(shards * CONTAINERS_PER_SHARD)]


def _measure(endpoints_by_cid: dict[str, str], shards: int) -> float:
    """Run one timed trial against pre-registered container sockets."""
    cids = sorted(endpoints_by_cid)
    per_generator = [cids[i::shards] for i in range(shards)]
    queue = multiprocessing.Queue()
    t_start = time.monotonic() + 0.5  # cover connect + first-window warm-up
    t_end = t_start + DURATION
    generators = [
        multiprocessing.Process(
            target=_generator,
            args=([endpoints_by_cid[c] for c in group], t_start, t_end, queue),
        )
        for group in per_generator if group
    ]
    for proc in generators:
        proc.start()
    total = 0
    for _ in generators:
        total += queue.get(timeout=DURATION + 60.0)
    for proc in generators:
        proc.join(timeout=30.0)
    return total / DURATION


def _register_all(control_path: str, cids: list[str]) -> None:
    with UnixSocketClient(control_path, timeout=30.0, codec="json") as control:
        for cid in cids:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER, container_id=cid,
                limit=LIMIT_MIB * MiB,
            )
            assert reply["status"] == "ok", reply


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_bench_shard_grid(tmp_path, shards):
    supervisor = ShardSupervisor(
        shards,
        base_dir=str(tmp_path / "shards"),
        # Hash placement is only statistically balanced; a shard owning
        # more than its fair share must still cover every limit in full,
        # or allocations PAUSE (correct, but a throughput bench must never
        # wait on an unreplied grant).  The pool is virtual — size it so
        # any shard could host the entire container set.
        total_memory_mib=shards * CONTAINERS_PER_SHARD * LIMIT_MIB + 1024,
        journal=False,
        metrics=False,
        auto_restart=False,
    )
    supervisor.start()
    router = ShardRouter(
        [ShardEndpoint.from_ready(i, supervisor.endpoints(i))
         for i in range(shards)],
        base_dir=str(tmp_path / "router"),
    )
    router.start()
    try:
        cids = _container_ids(shards)
        # Register through the router: each shard gets its ring-owned
        # containers, and both the shard-side and proxy-side socket paths
        # exist afterwards.
        _register_all(router.control_path, cids)

        # Shard-side socket paths come from each shard's own daemon layout:
        # ask the placement map which shard owns each container.
        placements = router.placements()
        direct_paths = {
            cid: f"{supervisor.shard(placements[cid]).spec.base_dir}"
                 f"/{cid[:12]}/convgpu.sock"
            for cid in cids
        }
        routed_paths = {
            cid: router.container_socket_path(cid) for cid in cids
        }
        _RESULTS[(shards, "direct")] = max(
            _measure(direct_paths, shards) for _ in range(TRIALS)
        )
        _RESULTS[(shards, "routed")] = max(
            _measure(routed_paths, shards) for _ in range(TRIALS)
        )
    finally:
        router.stop()
        supervisor.stop()


def test_bench_shard_summary(record_output):
    if len(_RESULTS) < len(SHARD_COUNTS) * 2:
        pytest.skip("shard grid did not run")
    rows = [
        (
            str(shards),
            route,
            str(shards * CONTAINERS_PER_SHARD),
            f"{rps:.0f}",
            f"{rps / COMMITTED_BASELINE_RPS:.2f}x",
        )
        for (shards, route), rps in sorted(_RESULTS.items())
    ]
    record_output(
        "shard_scaling",
        format_table(
            ("shards", "route", "containers", "req/s", "vs 1-daemon baseline"),
            rows,
            title="Shard scaling — alloc_request throughput, canned-frame "
                  "multiprocess generators",
        )
        + f"\n\nbest of {TRIALS} trials per cell, {DURATION:.0f}s each; "
        f"windows of {WINDOW} canned binary alloc_requests per connection "
        "(the committed baseline's load shape: requests only, no "
        "aborts/commits).\n"
        "direct: generators connect to the shards' own container sockets; "
        "routed: through the router's byte-splice proxies.\n"
        f"baseline {COMMITTED_BASELINE_RPS:.0f} req/s = committed "
        "single-daemon binary/depth-32 peak "
        "(concurrency_scaling.txt at e50ac9e, same single-CPU host).\n"
        "single-CPU host: shards, router and generators time-share one "
        "core, so the ratios measure per-request CPU cost, not multi-core "
        "parallelism; on an N-core host each shard owns a core.",
    )
    # The fleet must never be slower than one shard of itself: aggregate
    # direct throughput is monotone in shard count on this host.
    assert _RESULTS[(4, "direct")] >= _RESULTS[(1, "direct")] * 0.9
    # The router's splice must not halve what the fleet can do.
    assert _RESULTS[(4, "routed")] >= _RESULTS[(4, "direct")] * 0.4
