"""Shard scaling — aggregate throughput of the sharded control plane.

The sharded deployment (DESIGN.md §15) runs one full daemon *process* per
device behind the consistent-hash router.  This benchmark measures what
sharding buys on this host: N journal-less shard daemons are driven flat
out and aggregate alloc_request throughput is recorded per shard count,
both **direct** (the sockets each shard's own registration reply names)
and **routed** (the sockets the router's registration replies name — what
a wrapper is told to mount).  The router is control plane only, so the two
are the same sockets — the grid asserts it — and the routed rows differ
from the direct ones by run-to-run noise alone.

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

Caveat for reading the numbers: the shard daemons and the generators
share the host's cores (two vCPUs where ``shard_scaling.txt`` was
measured), so past two shards the fleet time-shares them; on an N-core
host each shard owns a core.  Ratios are against the same run's 1-shard
direct cell, never against a figure from another host.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time

import pytest

from repro.cluster import ShardEndpoint, ShardRouter, ShardSupervisor
from repro.core.scheduler.daemon import CONTAINER_SOCKET_NAME
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

#: Where the committed ``shard_scaling.txt`` was measured, and what the
#: grid showed there while the router still byte-spliced every wrapper
#: frame through a per-container proxy socket (three grids of that tree
#: alternated with three of this one, same host).
HOST_NOTE = (
    "host: 2 vCPUs, CPython 3.11; shard daemons and generators share both "
    "cores, so past 2 shards the fleet time-shares them (on an N-core host "
    "each shard owns a core).\n"
    "For contrast, over three alternating grids on this host the former "
    "byte-splice router measured routed/direct = 0.68-0.94 per cell "
    "(median 0.85), and this one, on identical sockets, 0.80-1.11 "
    "(median 0.90). Routed cells always run after direct ones, so part of "
    "either figure is that order; at best of 3 x 2 s the grid cannot tell "
    "the splice's cost from noise."
)

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


def _generator(sockets: list[tuple[str, str]], t_start: float, t_end: float,
               result_queue) -> None:
    """One load-generator process: canned windows over its containers.

    Connects one blocking socket per ``(container_id, path)``, then until
    the deadline:
    send every connection its window, then drain every connection's
    ``WINDOW`` reply frames (counted, never decoded).
    """
    conns: list[tuple[socket.socket, bytes]] = []
    for cid, path in sockets:
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
            args=([(c, endpoints_by_cid[c]) for c in group], t_start, t_end,
                  queue),
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


def _register_all(control_path: str, cids: list[str]) -> dict[str, str]:
    """Register (or reattach) ``cids``; returns each reply's socket path."""
    paths = {}
    with UnixSocketClient(control_path, timeout=30.0, codec="json") as control:
        for cid in cids:
            reply = control.call(
                protocol.MSG_REGISTER_CONTAINER, container_id=cid,
                limit=LIMIT_MIB * MiB,
            )
            assert reply["status"] == "ok", reply
            paths[cid] = os.path.join(reply["socket_dir"], CONTAINER_SOCKET_NAME)
    return paths


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
        # containers, and the replies name the sockets a wrapper mounts.
        routed_paths = _register_all(router.control_path, cids)
        # Each owner's own reply for the same containers (its idempotent
        # reattach) names the shard-side sockets: the router rewrote none.
        direct_paths: dict[str, str] = {}
        for shard_id in range(shards):
            owned = [cid for cid in cids if router.shard_of(cid) == shard_id]
            direct_paths.update(
                _register_all(supervisor.endpoints(shard_id)["control"], owned)
            )
        assert routed_paths == direct_paths
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
            f"{rps / _RESULTS[(1, 'direct')]:.2f}x",
        )
        for (shards, route), rps in sorted(_RESULTS.items())
    ]
    record_output(
        "shard_scaling",
        format_table(
            ("shards", "route", "containers", "req/s", "vs 1-shard direct"),
            rows,
            title="Shard scaling — alloc_request throughput, canned-frame "
                  "multiprocess generators",
        )
        + f"\n\nbest of {TRIALS} trials per cell, {DURATION:.0f}s each; "
        f"windows of {WINDOW} canned binary alloc_requests per connection "
        "(requests only, no aborts/commits).\n"
        "direct: the sockets each shard's own registration reply names; "
        "routed: the sockets the router's registration replies name. The "
        "router is control plane only, so both are the shards' own sockets "
        "(asserted) and routed vs direct is run-to-run noise.\n"
        f"{HOST_NOTE}",
    )
    # The fleet must never be slower than one shard of itself: aggregate
    # direct throughput is monotone in shard count on this host.
    assert _RESULTS[(4, "direct")] >= _RESULTS[(1, "direct")] * 0.9
    # What a wrapper is told to mount must not halve what the fleet can do.
    assert _RESULTS[(4, "routed")] >= _RESULTS[(4, "direct")] * 0.4
