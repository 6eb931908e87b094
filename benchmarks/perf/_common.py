"""Shared pieces of the perf benchmark: paths, seeded inputs, statistics,
the host descriptor.

Nothing here imports ``repro``; `run.py` puts ``src/`` on the path first.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Sequence

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Scratch space of one run (journal, sockets); inside the checkout so the
#: benchmark never writes elsewhere, and listed in the root .gitignore.
WORK_ROOT = os.path.join(PERF_DIR, ".work")

SCHEMA = "convgpu-perf/1"
DEFAULT_SEED = 2017

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: Closed-loop client count: all callers block on a reply (§ISSUE "Load shape").
CLIENTS = max(1, min(os.cpu_count() or 1, 4))

WORKLOADS = (
    "call_depth1",
    "saturate_pipelined",
    "contend_handoff",
    "sweep_sim",
    "recover_100k",
)


def require_source_tree() -> None:
    """Exit non-zero unless the program under test is in this checkout.

    The benchmark measures ``src/repro`` of the checkout it runs in; an
    installed copy found elsewhere on ``sys.path`` must never stand in.
    """
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        sys.stderr.write(f"perf benchmark: no program to measure at {SRC_DIR}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC_DIR)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def log_uniform_sizes(rng: random.Random, count: int) -> list[int]:
    """``count`` allocation sizes, log-uniform over 64 KiB .. 64 MiB."""
    low, high = math.log(64 * KiB), math.log(64 * MiB)
    return [int(math.exp(rng.uniform(low, high))) for _ in range(count)]


def ops_hash(ops: Any) -> str:
    """Stable digest of a generated op list (same seed => same hash)."""
    blob = json.dumps(ops, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, str]:
    """Highest of p99/p95/p90/p75 with >= 10 samples beyond it, and its name.

    With fewer than 40 samples no percentile qualifies; the slowest sample
    is reported as ``max`` so the caller can say which one was used.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0, "none"
    for q in (99, 95, 90, 75):
        beyond = n - math.ceil(q / 100 * n)
        if beyond >= 10:
            return xs[n - beyond - 1], f"p{q}"
    return xs[-1], "max"


#: What ``reference_kernel`` takes on the sandbox host when nothing else
#: disturbs it.  It only fixes the unit of a paced time (seconds "at the quiet
#: host's speed"); a ratio of two paced times does not depend on it.
REFERENCE_S = 0.0024


def reference_kernel() -> float:
    """Seconds one run of a fixed pure-Python kernel takes right now: dict,
    heap, tuple and float work, the instruction mix of the simulator and of
    the journal reader.  It calls nothing of the program under test."""
    began = perf_counter()
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    total = 0.0
    for index in range(6000):
        key = (index * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + index
        heapq.heappush(heap, (key, index))
        if not index & 3:
            total += heapq.heappop(heap)[0] * 0.5
    return perf_counter() - began


def host_pace() -> float:
    """How slow the host runs at this moment (1.0 = the quiet host, 1.5 = one
    and a half times slower): the best of three reference kernels, ~8 ms."""
    return min(reference_kernel() for _ in range(3)) / REFERENCE_S


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# host descriptor
# ----------------------------------------------------------------------


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix wins)."""
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(
                    mount
                ) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_descriptor(seed: int) -> dict[str, Any]:
    """Who/where/what produced a result file (ISSUE satellite 2)."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    os.makedirs(WORK_ROOT, exist_ok=True)
    return {
        "git_sha": sha,  # None outside a git checkout (the driver's copy)
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "journal_fs": fs_type(WORK_ROOT),
        "journal_fsync": True,
        "clients": CLIENTS,
        "seed": seed,
    }
