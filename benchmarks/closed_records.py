"""Per-op cost and snapshot size against the number of exited containers.

One in-process, unjournaled FIFO ``GpuMemoryScheduler`` on an 8 GiB device.
``N`` container lives with unique ids (register, 1 MiB request, commit,
exit) come and go beside one open container; then the open container runs
``--cycles`` rounds of a 1 MiB request + commit + release.  One *op* is one
such round (three verbs).  Prints, per ``N``: the median µs per op over
``--batches`` equal batches, the seconds the ``N`` lives took to build, and
the bytes of the snapshot line the journal would write for the state.

    PYTHONPATH=src python benchmarks/closed_records.py 0 1000 10000 100000
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.core.scheduler import GpuMemoryScheduler, make_policy
from repro.units import GiB, MiB


def measure(lives: int, cycles: int, batches: int) -> tuple[float, float, int]:
    sched = GpuMemoryScheduler(8 * GiB, make_policy("FIFO"))
    sched.register_container("live", 4 * GiB)
    began = time.perf_counter()
    for index in range(lives):
        cid = f"gone{index:06d}"
        sched.register_container(cid, GiB)
        sched.request_allocation(cid, 1, MiB)
        sched.commit_allocation(cid, 1, 0x1000, MiB)
        sched.container_exit(cid)
    build_s = time.perf_counter() - began
    per_batch = cycles // batches
    samples = []
    address = 0x1000
    for _ in range(batches):
        began = time.perf_counter()
        for _ in range(per_batch):
            sched.request_allocation("live", 1, MiB)
            sched.commit_allocation("live", 1, address, MiB)
            sched.release_allocation("live", 1, address)
        samples.append((time.perf_counter() - began) / per_batch * 1e6)
    line = json.dumps(
        {"kind": "snapshot", "state": sched.state.serialize()}, separators=(",", ":")
    )
    return statistics.median(samples), build_s, len(line.encode("utf-8"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lives", type=int, nargs="+", help="exited containers")
    parser.add_argument("--cycles", type=int, default=2000)
    parser.add_argument("--batches", type=int, default=5)
    args = parser.parse_args()
    print(f"{'closed':>8}  {'us/op':>9}  {'build_s':>8}  {'snapshot_B':>11}")
    for lives in args.lives:
        us, build_s, size = measure(lives, args.cycles, args.batches)
        print(f"{lives:>8}  {us:>9.1f}  {build_s:>8.2f}  {size:>11}", flush=True)


if __name__ == "__main__":
    main()
