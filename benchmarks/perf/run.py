#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads, named metrics.

    python benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out F.json]

Without ``--workload`` every workload runs in turn (each in a process of
its own) and the command exits non-zero if any correctness check failed.
With ``--workload`` one workload runs in this process and the last line of
standard output is the one-object summary the benchmark driver reads:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of BENCHMARK.json for ``--trace 0``, its per-layer metrics for
``--trace 1``.  The metric names of ISSUE 11 (``malloc_p50_us`` ...) are
printed above that line and written to ``--out``; README.md maps one set
of names onto the other.

End-to-end metrics are never taken from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

from _common import (
    DEFAULT_SEED,
    PERF_DIR,
    REPO_ROOT,
    SCHEMA,
    WORK_ROOT,
    WORKLOADS,
    host_descriptor,
    median,
    require_source_tree,
)

SPAN_EXPORT_LIMIT = 20_000
#: Measured seconds per workload when ``--seconds`` is not given: the run
#: length of BENCHMARK.json, the one the bounds were measured at.
DEFAULT_SECONDS = 20


def load_registry() -> dict:
    with open(os.path.join(PERF_DIR, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_untraced(name: str, seed: int, seconds: float):
    from _workloads import BY_NAME

    workload = BY_NAME[name](seed)
    setups: list[float] = []
    try:
        for attempt in range(workload.setup_repeats):
            began = perf_counter()
            workload.setup()
            setups.append(perf_counter() - began)
            if attempt < workload.setup_repeats - 1:
                workload.finish(check=False)
        workload.measure(seconds)
    finally:
        workload.finish(check=True)
    return workload, setups


def run_traced(name: str, seed: int, seconds: float, registry: dict):
    """A short untraced pass against the child daemon (the base of
    ``trace.overhead_ratio`` and the only place daemon and generator CPU
    can be told apart), then the traced pass with the daemon in-process."""
    from _layers import layer_metrics
    from _micro import bare_round_trip_us, protocol_micro
    from _tracer import Analysis, Tracer
    from _workloads import BY_NAME, LiveWorkload

    cls = BY_NAME[name]
    live = issubclass(cls, LiveWorkload)
    base = cls(seed)
    base.min_repeats = 1
    try:
        base.setup()
        base.measure(seconds * 0.3)
    finally:
        base.finish(check=True)
    if name == "recover_100k":
        # Nothing to wrap below restore()/compact_journal(): the timed
        # calls are the layer, and the untraced pass already holds them.
        names = sorted(registry["per_layer"])
        layers = layer_metrics(name, names, Tracer(), Analysis([]), base.layer_inputs, {}, 1.0)
        layers["trace.overhead_ratio"] = 1.0
        return base, layers, None, []

    micro: dict[str, float] = {}
    if live:
        micro = protocol_micro()
        work = os.path.join(os.path.relpath(WORK_ROOT, REPO_ROOT), f"m{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            micro["transport.bare_rtt_us"] = bare_round_trip_us(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    tracer = Tracer(activations=(name == "sweep_sim")).install()
    stages: list = []
    traced = cls(seed, tracer)
    traced.min_repeats = 1
    try:
        tracer.on = True  # set-up spans give the connect and register costs
        traced.setup()
        began = perf_counter()
        traced.measure(seconds * 0.5)
        traced_wall = perf_counter() - began
        tracer.on = False
        if live:
            from repro.obs import stages as program_stages

            stages = list(program_stages.dump_sections())
    finally:
        tracer.on = False
        try:
            traced.finish(check=True)
        finally:
            tracer.uninstall()

    # CPU shares and thread count exist in the child-daemon pass only; start
    # and stop times are taken from it too (a process, not a thread pool), and
    # so is the tail: end-to-end figures are never read off a traced run.
    inputs = {**base.layer_inputs, **traced.layer_inputs}
    for key in ("daemon.start_ms", "daemon.stop_ms", "tail.op_p90_us"):
        if key in base.layer_inputs:
            inputs[key] = base.layer_inputs[key]
    inputs["sim.events"] = float(tracer.counts.get("sim.events", 0))
    layers = layer_metrics(
        name, sorted(registry["per_layer"]), tracer, tracer.analyse(since=began), inputs,
        micro, traced_wall,
    )
    layers["trace.overhead_ratio"] = (
        traced.primary_p50_s / base.primary_p50_s if base.primary_p50_s else 0.0
    )
    base.attempted += traced.attempted
    base.failed += traced.failed
    base.checks.update({f"traced.{k}": v for k, v in traced.checks.items()})
    return base, layers, tracer, stages


def run_one(args) -> int:
    registry = load_registry()
    name, seed, seconds = args.workload, args.seed, args.seconds
    host = host_descriptor(seed)
    began = perf_counter()
    if args.trace:
        workload, layers, tracer, stages = run_traced(name, seed, seconds, registry)
        named = {
            key: {"value": value, "unit": registry["per_layer"][key]["unit"]}
            for key, value in layers.items()
        }
        driver = named
        setups = []
    else:
        workload, setups = run_untraced(name, seed, seconds)
        share = workload.failed / max(workload.attempted, 1)
        named = {
            "setup_s": {"value": median(setups), "unit": "s", "n": len(setups)},
            **workload.metrics,
            "failed_share": {"value": share, "unit": "ratio"},
        }
        driver = {"setup_s": {"value": median(setups), "unit": "s"}, **workload.driver}
        tracer, stages = None, []

    correct = workload.failed == 0 and workload.attempted > 0
    print(f"# convgpu perf  workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(bool(args.trace))}  closed loop, {workload.clients} client(s)  "
          f"ops={workload.ops_digest}")
    print(f"# host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
          f"git={host['git_sha']}{'+dirty' if host['git_dirty'] else ''}  "
          f"journal: fs={host['journal_fs']} fsync=on")
    print("# ratios on a 1-2 CPU host are per-request CPU cost, never multi-core scaling")
    for key, entry in named.items():
        extra = "".join(
            f" {field}={entry[field]}" for field in ("n", "percentile") if field in entry
        )
        print(f"{name} {key} {entry['value']:.6g} {entry['unit']}{extra}")
    if not args.trace:
        for key, entry in driver.items():
            print(f"{name} {key} {entry['value']:.6g} {entry['unit']} (gated, BENCHMARK.json)")
    for check, ok in workload.checks.items():
        print(f"{name} check {check} {'ok' if ok else 'FAILED'}")
    print(f"{name} attempted={workload.attempted} failed={workload.failed}")

    if args.out:
        document = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(bool(args.trace)),
            "loop": "closed",
            "clients": workload.clients,
            "ops_hash": workload.ops_digest,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "checks": workload.checks,
            "metrics": named,
            "driver_metrics": driver if not args.trace else {},
            "samples": workload.samples,
            "chunks": workload.chunks,
            "durations": {
                "setup_s": setups,
                "measured_s": workload.measured_s,
                "wall_s": perf_counter() - began,
            },
        }
        if tracer is not None:
            document.update(tracer.export(SPAN_EXPORT_LIMIT))
            document["program_stages"] = stages
        append_run(args.out, host, document)

    summary = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in driver.items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def append_run(path: str, host: dict, document: dict) -> None:
    """Add one run to a result file (created on first use), so several
    invocations with the same ``--out`` build up the runs compare.py needs."""
    result = {"schema": SCHEMA, "host": host, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if existing.get("schema") == SCHEMA:
            result = existing
    result["runs"].append(document)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


def run_all(args) -> int:
    """Every workload, each in its own process (a clean metrics registry,
    allocator and peak-RSS counter per workload)."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(int(bool(args.trace)))]
        if args.out:
            command += ["--out", os.path.abspath(args.out)]
        finished = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
        lines = finished.stdout.splitlines()
        # The per-workload summary object is for the driver; drop it here.
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        if finished.returncode != 0:
            print(f"{name} FAILED (exit {finished.returncode})")
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="result file; runs are appended")
    args = parser.parse_args()
    require_source_tree()
    if args.out:
        args.out = os.path.abspath(args.out)
    os.chdir(REPO_ROOT)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
