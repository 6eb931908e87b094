"""Checks of the perf harness itself, on a 1 s-per-workload quick run.

    PYTHONPATH=src python -m pytest benchmarks/perf

Not part of tier-1 (``testpaths = ["tests"]``): every case starts real
daemons and takes a few seconds.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from _common import PERF_DIR, REPO_ROOT, WORKLOADS, require_source_tree

require_source_tree()

from _workloads import BY_NAME  # noqa: E402  (needs src/ on the path)

NAME_RULE = re.compile(r"[A-Za-z0-9_.-]+\Z")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(PERF_DIR, "metrics.json"), encoding="utf-8") as _fh:
    REGISTRY = json.load(_fh)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """``run(workload, trace)`` -> (summary line, result document), cached."""
    out_dir = tmp_path_factory.mktemp("perf")
    cache: dict[tuple[str, int], tuple[dict, dict]] = {}

    def run(workload: str, trace: int) -> tuple[dict, dict]:
        key = (workload, trace)
        if key not in cache:
            out = out_dir / f"{workload}-{trace}.json"
            finished = subprocess.run(
                [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload", workload,
                 "--seed", "2017", "--seconds", "1", "--trace", str(trace), "--out", str(out)],
                cwd=REPO_ROOT, capture_output=True, text=True, timeout=170,
            )
            assert finished.returncode == 0, finished.stdout + finished.stderr
            summary = json.loads(finished.stdout.splitlines()[-1])
            with open(out, encoding="utf-8") as fh:
                document = json.load(fh)
            cache[key] = (summary, document)
        return cache[key]

    return run


def test_benchmark_json_matches_the_registry():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(REGISTRY["per_layer"])
    gated = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert gated == set(REGISTRY["driver_end_to_end"]) - {"about"}
    for entry in BENCHMARK["per_layer"]:
        assert entry["unit"] == REGISTRY["per_layer"][entry["name"]]["unit"]
    for name in [*gated, *REGISTRY["per_layer"], *REGISTRY["end_to_end"]]:
        assert NAME_RULE.match(name), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_schema_and_metrics(quick_runs, workload):
    summary, document = quick_runs(workload, 0)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, entry in summary["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert entry["value"] > 0, name

    assert document["schema"] == "convgpu-perf/1"
    for field in ("git_sha", "git_dirty", "nproc", "cpu_model", "python", "journal_fs",
                  "journal_fsync", "clients", "seed"):
        assert field in document["host"]
    run = document["runs"][-1]
    expected = {name for name, entry in REGISTRY["end_to_end"].items()
                if workload in entry["workloads"]}
    assert set(run["metrics"]) == expected
    for name, entry in run["metrics"].items():
        assert entry["unit"] == REGISTRY["end_to_end"][name]["unit"]
    assert run["metrics"]["failed_share"]["value"] == 0
    assert all(run["checks"].values())
    assert run["samples"] and run["durations"]["measured_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(quick_runs, workload):
    summary, document = quick_runs(workload, 1)
    assert summary["correct"] is True
    assert set(summary["metrics"]) == set(REGISTRY["per_layer"])
    for name, entry in summary["metrics"].items():
        assert entry["unit"] == REGISTRY["per_layer"][name]["unit"]
    assert summary["metrics"]["trace.overhead_ratio"]["value"] > 0
    run = document["runs"][-1]
    if workload in ("call_depth1", "saturate_pipelined", "contend_handoff"):
        assert run["spans_written"] > 0 and "program_stages" in run
        span = run["spans"][0]
        assert set(span) == {"id", "name", "start", "end", "parent", "rid", "tag"}


@pytest.mark.parametrize("workload", ["call_depth1", "contend_handoff"])
def test_self_times_sum_to_the_span_totals(quick_runs, workload):
    summary, _ = quick_runs(workload, 1)
    assert summary["metrics"]["trace.sum_over_e2e"]["value"] == pytest.approx(1.0, abs=0.01)
    assert summary["metrics"]["wrapper.ipc_per_malloc"]["value"] == 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    cls = BY_NAME[workload]
    assert cls(11).ops_digest == cls(11).ops_digest
    assert cls(11).ops_digest != cls(12).ops_digest


def test_paced_call_is_divided_by_the_host_pace(monkeypatch):
    import _workloads

    paces = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(_workloads, "host_pace", lambda: next(paces))
    workload = BY_NAME["sweep_sim"](11)
    result, took, quiet = workload.paced(lambda: "done")
    assert result == "done" and quiet == pytest.approx(took / 2.0)
    # The closing probe of one call is the opening probe of the next.
    _, took, quiet = workload.paced(lambda: None)
    assert quiet == pytest.approx(took / 2.0)


def test_sweep_in_parts_gives_the_whole_sweep_tables():
    from repro.experiments.multi import sweep

    workload = BY_NAME["sweep_sim"](11)
    workload.counts, workload.repeats = workload.counts[:3], 1
    workload.one_sweep()
    whole = sweep(workload.policies, workload.counts, repeats=1, seed=11)
    for key in ("finished", "suspended", "failures"):
        assert workload.tables[key] == getattr(whole, key)


def _result_file(path, runs: dict[str, dict[str, list[float]]]) -> str:
    """A result file with one run per value: workload -> metric -> values."""
    documents = []
    for workload, metrics in runs.items():
        for index in range(len(next(iter(metrics.values())))):
            documents.append({
                "workload": workload, "trace": 0,
                "metrics": {name: {"value": values[index]} for name, values in metrics.items()},
            })
    path.write_text(json.dumps({"schema": "convgpu-perf/1", "runs": documents}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    import compare

    steady = {"call_depth1": {"malloc_p50_us": [1000.0, 1010.0, 990.0],
                              "setup_s": [1.0, 1.01, 0.99]},
              "sweep_sim": {"op_p50_us": [4.0e6, 4.1e6, 3.9e6]}}
    a = _result_file(tmp_path / "a.json", steady)
    assert compare.main([a, a]) == 0

    slower = {**steady, "sweep_sim": {"op_p50_us": [5.6e6, 5.7e6, 5.5e6]}}
    assert compare.main([a, _result_file(tmp_path / "slow.json", slower)]) == 1

    # A workload or a metric that B no longer reports is a regression.
    capsys.readouterr()
    assert compare.main([a, _result_file(tmp_path / "gone.json", {
        "call_depth1": steady["call_depth1"]})]) == 1
    assert "missing" in capsys.readouterr().out
    assert compare.main([a, _result_file(tmp_path / "half.json", {
        **steady, "call_depth1": {"malloc_p50_us": [1000.0, 1010.0, 990.0]}})]) == 1

    # Too wide a run-to-run spread is unresolved, not ok; a demoted metric
    # (bound null in metrics.json: setup_s, the p99s) is only reported.
    noisy = {**steady, "call_depth1": {"malloc_p50_us": [700.0, 1000.0, 1400.0],
                                       "setup_s": [0.7, 1.0, 1.4]}}
    capsys.readouterr()
    assert compare.main([a, _result_file(tmp_path / "noisy.json", noisy)]) == 0
    rows = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()
            if line.startswith("call_depth1")}
    assert rows == {"malloc_p50_us": "unresolved", "setup_s": "reported"}
