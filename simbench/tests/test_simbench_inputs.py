"""Seeds, environment pinning, output checks and the benchmark's contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from conftest import small_workloads

ROOT = run.ROOT


@pytest.mark.parametrize("name", ["kernel-lean", "kernel-traced", "fault-sweep"])
def test_same_seed_same_outputs_other_seed_other_inputs(name):
    workload = small_workloads()[name]
    assert workload.seeded
    first = run.one_round(workload, 5)[2]
    again = run.one_round(workload, 5)[2]
    other = run.one_round(workload, 6)[2]
    assert (first.ops, first.miss_ratio, first.virtual) == (
        again.ops, again.miss_ratio, again.virtual)
    assert repr(workload.inputs(5)) != repr(workload.inputs(6))
    assert other.ops.keys() == first.ops.keys() and other.ops != first.ops
    assert other.virtual.keys() == first.virtual.keys()


def test_ring_has_no_random_input():
    workload = small_workloads()["ring-saturated"]
    assert not workload.seeded
    assert run.one_round(workload, 1)[2].ops == \
        run.one_round(workload, 2)[2].ops


def test_lean_sets_match_the_canonical_job_rate():
    target = workloads.job_rate(workloads.overhead_workload())
    for seed in range(5):
        _, task_set, splits = workloads.lean_inputs(seed)
        assert len(task_set) == 20 and splits is not None
        assert abs(workloads.job_rate(task_set) / target - 1) <= workloads.RATE_TOLERANCE


def test_infeasible_csd_split_is_a_clear_error():
    with pytest.raises(workloads.BenchError, match="no feasible CSD-3 split"):
        workloads.lean_inputs(0, utilization=0.99)


def test_environment_cannot_change_the_code_path(monkeypatch):
    for name in run.PINNED_ENV:
        monkeypatch.setenv(name, "not-a-valid-value")
    run.pin_environment()
    assert not any(name in os.environ for name in run.PINNED_ENV)
    # REPRO_SNAPSHOT=<junk> would make prefix_map raise.
    assert run.one_round(small_workloads()["fault-sweep"], 0)[2].ops


def test_checker_counts_mismatches_and_crashes():
    checker = run.Checker({"a": "1", "b": "2"})
    checker.ops({"a": "1", "b": "3"}, "round 1")
    assert (checker.attempted, checker.failed) == (2, 1)
    try:
        raise RuntimeError("boom")
    except RuntimeError:
        checker.crashed("round 2")
    assert (checker.attempted, checker.failed) == (4, 3)
    unrecorded = run.Checker(None)
    unrecorded.ops({"a": "1"}, "round 1")
    unrecorded.ops({"a": "2"}, "round 2")
    assert (unrecorded.attempted, unrecorded.failed) == (2, 1)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "simbench/run.py"]
    assert spec["paths"] == ["simbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert next(m for m in spec["end_to_end"] if m["name"] == "setup_s")["bound"] == \
        max(m["bound"] for m in spec["end_to_end"])


def test_references_cover_every_workload_and_the_committed_signatures():
    with open(os.path.join(run.HERE, "references.json")) as fh:
        references = json.load(fh)
    for name, cls in workloads.WORKLOADS.items():
        entry = references["workloads"][name]
        assert entry["config"] == json.loads(json.dumps(cls().config()))
    bench_kernel = os.path.join(ROOT, "BENCH_kernel.json")
    if os.path.exists(bench_kernel):
        with open(bench_kernel) as fh:
            committed = json.load(fh)[-1]["signatures_full"]
        assert references["canaries"]["full_signatures"] == committed


def test_fails_without_the_simulator(tmp_path):
    """In a directory holding only the benchmark, the command exits
    non-zero without printing a result."""
    shutil.copytree(run.HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "kernel-lean",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
