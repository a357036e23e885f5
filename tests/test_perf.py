"""Tests for the perf subsystem: recording modes, the ring buffer,
the parallel sweep runner, the trajectory, counters, and the CLI.

The contract under test is the one the optimization work leans on:
recording less must not change *behavior* (job-level signatures are
identical across ``full`` and ``jobs-only``), parallel sweeps must be
bit-identical to serial ones, and the trajectory must catch
regressions against the committed baseline.
"""

import argparse
import json

import pytest

from repro.core.overhead import OverheadModel
from repro.perf.counters import PerfReport, collect_report, merge_reports
from repro.perf.profiler import profile_call
from repro.perf.sweeps import WORKERS_ENV, parallel_map, resolve_workers
from repro.perf.trajectory import (
    RegressionError,
    append_entry,
    check_and_append,
    config_hash,
    gate,
    latest_entry,
    load_trajectory,
    make_entry,
)
from repro.sim.breakdown import figure_series
from repro.sim.kernelsim import simulate_workload
from repro.sim.trace import TRUNCATED, Trace
from repro.sim.workload import generate_workload
from repro.timeunits import ms


def _small_run(record):
    workload = generate_workload(6, seed=7, utilization=0.5)
    return simulate_workload(workload, "edf", duration=ms(100), record=record)


# ----------------------------------------------------------------------
# recording modes
# ----------------------------------------------------------------------
def test_recording_modes_same_behavior():
    """Recording less must not change what the kernel *does*: virtual
    time, switches, kernel time, and the job-level signature are all
    identical across modes."""
    kernel_full, trace_full = _small_run("full")
    kernel_jobs, trace_jobs = _small_run("jobs-only")

    assert kernel_full.now == kernel_jobs.now
    assert trace_full.context_switches == trace_jobs.context_switches
    assert trace_full.kernel_time_total == trace_jobs.kernel_time_total
    assert trace_full.idle_time == trace_jobs.idle_time


def test_recording_modes_storage_contract():
    """full stores everything; jobs-only only jobs."""
    _, trace_full = _small_run("full")
    _, trace_jobs = _small_run("jobs-only")

    assert trace_full.segments and trace_full.events and trace_full.jobs
    assert not trace_jobs.segments and not trace_jobs.events
    assert trace_jobs.jobs == trace_full.jobs


def test_job_signature_stable_across_full_and_jobs_only():
    """The job-level signature (no events) is mode-independent, so the
    cheap mode can stand in for the full one in determinism checks."""
    _, trace_full = _small_run("full")
    _, trace_jobs = _small_run("jobs-only")
    full_jobs_only_view = Trace(record="jobs-only")
    full_jobs_only_view.jobs = trace_full.jobs
    assert full_jobs_only_view.signature() == trace_jobs.signature()


def test_unknown_record_mode_rejected():
    for mode in ("everything", "off"):
        with pytest.raises(ValueError):
            Trace(record=mode)
    with pytest.raises(ValueError):
        Trace(max_events=0)


# ----------------------------------------------------------------------
# event ring buffer
# ----------------------------------------------------------------------
def test_event_ring_buffer_caps_and_marks_truncation():
    trace = Trace(record="full", max_events=5)
    for i in range(12):
        trace.note(i, "tick", str(i))
    assert len(trace.events) == 5
    assert trace.events_dropped == 7
    assert trace.events_truncated
    log = trace.event_log()
    assert log[0][1] == TRUNCATED
    assert "7 older events dropped" in log[0][2]
    # The newest events survive.
    assert [e[0] for e in log[1:]] == [7, 8, 9, 10, 11]


def test_truncated_trace_refuses_signature():
    trace = Trace(record="full", max_events=2)
    for i in range(3):
        trace.note(i, "tick", str(i))
    with pytest.raises(ValueError):
        trace.signature()


# ----------------------------------------------------------------------
# parallel sweep runner
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def test_parallel_map_matches_serial_and_preserves_order():
    items = list(range(40))
    serial = parallel_map(_square, items, workers=1)
    parallel = parallel_map(_square, items, workers=2)
    assert serial == parallel == [x * x for x in items]


def test_parallel_map_empty_and_single():
    assert parallel_map(_square, [], workers=4) == []
    assert parallel_map(_square, [3], workers=4) == [9]


def test_parallel_map_accepts_closures():
    """Points are forked, not pickled: ``fn`` may close over state."""
    offset = 10

    def shifted(x):
        return x + offset

    assert parallel_map(shifted, range(6), workers=2) == [
        x + offset for x in range(6)
    ]


def test_resolve_workers_semantics(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1  # one per CPU
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert resolve_workers(None) == 5
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_resolve_workers_names_the_env_var_on_garbage(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "two")
    with pytest.raises(ValueError, match=f"{WORKERS_ENV}='two'"):
        resolve_workers(None)


def test_figure_series_parallel_identical_to_serial():
    """The Figures 3-5 sweep gives bit-identical results at any worker
    count (every cell regenerates its workloads from its own seed)."""
    kwargs = dict(
        task_counts=[5, 10],
        policies=["edf", "csd-2"],
        workloads_per_point=3,
        seed=11,
        model=OverheadModel(),
    )
    serial = figure_series(workers=1, **kwargs)
    fanned = figure_series(workers=2, **kwargs)
    assert serial.values == fanned.values


# ----------------------------------------------------------------------
# trajectory
# ----------------------------------------------------------------------
def _entry(label, throughput, config, signatures=None):
    report = {
        "sim_ns": 1000,
        "wall_s": 0.5,
        "throughput_sim_ns_per_s": throughput,
    }
    return make_entry(label, report, config, signatures)


def test_trajectory_append_load_latest(tmp_path):
    path = tmp_path / "traj.json"
    assert load_trajectory(path) == []
    config = {"workload": "w", "record": "jobs-only"}
    append_entry(path, _entry("first", 100.0, config))
    append_entry(path, _entry("second", 120.0, config))
    append_entry(path, _entry("other", 50.0, {"workload": "different"}))
    entries = load_trajectory(path)
    assert [e["label"] for e in entries] == ["first", "second", "other"]
    # latest_entry restricted to a configuration skips mismatches.
    assert latest_entry(entries, config_hash(config))["label"] == "second"
    assert latest_entry(entries)["label"] == "other"
    assert latest_entry(entries, config_hash({"no": "match"})) is None
    # The file is plain JSON -- the committed artifact stays reviewable.
    assert isinstance(json.loads(path.read_text()), list)


def test_gate_compares_against_the_last_same_config_entry(tmp_path):
    path = tmp_path / "traj.json"
    config = {"workload": "w"}
    append_entry(path, _entry("old", 1000.0, config))
    append_entry(path, _entry("base", 100.0, config))
    append_entry(path, _entry("other", 1.0, {"workload": "different"}))
    # Within the allowed drop, and faster: both pass against "base".
    for throughput in (80.0, 250.0):
        line = gate(path, _entry("now", throughput, config), max_regression=0.30)
        assert line.startswith("regression gate: ")
        assert line.endswith("('base') -- ok")
    # Below the floor: hard failure.
    with pytest.raises(RegressionError, match="below the floor"):
        gate(path, _entry("now", 60.0, config), max_regression=0.30)


def test_gate_fails_without_a_same_config_entry(tmp_path):
    path = tmp_path / "traj.json"
    with pytest.raises(RegressionError, match="no entry"):
        gate(path, _entry("now", 100.0, {"workload": "w"}))
    append_entry(path, _entry("base", 100.0, {"workload": "w"}))
    with pytest.raises(RegressionError, match="no entry"):
        gate(path, _entry("now", 100.0, {"other": 1}))


def test_gate_fails_when_signatures_move(tmp_path):
    path = tmp_path / "traj.json"
    config = {"workload": "w"}
    signed = {"edf": "aa", "rm": "bb"}
    append_entry(path, _entry("base", 100.0, config, signed))
    # Equal signatures pass and are reported; so does an unsigned entry.
    assert "2 signature(s) equal" in gate(path, _entry("now", 100.0, config, signed))
    assert gate(path, _entry("now", 100.0, config)).endswith("-- ok")
    with pytest.raises(RegressionError, match="signatures moved vs 'base': rm"):
        gate(path, _entry("now", 1e9, config, {"edf": "aa", "rm": "XX"}))


def test_check_and_append_appends_only_after_a_passing_gate(tmp_path, capsys):
    path = tmp_path / "traj.json"
    config = {"workload": "w"}
    args = argparse.Namespace(
        check=str(path), append=str(path), max_regression=0.30, label="now"
    )
    assert not check_and_append(args, _entry("now", 100.0, config))
    assert load_trajectory(path) == []
    args.check = None
    assert check_and_append(args, _entry("first", 100.0, config))
    args.check = str(path)
    assert check_and_append(args, _entry("second", 90.0, config))
    assert [e["label"] for e in load_trajectory(path)] == ["first", "second"]
    out = capsys.readouterr().out
    assert "FAIL: no entry" in out and "('first') -- ok" in out


def test_make_entry_envelope_wins_over_report_keys():
    report = {"label": "report", "config_hash": "x", "sim_ns": 5}
    entry = make_entry("envelope", report, {"a": 1}, timestamp="then")
    assert entry["label"] == "envelope"
    assert entry["config_hash"] == config_hash({"a": 1})
    assert entry["timestamp"] != "then"
    assert entry["sim_ns"] == 5


def test_config_hash_canonical():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert len(config_hash({"a": 1})) == 16


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def test_collect_and_merge_reports():
    kernel, _ = _small_run("jobs-only")
    report = collect_report(kernel, wall_s=0.5, label="r")
    assert report.sim_ns == kernel.now >= ms(100)
    assert report.events_popped > 0
    assert report.dispatches > 0
    assert report.throughput_sim_ns_per_s == report.sim_ns / 0.5

    merged = merge_reports("pool", [report, report])
    assert merged.sim_ns == 2 * report.sim_ns
    assert merged.wall_s == 1.0
    assert merged.events_popped == 2 * report.events_popped

    data = merged.as_dict()
    assert data["throughput_sim_ns_per_s"] == round(merged.throughput_sim_ns_per_s)
    assert "sim_ns" in data and "wall_s" in data
    assert "perf [pool]" in merged.render()


def test_zero_wall_time_throughput_is_zero():
    report = PerfReport("z", 10, 0.0, 0, 0, 0, 0, 0)
    assert report.throughput_sim_ns_per_s == 0.0
    assert report.events_per_s == 0.0


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
def test_profile_call_returns_result_and_stats():
    result, text = profile_call(_square, 7, limit=5)
    assert result == 49
    assert "function calls" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_perf_cli_append_and_check(tmp_path, capsys):
    """End-to-end: measure, append, then re-check against the entry."""
    from repro.reproduce import main

    traj = tmp_path / "traj.json"
    # Nothing to compare against yet: the gate fails.
    rc = main(["perf", "--no-signatures", "--check", str(traj)])
    assert rc == 1
    assert "FAIL: no entry" in capsys.readouterr().out

    rc = main(["perf", "--append", str(traj)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput:" in out
    entries = load_trajectory(traj)
    assert len(entries) == 1
    assert entries[0]["label"] == "perf-cli"
    assert entries[0]["throughput_sim_ns_per_s"] > 0
    assert set(entries[0]["signatures_full"]) == {"edf", "rm", "csd-3"}

    # Second run now has a baseline with the same config hash.
    rc = main(["perf", "--check", str(traj)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 signature(s) equal ('perf-cli') -- ok" in out


def test_perf_cli_append_requires_signatures(tmp_path):
    from repro.reproduce import main

    with pytest.raises(SystemExit) as exc:
        main(["perf", "--no-signatures", "--append", str(tmp_path / "t.json")])
    assert exc.value.code == 2


def test_perf_cli_regression_failure(tmp_path, capsys):
    """An absurdly fast fake baseline forces the gate to fire."""
    from repro.perf.workloads import throughput_config
    from repro.reproduce import main

    traj = tmp_path / "traj.json"
    append_entry(
        traj, _entry("fake", 1e18, throughput_config("jobs-only"))
    )
    rc = main(["perf", "--no-signatures", "--check", str(traj)])
    assert rc == 1
    assert "FAIL: throughput" in capsys.readouterr().out
