"""Tests for the perf subsystem: recording modes, the parallel sweep
runner, the trajectory, counters, and the CLI.

The contract under test is the one the optimization work leans on:
recording less must not change *behavior* (job-level signatures are
identical across ``full`` and ``jobs-only``), parallel sweeps must be
bit-identical to serial ones, and the trajectory must catch
regressions against the committed baseline.
"""

import argparse
import ast
import collections
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.core.overhead import OverheadModel
from repro.perf.counters import PerfReport, collect_report, merge_reports
from repro.perf.profiler import profile_call
from repro.perf.sweeps import WORKERS_ENV, parallel_map, resolve_workers
from repro.perf.workcount import count_calls
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
from repro.sim.trace import Trace
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
# source guards
# ----------------------------------------------------------------------
_REPO = pathlib.Path(__file__).resolve().parent.parent


def _syntax_trees(*dirs):
    for directory in dirs:
        for path in sorted((_REPO / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _slot_strings(tree):
    """Ids of the string constants inside ``__slots__`` assignments:
    declaring a slot is not reading it."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            ids.update(id(const) for const in ast.walk(node.value))
    return ids


#: Methods that only grow a collection: calling one is not a read.
_GROWERS = frozenset({"append", "extend", "appendleft", "add"})


def _grow_receivers(tree):
    """The ``obj.attr`` loads that only receive a growing call, as in
    ``obj.attr.append(x)``."""
    return [
        node.func.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _GROWERS
        and isinstance(node.func.value, ast.Attribute)
    ]


def _attributes_read():
    """Attribute names read anywhere in the repository: an attribute
    load that does more than receive a growing call, or a string naming
    the attribute (a ``getattr``) outside a ``__slots__`` declaration."""
    read = set()
    for _, tree in _syntax_trees("src", "tests", "benchmarks", "examples", "simbench"):
        declared = _slot_strings(tree)
        grows = {id(node) for node in _grow_receivers(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) not in grows:
                    read.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in declared
            ):
                read.add(node.value)
    return read


def test_every_updated_counter_has_a_reader():
    """A count that ``src/`` bumps with ``+=`` or ``-=`` and nothing
    reads is state a small-memory kernel carries, and a hot path pays
    for, on nobody's behalf.  Every such attribute must be read
    somewhere in the repository: an attribute load, or a string naming
    it (a ``getattr``); the strings of a ``__slots__`` declaration do
    not count."""
    updated = collections.defaultdict(list)
    for path, tree in _syntax_trees("src"):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.target, ast.Attribute)
            ):
                where = f"{path.relative_to(_REPO)}:{node.lineno}"
                updated[node.target.attr].append(where)
    # The walk sees the updates where they are.
    assert any(
        where.startswith("src/repro/core/queues.py")
        for places in updated.values()
        for where in places
    )
    read = _attributes_read()
    unread = sorted(
        f"{name} ({places[0]})" for name, places in updated.items() if name not in read
    )
    assert unread == []


def test_every_grown_list_has_a_reader():
    """The same rule for records that ``src/`` only grows: an attribute
    that appears only as the receiver of ``.append``, ``.extend``,
    ``.appendleft`` or ``.add`` is a log nobody reads."""
    grown = collections.defaultdict(list)
    for path, tree in _syntax_trees("src"):
        for node in _grow_receivers(tree):
            grown[node.attr].append(f"{path.relative_to(_REPO)}:{node.lineno}")
    # The walk sees the growth where it is.
    assert "pi_events" in grown
    read = _attributes_read()
    # ``NetInterface._effect_log`` is read through its alias
    # ``Cluster._effect_logs``, which holds the same list objects.
    read.add("_effect_log")
    unread = sorted(
        f"{name} ({places[0]})" for name, places in grown.items() if name not in read
    )
    assert unread == []


def _label_loads(directory):
    """Where modules under ``directory`` load the attribute
    ``blocked_on``, by path."""
    return [
        f"{path.relative_to(_REPO)}:{node.lineno}"
        for path, tree in _syntax_trees(directory)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "blocked_on"
        and isinstance(node.ctx, ast.Load)
    ]


def test_no_wait_is_read_back_from_text():
    """A thread's wait is one record, ``wait_kind`` and ``wait_on``;
    ``Thread.blocked_on`` is only a label derived from it.  No ``src/``
    module but ``kernel/thread.py`` loads that label, so no code parses
    a wait back from text."""
    # The walk sees a load where there is one.
    assert any(where.startswith("tests/") for where in _label_loads("tests"))
    offenders = [
        where
        for where in _label_loads("src")
        if not where.startswith("src/repro/kernel/thread.py:")
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
def test_profile_call_returns_result_and_stats():
    result, text = profile_call(_square, 7, limit=5)
    assert result == 49
    assert "function calls" in text


# ----------------------------------------------------------------------
# work counts
# ----------------------------------------------------------------------
def test_count_calls_counts_python_and_c_calls():
    def body():
        return sum(len(word) for word in ("ab", "cde"))

    # body, sum, the generator (entered three times), len twice.
    assert count_calls(body) == (5, 7)
    assert count_calls(len, [1, 2]) == (2, 1)
    with pytest.raises(RuntimeError, match="in use"):
        count_calls(count_calls, len, [])


def test_work_count_of_a_kernel_lean_round_repeats(monkeypatch):
    """A short-horizon simbench kernel-lean round makes the same number
    of calls each time: the count is a deterministic measure of work."""
    spec = importlib.util.spec_from_file_location(
        "simbench_workloads", _REPO / "simbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    lean = workloads.KernelLean(horizon_ns=ms(60))
    counted = []
    for _ in range(2):
        kernels, calls = count_calls(lean.run, lean.setup(11), None)
        counted.append((calls, lean.check(kernels).ops))
    assert counted[0][0] > 10_000
    assert counted[0] == counted[1]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_perf_cli_append_and_check(tmp_path, capsys):
    """End-to-end: measure, append, then re-check against the entry.

    The re-check gates a second wall-clock measurement, and on a small
    shared VM throughput swings by more than the gate's 30% between two
    runs, so the appended entry's throughput is rewritten to one the
    floor cannot trip: the test pins the append, check and signature
    wiring, not the host's speed (``test_perf_cli_regression_failure``
    fakes its baseline the same way to pin the failing side).
    """
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

    entries[0]["throughput_sim_ns_per_s"] = 1
    traj.write_text(json.dumps(entries))
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
