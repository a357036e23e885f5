"""Smoke tests for the command-line reproduction harness."""

import os
from pathlib import Path

import pytest

from repro import reproduce

BENCH_DIR = Path(reproduce.__file__).parent.parent.parent / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"

#: The files each cheap artifact's benchmark publishes.
CHEAP_ARTIFACTS = {
    "table1": {"table1.txt", "table1_crossover.txt"},
    "table2": {"table2.txt", "figure2_rm.txt", "figure2_alternatives.txt"},
    "figure2": {"table2.txt", "figure2_rm.txt", "figure2_alternatives.txt"},
    "table3": {"table3.txt", "table3_split_gain.txt"},
    "cyclic": {
        "cyclic_table_size.txt", "cyclic_aperiodic.txt", "cyclic_brittleness.txt"
    },
    "ipc": {"ipc_readers.txt", "ipc_sizes.txt"},
}


@pytest.mark.parametrize("target", sorted(CHEAP_ARTIFACTS))
def test_cheap_targets_run(target, tmp_path):
    assert reproduce.main([target, "--quick", "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == CHEAP_ARTIFACTS[target]
    if target == "figure2":
        text = (tmp_path / "figure2_alternatives.txt").read_text()
        assert "EDF schedule of the Table 2 workload" in text
        assert "tau5 |........................############" in text


def test_figure11_quick(tmp_path):
    assert reproduce.main(["figure11", "--quick", "--out", str(tmp_path)]) == 0
    assert "DP queue" in (tmp_path / "figure11_dp.txt").read_text()
    fp = (tmp_path / "figure11_fp.txt").read_text()
    assert "FP queue" in fp
    assert "29.4" in fp  # the flat FP line


def test_quick_never_writes_committed_results(monkeypatch):
    """A --quick pass writes into the gitignored results/smoke/."""
    monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
    committed = {p: p.read_bytes() for p in RESULTS_DIR.glob("*.txt")}
    smoke_rm = RESULTS_DIR / "smoke" / "figure2_rm.txt"
    smoke_rm.parent.mkdir(exist_ok=True)
    smoke_rm.write_text("stale\n")
    assert reproduce.main(["table2", "--quick"]) == 0
    assert {p: p.read_bytes() for p in RESULTS_DIR.glob("*.txt")} == committed
    assert "RM schedule" in smoke_rm.read_text()


@pytest.mark.parametrize("figure", ["figure3", "figure4", "figure5"])
def test_committed_breakdown_figures_are_default_size(figure):
    """EXPERIMENTS.md cites these files: each must be a default-size
    run (25 workloads at every n = 5, 10, ..., 50)."""
    lines = (RESULTS_DIR / f"{figure}.txt").read_text().splitlines()
    assert "(25 workloads/point" in lines[0]
    rows = lines[3:lines.index("")]
    assert [int(row.split()[0]) for row in rows] == list(range(5, 51, 5))


def test_smoke_keeps_explicit_out(tmp_path):
    """``bench`` forwards a bare --smoke to each CLI benchmark's own
    parser, which must not replace the outer --out."""
    assert reproduce.main(["bench", "faults", "--smoke", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fault_sweep.txt").exists()


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        reproduce.main(["figure99"])


def test_faults_subcommand(capsys):
    assert reproduce.main(["faults", "--seed", "42", "--wcet-overrun", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "Chaos run: seed 42" in out
    assert "deadline-miss ratio" in out
    assert "trace signature" in out


def test_faults_subcommand_is_deterministic(capsys):
    args = ["faults", "--seed", "7", "--wcet-overrun", "20", "--crash", "5"]
    assert reproduce.main(args) == 0
    first = capsys.readouterr().out
    assert reproduce.main(args) == 0
    assert capsys.readouterr().out == first


def test_faults_no_defenses_flag(capsys):
    assert reproduce.main(["faults", "--crash", "10", "--no-defenses"]) == 0
    out = capsys.readouterr().out
    assert "defenses off" in out


def test_ipc_target_leaves_sys_path_alone(tmp_path):
    """Neither ``benchmarks/`` nor anything a benchmark prepends stays
    on ``sys.path``, so a later ``import common`` cannot pick up
    whatever a cwd-relative directory holds."""
    import sys

    before = list(sys.path)
    assert reproduce.main(["ipc", "--quick", "--out", str(tmp_path)]) == 0
    assert sys.path == before


def test_bench_leaves_environ_alone(tmp_path):
    """The flags ``apply_bench_args`` publishes into ``os.environ`` do
    not outlive the call: a later full-size run in the same process
    must not run at smoke size or write into this ``--out``."""
    before = dict(os.environ)
    assert reproduce.main(["table1", "--quick", "--out", str(tmp_path)]) == 0
    assert dict(os.environ) == before


def test_only_positional_names_are_artifacts(tmp_path, monkeypatch):
    """An ``--out`` directory named like an artifact stays that
    directory instead of being renamed to the artifact's benchmark."""
    monkeypatch.chdir(tmp_path)
    assert reproduce.main(["table1", "--quick", "--out", "figure3"]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"figure3"}
    assert (tmp_path / "figure3" / "table1.txt").exists()


def test_artifacts_sharing_a_benchmark_run_it_once(monkeypatch):
    """``table2`` and ``figure2`` both name ``bench_table2_fig2``."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import bench_table2_fig2

    calls = []
    monkeypatch.setattr(bench_table2_fig2, "main", lambda argv: calls.append(argv))
    assert reproduce.main(["table2", "figure2", "--quick"]) == 0
    assert calls == [["--smoke"]]


def test_failing_benchmark_does_not_stop_the_next(monkeypatch, capsys):
    """A benchmark whose claim fails prints its traceback, the ones
    after it still run, and ``bench`` exits 1."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import bench_table1
    import bench_table3

    def broken(argv):
        raise AssertionError("claim does not hold")

    calls = []
    monkeypatch.setattr(bench_table1, "main", broken)
    monkeypatch.setattr(bench_table3, "main", lambda argv: calls.append(argv))
    assert reproduce.main(["bench", "table1", "table3", "--smoke"]) == 1
    assert calls == [["--smoke"]]
    assert "AssertionError: claim does not hold" in capsys.readouterr().err


def test_every_artifact_names_a_benchmark():
    """Each paper artifact is an alias of a benchmark file on disk."""
    assert set(reproduce.ARTIFACTS) == {
        "table1", "table2", "table3", "figure2", "figure3", "figure4",
        "figure5", "figure11", "ipc", "cyclic", "footprint", "validate",
    }
    for name in reproduce.ARTIFACTS.values():
        assert (BENCH_DIR / f"bench_{name}.py").is_file(), name


def test_trace_subcommand_exports_valid_chrome_trace(tmp_path, capsys):
    import json

    from repro.obs.tracer import REQUIRED_TRACE_KEYS, validate_chrome_trace

    out = tmp_path / "demo.trace.json"
    assert reproduce.main(["trace", "--demo", "pi", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert validate_chrome_trace(payload) > 0
    for key in REQUIRED_TRACE_KEYS:
        assert key in payload
    stdout = capsys.readouterr().out
    assert "trace events" in stdout


def test_metrics_subcommand_text_report(capsys):
    assert reproduce.main(["metrics", "--demo", "pi"]) == 0
    out = capsys.readouterr().out
    assert "per-task response time" in out
    assert "per-semaphore blocking" in out
    assert "priority-inheritance chains" in out
    assert "p99 us" in out


def test_metrics_subcommand_formats(tmp_path, capsys):
    import json

    assert reproduce.main(["metrics", "--demo", "pi", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "task_response_ns" in payload
    out = tmp_path / "m.prom"
    assert reproduce.main(
        ["metrics", "--demo", "pi", "--format", "prom", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert "# TYPE sem_blocks_total counter" in out.read_text()


def test_metrics_subcommand_is_deterministic(capsys):
    args = ["metrics", "--demo", "pi", "--scheme", "emeralds"]
    assert reproduce.main(args) == 0
    first = capsys.readouterr().out
    assert reproduce.main(args) == 0
    assert capsys.readouterr().out == first


def test_metrics_subcommand_runs_csd2(capsys):
    args = ["metrics", "--policy", "csd-2", "--horizon-ms", "20"]
    assert reproduce.main(args) == 0


def test_unknown_policy_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        reproduce.main(["trace", "--policy", "edff"])
    assert exc.value.code == 2


def test_csd_policy_allocates_its_fp_queue():
    parser = reproduce._obs_arg_parser("trace", "test")
    args = parser.parse_args(["--policy", "csd-4", "--horizon-ms", "1"])
    kernel, _trace, _collector = reproduce._obs_run(args)
    lengths = kernel.scheduler.queue_lengths()
    assert len(lengths) == 4
    assert lengths[-1] > 0


def test_every_cli_benchmark_accepts_smoke(monkeypatch):
    """``reproduce bench --smoke`` passes ``--smoke`` to every
    benchmark's ``main``, so each must parse it (the flag lives once,
    in ``bench_arg_parser``)."""
    import importlib

    class Parsed(Exception):
        pass

    seen = []

    def capture(args):
        seen.append(args)
        raise Parsed

    monkeypatch.syspath_prepend(str(BENCH_DIR))
    paths = sorted(BENCH_DIR.glob("bench_*.py"))
    assert len(paths) == 19
    for path in paths:
        module = importlib.import_module(path.stem)
        monkeypatch.setattr(module, "apply_bench_args", capture)
        with pytest.raises(Parsed):
            module.main(["--smoke"])
        assert seen.pop().smoke, path.stem
