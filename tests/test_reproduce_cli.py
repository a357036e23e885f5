"""Smoke tests for the command-line reproduction harness."""

import pytest

from repro import reproduce


@pytest.mark.parametrize(
    "target", ["table1", "table2", "table3", "figure2", "cyclic", "ipc"]
)
def test_cheap_targets_run(target, capsys):
    assert reproduce.main([target, "--quick"]) == 0
    out = capsys.readouterr().out
    assert "done in" in out
    assert len(out) > 100


def test_figure11_quick(capsys):
    assert reproduce.main(["figure11", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "DP queue" in out and "FP queue" in out
    assert "29.4" in out  # the flat FP line


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


def test_snapshot_subcommand(capsys):
    args = [
        "snapshot", "--duration-ms", "300", "--warmup-ms", "225",
        "--seeds", "1", "2", "--rates", "5", "50",
    ]
    assert reproduce.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(": identical (" in line for line in lines) == 4
    assert lines[-1] == "every restored point is byte-identical to its cold run"


def test_default_runs_everything_quick_is_not_tested_here():
    """Running all targets takes minutes; covered by the benchmarks."""
    assert set(reproduce.TARGETS) >= {
        "table1",
        "table2",
        "table3",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "figure11",
        "ipc",
        "cyclic",
        "footprint",
    }


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


def test_every_benchmark_file_is_registered():
    """The explicit registry replaces source-grep discovery: every
    bench_*.py must be declared, and every declaration must exist."""
    import sys
    from pathlib import Path

    bench_dir = Path(reproduce.__file__).parent.parent.parent / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        import common
        on_disk = {p.stem[len("bench_"):] for p in bench_dir.glob("bench_*.py")}
        assert on_disk == set(common.BENCHMARKS)
        assert set(common.BENCHMARKS.values()) <= {"cli", "pytest"}
    finally:
        sys.path.remove(str(bench_dir))


def test_every_cli_benchmark_accepts_smoke(monkeypatch):
    """``reproduce bench --smoke`` passes ``--smoke`` to every CLI
    benchmark, so each must parse it (the flag lives once, in
    ``bench_arg_parser``)."""
    import importlib
    from pathlib import Path

    class Parsed(Exception):
        pass

    seen = []

    def capture(args):
        seen.append(args)
        raise Parsed

    bench_dir = Path(reproduce.__file__).parent.parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(bench_dir))
    import common

    for name, style in common.BENCHMARKS.items():
        if style != "cli":
            continue
        module = importlib.import_module(f"bench_{name}")
        monkeypatch.setattr(module, "apply_bench_args", capture)
        with pytest.raises(Parsed):
            module.main(["--smoke"])
        assert seen.pop().smoke, name
