"""Shared plumbing for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
writes the rendered text into ``benchmarks/results/`` (so the output
survives pytest's capture) in addition to printing it.

All benchmarks read their knobs from one place -- here -- either as
environment variables (how the pytest-run benchmarks are configured)
or through :func:`bench_arg_parser`, which gives standalone benchmark
CLIs the same ``--out/--workers/--record/--obs/--smoke`` flags and
writes them back into the environment so the env-based getters agree.
The CLIs that measure a committed ``BENCH_*.json`` trajectory take
their ``--check/--append`` flags from :mod:`repro.perf.trajectory`.

Environment knobs:

* ``REPRO_BENCH_WORKLOADS`` -- random workloads averaged per point in
  the Figures 3-5 sweeps (default 25; the paper used 500).
* ``REPRO_BENCH_TASKCOUNTS`` -- comma-separated task counts for the
  sweeps (default ``5,10,...,50`` like the paper).
* ``REPRO_BENCH_WORKERS`` -- worker processes for parallel sweeps
  (default 1 = serial; 0 = one per CPU).
* ``REPRO_BENCH_RECORD`` -- trace recording mode for live-kernel
  benchmarks (``full``, ``jobs-only`` or ``off``; default
  ``jobs-only``).
* ``REPRO_BENCH_OUT`` -- output directory for rendered results
  (default ``benchmarks/results/``).
* ``REPRO_BENCH_OBS`` -- observability mode for live-kernel runs
  (``counters`` or ``full``; default unset = observation off).
  Benchmarks that honor it can dump the metrics/trace artifacts via
  :func:`dump_obs_artifacts`.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import List, Optional

from repro.perf.sweeps import WORKERS_ENV, parallel_map, resolve_workers
from repro.sim.trace import RECORD_MODES

RESULTS_DIR = Path(__file__).parent / "results"

#: Explicit registry of every benchmark: name -> invocation style.
#: ``"cli"`` modules expose ``main(argv) -> int`` and are called
#: in-process by ``reproduce bench``; ``"pytest"`` modules are
#: collected as test files.  Every ``bench_<name>.py`` in this
#: directory MUST appear here (enforced by a test) -- discovery by
#: source-grepping is gone.
BENCHMARKS = {
    "ablations": "pytest",
    "cluster": "cli",
    "cyclic": "pytest",
    "faults": "cli",
    "fieldbus": "pytest",
    "fig11": "pytest",
    "fig3": "pytest",
    "fig4": "pytest",
    "fig5": "pytest",
    "footprint": "pytest",
    "ipc": "pytest",
    "kernel_overhead": "pytest",
    "net_faults": "cli",
    "obs": "cli",
    "sweeps": "cli",
    "table1": "pytest",
    "table2_fig2": "pytest",
    "table3": "pytest",
    "validation": "pytest",
}


def bench_workloads() -> int:
    """Workloads per figure point (paper: 500)."""
    return int(os.environ.get("REPRO_BENCH_WORKLOADS", "25"))


def bench_task_counts() -> List[int]:
    """Task counts for the Figures 3-5 x axis (paper: 5..50)."""
    raw = os.environ.get("REPRO_BENCH_TASKCOUNTS", "")
    if raw:
        return [int(x) for x in raw.split(",")]
    return list(range(5, 51, 5))


def bench_workers() -> int:
    """Worker processes for parallel sweeps (1 = serial, 0 = per CPU)."""
    return resolve_workers(None)


def bench_record_mode() -> str:
    """Trace recording mode for live-kernel benchmark runs."""
    mode = os.environ.get("REPRO_BENCH_RECORD", "jobs-only")
    if mode not in RECORD_MODES:
        raise ValueError(
            f"REPRO_BENCH_RECORD={mode!r}: expected one of {RECORD_MODES}"
        )
    return mode


def bench_out_dir() -> Path:
    """Directory rendered benchmark output is persisted into."""
    raw = os.environ.get("REPRO_BENCH_OUT", "")
    return Path(raw) if raw else RESULTS_DIR


def bench_obs_mode() -> Optional[str]:
    """Observability mode for live-kernel runs (None = off)."""
    from repro.obs.collector import OBS_MODES

    raw = os.environ.get("REPRO_BENCH_OBS", "")
    if not raw:
        return None
    if raw not in OBS_MODES:
        raise ValueError(
            f"REPRO_BENCH_OBS={raw!r}: expected one of {OBS_MODES}"
        )
    return raw


def dump_obs_artifacts(name: str, kernel, trace) -> Optional[Path]:
    """Write the observability artifacts of one benchmark run.

    When the kernel has a collector attached, writes
    ``<name>.metrics.json``, ``<name>.prom``, and (full recording
    only) ``<name>.trace.json`` -- the Perfetto-loadable Chrome trace
    -- under the benchmark output directory.  Returns that directory,
    or None when observation is off.
    """
    collector = getattr(kernel, "obs", None)
    if collector is None:
        return None
    from repro.obs.tracer import export_chrome_trace

    out = bench_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.metrics.json").write_text(collector.metrics_json() + "\n")
    (out / f"{name}.prom").write_text(collector.metrics_prometheus())
    if trace is not None and trace.record == "full":
        export_chrome_trace(out / f"{name}.trace.json", trace, collector)
    return out


def bench_arg_parser(description: Optional[str] = None) -> argparse.ArgumentParser:
    """The shared CLI for standalone benchmark scripts.

    Flags mirror the environment knobs; :func:`apply_bench_args` writes
    the parsed values back into the environment, so library code that
    consults ``bench_workers()`` etc. sees the flags too.  ``--smoke``
    asks each benchmark for its shrunken CI pass.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for rendered results (default benchmarks/results/)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default 1 = serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--record", choices=RECORD_MODES, default=None,
        help="trace recording mode for live-kernel runs",
    )
    parser.add_argument(
        "--obs", choices=("counters", "full"), default=None,
        help="attach an observability collector to live-kernel runs",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="shrunken pass for CI"
    )
    return parser


def apply_bench_args(args: argparse.Namespace) -> argparse.Namespace:
    """Publish parsed shared flags into the environment knobs."""
    if getattr(args, "out", None) is not None:
        os.environ["REPRO_BENCH_OUT"] = str(args.out)
    if getattr(args, "workers", None) is not None:
        if args.workers < 0:
            raise SystemExit(f"--workers must be non-negative (got {args.workers})")
        os.environ[WORKERS_ENV] = str(args.workers)
    if getattr(args, "record", None) is not None:
        os.environ["REPRO_BENCH_RECORD"] = args.record
    if getattr(args, "obs", None) is not None:
        os.environ["REPRO_BENCH_OBS"] = args.obs
    return args


def sweep_map(fn, items, chunksize: Optional[int] = None):
    """Map a sweep over its points with the configured worker count.

    Thin wrapper over :func:`repro.perf.sweeps.parallel_map`; results
    are bit-identical to the serial run at any worker count.
    """
    return parallel_map(fn, items, workers=bench_workers(), chunksize=chunksize)


def publish(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under the output dir."""
    out = bench_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
