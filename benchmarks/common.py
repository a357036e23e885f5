"""Shared plumbing for the benchmark harness.

Every ``bench_<name>.py`` is a script whose ``main(argv) -> int``
regenerates one of the paper's tables or figures (or one extension
measurement), asserts its claims, prints the rendered text and writes
it into ``benchmarks/results/``.  ``reproduce bench <name>`` calls the
same ``main`` in-process.

All benchmarks read their knobs from one place -- here -- as
environment variables.  :func:`bench_arg_parser` gives every script
and ``reproduce bench`` the same ``--out/--workers/--smoke`` flags, and
:func:`apply_bench_args` writes them back into the environment so the
env-based getters agree.  The scripts that measure a committed
``BENCH_*.json`` trajectory take their ``--check/--append`` flags from
:mod:`repro.perf.trajectory`.

``--smoke`` (``reproduce --quick``) is the shrunken pass: some scripts
shrink their own grid, the Figures 3-5 sweeps get the smoke sizes
below, and nothing overwrites the committed results -- output goes
into the gitignored ``benchmarks/results/smoke/`` unless ``--out``
(or ``REPRO_BENCH_OUT``) names a directory.

Environment knobs:

* ``REPRO_BENCH_WORKLOADS`` -- random workloads averaged per point in
  the Figures 3-5 sweeps (default 25, smoke 8; the paper used 500).
* ``REPRO_BENCH_TASKCOUNTS`` -- comma-separated task counts for the
  sweeps (default ``5,10,...,50`` like the paper; smoke
  ``5,15,30,50``).
* ``REPRO_BENCH_WORKERS`` -- forked processes per sweep (default 1 =
  serial; 0 = one per CPU), read by
  :func:`repro.perf.sweeps.parallel_map` and
  :func:`~repro.perf.sweeps.prefix_map`.
* ``REPRO_BENCH_OUT`` -- output directory for rendered results
  (default ``benchmarks/results/``, smoke ``benchmarks/results/smoke/``).
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import List, Optional

from repro.perf.sweeps import WORKERS_ENV

RESULTS_DIR = Path(__file__).parent / "results"


def bench_workloads() -> int:
    """Workloads per figure point (paper: 500)."""
    return int(os.environ.get("REPRO_BENCH_WORKLOADS", "25"))


def bench_task_counts() -> List[int]:
    """Task counts for the Figures 3-5 x axis (paper: 5..50)."""
    raw = os.environ.get("REPRO_BENCH_TASKCOUNTS", "")
    if raw:
        return [int(x) for x in raw.split(",")]
    return list(range(5, 51, 5))


def bench_out_dir() -> Path:
    """Directory rendered benchmark output is persisted into."""
    raw = os.environ.get("REPRO_BENCH_OUT", "")
    return Path(raw) if raw else RESULTS_DIR


def bench_arg_parser(description: Optional[str] = None) -> argparse.ArgumentParser:
    """The shared CLI for standalone benchmark scripts.

    Flags mirror the environment knobs; :func:`apply_bench_args` writes
    the parsed values back into the environment, so library code that
    consults them (``parallel_map``'s worker count etc.) sees the flags
    too.  ``--smoke`` asks each benchmark for its shrunken CI pass.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for rendered results (default benchmarks/results/, "
        "or results/smoke/ under --smoke)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="forked processes per sweep (default 1 = serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="shrunken pass for CI"
    )
    return parser


def apply_bench_args(args: argparse.Namespace) -> argparse.Namespace:
    """Publish parsed shared flags into the environment knobs.

    ``--smoke`` only fills unset knobs, so an explicit ``--out`` wins --
    also one given to the ``reproduce bench`` that forwards ``--smoke``.
    """
    if getattr(args, "out", None) is not None:
        os.environ["REPRO_BENCH_OUT"] = str(args.out)
    if getattr(args, "workers", None) is not None:
        if args.workers < 0:
            raise SystemExit(f"--workers must be non-negative (got {args.workers})")
        os.environ[WORKERS_ENV] = str(args.workers)
    if getattr(args, "smoke", False):
        os.environ.setdefault("REPRO_BENCH_TASKCOUNTS", "5,15,30,50")
        os.environ.setdefault("REPRO_BENCH_WORKLOADS", "8")
        os.environ.setdefault("REPRO_BENCH_OUT", str(RESULTS_DIR / "smoke"))
    return args


def publish(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under the output dir."""
    out = bench_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
