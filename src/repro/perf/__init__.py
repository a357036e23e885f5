"""Performance layer: counters, profiling, parallel sweeps, trajectory.

The simulator is the instrument every figure and table in this
reproduction is measured with, so its own speed is a first-class
concern.  This package holds everything performance-related that is
not the hot path itself:

* :mod:`repro.perf.counters` -- lightweight run counters (events
  popped, dispatches, context switches) and throughput reports
  (sim-ns per wall-second);
* :mod:`repro.perf.profiler` -- an opt-in ``cProfile`` hook, exposed
  via ``python -m repro.reproduce perf --profile``;
* :mod:`repro.perf.sweeps` -- a ``multiprocessing`` sweep runner with
  deterministic, seed-stable results that the benchmark scripts route
  through, plus the shared-prefix planner (:func:`prefix_map`) that
  simulates each common warm-up prefix once and restores every sweep
  point from a snapshot of it;
* :mod:`repro.perf.snapshot` -- the checkpoint/restore mechanism
  behind that planner: fork-based copy-on-write prefix servers,
  byte-identical to cold runs by construction;
* :mod:`repro.perf.trajectory` -- the persistent machine-readable
  perf history (``BENCH_kernel.json``) that makes regressions visible
  across PRs;
* :mod:`repro.perf.workloads` -- the canonical throughput workload
  (the ``bench_kernel_overhead`` configuration) shared by the CLI,
  the benchmarks, and CI.
"""

from repro.perf.counters import PerfReport, collect_report
from repro.perf.profiler import profile_call
from repro.perf.snapshot import SnapshotError, SnapshotServer
from repro.perf.sweeps import (
    PrefixSpec,
    parallel_map,
    prefix_map,
    resolve_workers,
)
from repro.perf.trajectory import (
    append_entry,
    check_regression,
    config_hash,
    load_trajectory,
)

__all__ = [
    "PerfReport",
    "collect_report",
    "profile_call",
    "parallel_map",
    "resolve_workers",
    "PrefixSpec",
    "prefix_map",
    "SnapshotError",
    "SnapshotServer",
    "append_entry",
    "check_regression",
    "config_hash",
    "load_trajectory",
]
