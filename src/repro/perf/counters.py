"""Lightweight performance counters for simulator runs.

The kernel already counts the cheap things as it runs (events popped,
dispatches, syscalls -- plain integer increments on the hot path);
this module turns those raw counters plus a wall-clock measurement
into a :class:`PerfReport` with derived rates, most importantly the
headline **sim-ns per wall-second** throughput that the perf
trajectory (``BENCH_kernel.json``) tracks across PRs.  :func:`timed`
is the one wall-clock timer every throughput measurement uses.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Dict, Tuple, TypeVar

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

__all__ = ["PerfReport", "collect_report", "timed"]

T = TypeVar("T")


def timed(fn: Callable[[], T]) -> Tuple[T, float]:
    """Run ``fn()`` and return ``(result, wall seconds)``.

    The same discipline as the stdlib ``timeit`` template: a full
    collection first, then the collector parked across the timed call
    (collector pauses land unpredictably inside a run and were measured
    to swing per-run throughput by over 20%).  The collector state is
    restored afterwards either way.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class PerfReport:
    """Counters and rates for one (or several pooled) kernel runs."""

    label: str
    sim_ns: int
    wall_s: float
    events_popped: int
    dispatches: int
    context_switches: int
    syscalls: int
    kernel_time_ns: int

    @property
    def throughput_sim_ns_per_s(self) -> float:
        """Virtual nanoseconds simulated per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return self.sim_ns / self.wall_s

    @property
    def events_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.events_popped / self.wall_s

    def as_dict(self) -> Dict:
        """Counters plus derived rates, ready for JSON persistence."""
        data = asdict(self)
        data["throughput_sim_ns_per_s"] = round(self.throughput_sim_ns_per_s)
        data["events_per_s"] = round(self.events_per_s)
        return data

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"perf [{self.label}]",
            f"  sim time:         {self.sim_ns / 1e9:.3f} s virtual",
            f"  wall time:        {self.wall_s:.3f} s",
            f"  throughput:       {self.throughput_sim_ns_per_s / 1e9:.2f} sim-s/wall-s",
            f"  events popped:    {self.events_popped}",
            f"  dispatches:       {self.dispatches}",
            f"  context switches: {self.context_switches}",
            f"  syscalls:         {self.syscalls}",
            f"  kernel time:      {self.kernel_time_ns / 1e6:.2f} ms virtual",
        ]
        return "\n".join(lines)


def collect_report(kernel: "Kernel", wall_s: float, label: str = "run") -> PerfReport:
    """Snapshot one kernel's counters into a report."""
    return PerfReport(
        label=label,
        sim_ns=kernel.now,
        wall_s=wall_s,
        events_popped=kernel.events_popped,
        dispatches=kernel.scheduler.stats.selects,
        context_switches=kernel.trace.context_switches,
        syscalls=kernel.syscall_count,
        kernel_time_ns=kernel.trace.kernel_time_total,
    )


def merge_reports(label: str, reports) -> PerfReport:
    """Pool several per-run reports into one aggregate report."""
    reports = list(reports)
    return PerfReport(
        label=label,
        sim_ns=sum(r.sim_ns for r in reports),
        wall_s=sum(r.wall_s for r in reports),
        events_popped=sum(r.events_popped for r in reports),
        dispatches=sum(r.dispatches for r in reports),
        context_switches=sum(r.context_switches for r in reports),
        syscalls=sum(r.syscalls for r in reports),
        kernel_time_ns=sum(r.kernel_time_ns for r in reports),
    )
