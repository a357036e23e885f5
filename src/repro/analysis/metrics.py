"""Trace metrics: miss ratios, recovery time, overhead shares.

Post-processing helpers that turn a :class:`~repro.sim.trace.Trace`
into the quantities real-time evaluations report: deadline-miss
ratios, post-fault recovery time, and the breakdown of CPU time into
application work, kernel overhead (by category), and idle.  Per-task
response-time summaries have one home,
:func:`repro.obs.analyzers.response_percentiles` (nearest-rank
percentiles over the trace's job records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.trace import IDLE, KERNEL, Trace

__all__ = [
    "CpuBreakdown",
    "cpu_breakdown",
    "miss_ratio",
    "recovery_time_ns",
]


def miss_ratio(trace: Trace, now: int, thread: Optional[str] = None) -> float:
    """Fraction of released jobs that violated their deadline.

    Counts both late completions and overdue unfinished jobs.  Restrict
    to one thread with ``thread``.
    """
    jobs = trace.jobs if thread is None else trace.jobs_of(thread)
    if not jobs:
        return 0.0
    violations = trace.deadline_violations(now)
    if thread is not None:
        violations = [j for j in violations if j.thread == thread]
    return len(violations) / len(jobs)


def recovery_time_ns(trace: Trace, now: int, burst_end: int) -> int:
    """How long after ``burst_end`` the system kept violating deadlines.

    Returns the distance from ``burst_end`` to the *last* deadline
    violation instant -- a late job counts at its completion, an
    unfinished or aborted overdue job at its deadline.  Zero means
    every violation (if any) happened during the burst: the kernel was
    back to a zero-miss steady state the moment the faults stopped.
    """
    latest: Optional[int] = None
    for job in trace.deadline_violations(now):
        instant = job.completion if job.completion is not None else job.deadline
        if instant is None:
            continue
        if instant > burst_end and (latest is None or instant > latest):
            latest = instant
    return 0 if latest is None else latest - burst_end


@dataclass(frozen=True)
class CpuBreakdown:
    """Where the CPU time of ``[start, end)`` went."""

    window_ns: int
    application_ns: int
    kernel_ns: int
    idle_ns: int
    kernel_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def application_share(self) -> float:
        return self.application_ns / self.window_ns if self.window_ns else 0.0

    @property
    def kernel_share(self) -> float:
        return self.kernel_ns / self.window_ns if self.window_ns else 0.0

    @property
    def idle_share(self) -> float:
        return self.idle_ns / self.window_ns if self.window_ns else 0.0


def cpu_breakdown(trace: Trace, start: int, end: int) -> CpuBreakdown:
    """Split ``[start, end)`` into application, kernel, and idle time.

    Requires the trace to have been recorded with segments enabled.
    The per-category kernel split uses the whole-run counters (the
    trace does not keep per-window categories), so it is exact only
    when the window covers the full run.
    """
    if end <= start:
        raise ValueError("end must be after start")
    application = 0
    kernel = 0
    idle = 0
    for segment in trace.segments:
        lo = max(segment.start, start)
        hi = min(segment.end, end)
        if hi <= lo:
            continue
        if segment.who == KERNEL:
            kernel += hi - lo
        elif segment.who == IDLE:
            idle += hi - lo
        else:
            application += hi - lo
    return CpuBreakdown(
        window_ns=end - start,
        application_ns=application,
        kernel_ns=kernel,
        idle_ns=idle,
        kernel_by_category=dict(trace.kernel_time),
    )
