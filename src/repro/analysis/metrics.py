"""Trace metrics: miss ratios and recovery time.

Post-processing helpers that turn a :class:`~repro.sim.trace.Trace`
into the quantities real-time evaluations report: deadline-miss
ratios and post-fault recovery time.  Per-task response-time
summaries have one home,
:func:`repro.obs.analyzers.response_percentiles` (nearest-rank
percentiles over the trace's job records); the CPU split of a window
has one too, :meth:`Trace.cpu_share <repro.sim.trace.Trace.cpu_share>`.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.trace import Trace

__all__ = [
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
