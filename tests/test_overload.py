"""Overload behaviour: what happens past the breakdown point.

The paper's evaluation stops at the breakdown utilization; a kernel a
downstream user adopts must also behave sanely *beyond* it.  These
tests document the overload semantics of each policy:

* EDF exhibits the classic domino effect -- a late job's old deadline
  outranks everything, so overload spreads to innocent tasks;
* fixed-priority scheduling isolates higher-priority tasks from
  lower-priority overload completely;
* CSD inherits isolation across bands: an overloaded FP band cannot
  disturb the DP bands;
* transient overload drains: pending releases are queued, not lost,
  and the system returns to meeting deadlines once the burst passes.
"""

import pytest

from repro.core.csd import CSDScheduler
from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.core.rm import RMScheduler
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program
from repro.timeunits import ms


class TestEdfDomino:
    def test_overload_spreads_under_edf(self):
        """A single overloaded task drags an easily-schedulable one
        into missing deadlines (late deadlines dominate selection)."""
        k = Kernel(EDFScheduler(ZERO_OVERHEAD))
        k.create_thread("light", Program([Compute(ms(1))]), period=ms(10))
        k.create_thread("heavy", Program([Compute(ms(12))]), period=ms(10))
        trace = k.run_until(ms(200))
        light_misses = [
            j for j in trace.deadline_violations(k.now) if j.thread == "light"
        ]
        assert light_misses  # the domino effect

    def test_same_workload_isolated_under_rm(self):
        k = Kernel(RMScheduler(ZERO_OVERHEAD))
        k.create_thread("light", Program([Compute(ms(1))]), period=ms(10))
        k.create_thread("heavy", Program([Compute(ms(25))]), period=ms(20))
        trace = k.run_until(ms(200))
        light_misses = [
            j for j in trace.deadline_violations(k.now) if j.thread == "light"
        ]
        assert not light_misses  # strict priority protects it
        heavy_misses = [
            j for j in trace.deadline_violations(k.now) if j.thread == "heavy"
        ]
        assert heavy_misses


class TestCsdBandIsolation:
    def test_fp_overload_cannot_touch_dp_bands(self):
        """CSD's strict inter-band priority: an overloaded FP band
        never disturbs the DP tasks above it."""
        k = Kernel(CSDScheduler(ZERO_OVERHEAD, dp_queue_count=1))
        k.create_thread(
            "dp_task", Program([Compute(ms(2))]), period=ms(10), csd_queue=0
        )
        k.create_thread(
            "fp_hog", Program([Compute(ms(50))]), period=ms(20), csd_queue=1
        )
        trace = k.run_until(ms(300))
        dp_misses = [
            j for j in trace.deadline_violations(k.now) if j.thread == "dp_task"
        ]
        assert not dp_misses
        assert trace.deadline_violations(k.now)  # the hog itself misses

    def test_dp_overload_starves_fp_but_not_dp1(self):
        """Conversely, DP overload starves the FP band -- the cost of
        the strict hierarchy."""
        k = Kernel(CSDScheduler(ZERO_OVERHEAD, dp_queue_count=1))
        k.create_thread(
            "dp_hog", Program([Compute(ms(15))]), period=ms(10), csd_queue=0
        )
        k.create_thread(
            "fp_task", Program([Compute(ms(1))]), period=ms(20), csd_queue=1
        )
        trace = k.run_until(ms(200))
        fp_misses = [
            j for j in trace.deadline_violations(k.now) if j.thread == "fp_task"
        ]
        assert fp_misses


class TestTransientOverload:
    def test_pending_releases_drain_after_burst(self):
        """An aperiodic burst queues activations (none lost); after the
        burst the backlog drains and the thread is idle again."""
        k = Kernel(EDFScheduler(ZERO_OVERHEAD))
        k.create_thread("worker", Program([Compute(ms(2))]), priority=1)
        for i in range(5):
            k.activate("worker", at=ms(i) if i else None)
        trace = k.run_until(ms(100))
        assert len(trace.jobs_of("worker")) == 5
        assert all(j.completion is not None for j in trace.jobs_of("worker"))
        assert k.threads["worker"].blocked_on == "activation"
        assert k.threads["worker"].pending_releases == 0

    def test_periodic_task_recovers_after_transient(self):
        """A one-off long job (modeling a transient fault) delays its
        successors but the task re-synchronizes with its period."""
        k = Kernel(EDFScheduler(ZERO_OVERHEAD))
        k.create_thread("steady", Program([Compute(ms(2))]), period=ms(10))
        # A one-shot aperiodic 25 ms hog with a very early deadline
        # hijacks the CPU once.
        k.create_thread("transient", Program([Compute(ms(25))]),
                        priority=0, deadline=ms(1))
        k.activate("transient", at=ms(5))
        trace = k.run_until(ms(200))
        steady_jobs = trace.jobs_of("steady")
        # Early jobs miss during the transient...
        assert any(j.missed for j in steady_jobs[:4])
        # ...but everything from 60 ms on completes in time again.
        late_jobs = [j for j in steady_jobs if j.release >= ms(60)]
        assert late_jobs
        assert all(not j.missed for j in late_jobs)
        assert all(j.completion is not None for j in late_jobs)

    def test_zero_miss_steady_state_after_fault_burst(self):
        """Recovery semantics under the fault subsystem: a transient
        burst of injected WCET overruns and crashes causes misses
        while it lasts, but once it ends the defended kernel returns
        to a zero-miss steady state -- and stays there."""
        from repro.analysis.metrics import recovery_time_ns
        from repro.faults import FaultInjector, FaultPlan
        from repro.faults.chaos import build_chaos_kernel

        burst_end = ms(200)
        plan = FaultPlan.generate(
            11,
            burst_end,  # every fault lands inside the burst window
            threads=["ctrl", "sense", "log", "bulk"],
            wcet_overrun_rate=60.0,
            crash_rate=10.0,
        )
        assert len(plan) > 0
        kernel = build_chaos_kernel(defenses=True)
        FaultInjector(kernel, plan).install()
        trace = kernel.run_until(ms(600))
        # The burst hurt (otherwise this test shows nothing)...
        assert trace.deadline_violations(kernel.now)
        # ...nothing died permanently...
        assert not [t for t in kernel.threads.values() if t.dead]
        # ...and past the burst plus the longest back-off the system is
        # clean: no violation instant after the recovery margin.
        margin = burst_end + ms(100)
        for job in trace.deadline_violations(kernel.now):
            instant = (
                job.completion if job.completion is not None else job.deadline
            )
            assert instant <= margin, f"violation at {instant} after recovery"
        assert recovery_time_ns(trace, kernel.now, burst_end) <= ms(100)
        # Every post-margin release completed on time.
        settled = [j for j in trace.jobs if j.release >= margin]
        assert settled
        assert all(
            j.completion is not None and j.completion <= j.deadline
            for j in settled
        )
