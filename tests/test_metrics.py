"""Tests for trace metrics (response stats, miss ratio, CPU breakdown)."""

import pytest

from repro.analysis.metrics import miss_ratio
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program
from repro.obs.analyzers import response_percentiles
from repro.sim.trace import IDLE, KERNEL, Trace
from repro.timeunits import ms


def run_simple(model=ZERO_OVERHEAD, wcet=ms(2), period=ms(10), horizon=ms(100)):
    k = Kernel(EDFScheduler(model))
    k.create_thread("t", Program([Compute(wcet)]), period=period)
    trace = k.run_until(horizon)
    return k, trace


class TestResponseStats:
    def test_uncontended_task(self):
        k, trace = run_simple()
        jobs = trace.jobs_of("t")
        assert len(jobs) == 10
        assert all(j.completion is not None for j in jobs)
        stats = response_percentiles(trace)["t"]
        assert stats["count"] == 10
        assert stats["p50"] == ms(2)
        assert stats["max"] == ms(2)
        assert stats["mean"] == ms(2)
        assert stats["p99"] == ms(2)

    def test_no_jobs(self):
        assert response_percentiles(Trace()) == {}

    def test_contended_task_varies(self):
        k = Kernel(EDFScheduler(ZERO_OVERHEAD))
        k.create_thread("hi", Program([Compute(ms(3))]), period=ms(10),
                        deadline=ms(5))
        k.create_thread("lo", Program([Compute(ms(2))]), period=ms(20))
        trace = k.run_until(ms(100))
        stats = response_percentiles(trace)["lo"]
        assert stats["max"] >= stats["p50"]
        assert stats["max"] == ms(5)  # waits behind hi's 3 ms


class TestMissRatio:
    def test_zero_for_feasible(self):
        k, trace = run_simple()
        assert miss_ratio(trace, k.now) == 0.0

    def test_one_for_always_late(self):
        k, trace = run_simple(wcet=ms(15), period=ms(10), horizon=ms(100))
        assert miss_ratio(trace, k.now) > 0.5

    def test_per_thread_filter(self):
        # RM's strict priorities isolate "good" from the overloaded
        # "bad" (under EDF, bad's accumulated lateness would eventually
        # poison good's deadlines too -- the overload domino effect).
        from repro.core.rm import RMScheduler

        k = Kernel(RMScheduler(ZERO_OVERHEAD))
        k.create_thread("good", Program([Compute(ms(1))]), period=ms(10))
        k.create_thread("bad", Program([Compute(ms(25))]), period=ms(20))
        trace = k.run_until(ms(100))
        assert miss_ratio(trace, k.now, "good") == 0.0
        assert miss_ratio(trace, k.now, "bad") > 0.0

    def test_empty_trace(self):
        assert miss_ratio(Trace(), 0) == 0.0


def cpu_split(trace, end):
    """Nanoseconds of ``[0, end)`` spent in thread ``t``, the kernel and idle."""
    return {
        who: round(trace.cpu_share(who, 0, end) * end)
        for who in ("t", KERNEL, IDLE)
    }


class TestCpuBreakdown:
    def test_shares_sum_to_one_zero_model(self):
        k, trace = run_simple()
        ns = cpu_split(trace, k.now)
        assert ns["t"] == ms(20)
        assert ns[KERNEL] == 0
        assert ns[IDLE] == ms(80)
        shares = [trace.cpu_share(who, 0, k.now) for who in ns]
        assert sum(shares) == pytest.approx(1.0)

    def test_kernel_time_appears_with_model(self):
        k, trace = run_simple(model=OverheadModel())
        ns = cpu_split(trace, k.now)
        assert ns[KERNEL] > 0
        assert ns[KERNEL] == trace.kernel_time_total
        assert trace.kernel_time["sched"] > 0
        assert ns["t"] + ns[KERNEL] + ns[IDLE] == k.now
