"""Tests for suspend / resume / kill thread management."""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.program import Acquire, Compute, Program, Release, Wait
from repro.timeunits import ms, us


def zero_kernel():
    return Kernel(EDFScheduler(ZERO_OVERHEAD))


class TestSuspendResume:
    def test_suspended_thread_stops_running(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        k.run_until(ms(10))
        k.suspend_thread("t")
        before = len(k.trace.jobs_of("t"))
        k.run_until(ms(30))
        # Releases queue up but no new job executes to completion.
        completed = [j for j in k.trace.jobs_of("t") if j.completion is not None]
        assert len(completed) <= before

    def test_resume_continues_execution(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        k.run_until(ms(6))
        k.suspend_thread("t")
        k.run_until(ms(20))
        k.resume_thread("t")
        trace = k.run_until(ms(40))
        completed = [j for j in trace.jobs_of("t") if j.completion is not None]
        # Execution resumed: more completions after the resume.
        assert completed[-1].completion > ms(20)

    def test_wakeup_during_suspension_is_deferred_not_lost(self):
        k = zero_kernel()
        k.create_event("E")
        k.create_thread(
            "waiter", Program([Wait("E"), Compute(ms(1))]), period=ms(100)
        )
        k.create_thread(
            "signaller",
            Program([Compute(ms(2)),]),
            period=ms(100), deadline=ms(50),
        )
        k.run_until(ms(1))  # waiter is blocked on E
        k.suspend_thread("waiter")
        k.events_by_name["E"].signal(k)  # arrives while suspended
        k.run_until(ms(5))
        waiter = k.threads["waiter"]
        assert waiter.blocked_on == "suspended"
        k.resume_thread("waiter")
        trace = k.run_until(ms(20))
        job = trace.jobs_of("waiter")[0]
        assert job.completion is not None  # the signal was not lost

    def test_suspend_blocked_thread_keeps_block_reason_until_wake(self):
        k = zero_kernel()
        k.create_event("E")
        k.create_thread("w", Program([Wait("E")]), period=ms(100))
        k.run_until(ms(1))
        k.suspend_thread("w")
        w = k.threads["w"]
        assert w.suspended
        assert w.blocked_on == "event:E"  # still waiting on the event

    def test_double_suspend_rejected(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        k.suspend_thread("t")
        with pytest.raises(KernelError):
            k.suspend_thread("t")

    def test_resume_unsuspended_rejected(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        with pytest.raises(KernelError):
            k.resume_thread("t")


class TestKill:
    def test_killed_thread_never_runs_again(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        k.run_until(ms(7))
        live_events = len(k.events)
        k.kill_thread("t")
        # The pending release is cancelled, not merely skipped by the
        # dead check when it fires.
        assert len(k.events) == live_events - 1
        jobs_before = len(k.trace.jobs_of("t"))
        k.run_until(ms(50))
        assert len(k.trace.jobs_of("t")) == jobs_before
        assert k.threads["t"].dead

    def test_killing_lock_holder_refused(self):
        k = zero_kernel()
        k.create_semaphore("S")
        k.create_thread(
            "t", Program([Acquire("S"), Compute(ms(5)), Release("S")]),
            period=ms(100),
        )
        k.run_until(ms(1))  # inside the critical section
        with pytest.raises(KernelError):
            k.kill_thread("t")

    def test_killed_waiter_removed_from_semaphore(self):
        # Standard scheme: under EMERALDS the waiter would be *parked*
        # by the hint check instead (covered below).
        k = Kernel(EDFScheduler(ZERO_OVERHEAD), sem_scheme="standard")
        k.create_semaphore("S")
        k.create_thread(
            "holder", Program([Acquire("S"), Compute(ms(5)), Release("S")]),
            period=ms(100), deadline=ms(90),
        )
        k.create_thread(
            "waiter", Program([Acquire("S"), Release("S")]),
            period=ms(100), deadline=ms(50), phase=us(100),
        )
        k.run_until(ms(1))  # waiter is queued on S
        assert k.threads["waiter"] in k.semaphores["S"].waiters
        k.kill_thread("waiter")
        assert k.threads["waiter"] not in k.semaphores["S"].waiters
        trace = k.run_until(ms(20))
        # The holder finishes normally.
        assert trace.jobs_of("holder")[0].completion is not None

    def test_killed_parked_thread_removed(self):
        """EMERALDS scheme: the hint check parks the waiter; killing it
        must purge the parked list too."""
        k = zero_kernel()
        k.create_semaphore("S")
        k.create_thread(
            "holder", Program([Acquire("S"), Compute(ms(5)), Release("S")]),
            period=ms(100), deadline=ms(90),
        )
        k.create_thread(
            "waiter", Program([Acquire("S"), Release("S")]),
            period=ms(100), deadline=ms(50), phase=us(100),
        )
        k.run_until(ms(1))
        sem = k.semaphores["S"]
        assert k.threads["waiter"] in sem.parked
        k.kill_thread("waiter")
        assert k.threads["waiter"] not in sem.parked
        trace = k.run_until(ms(20))
        assert trace.jobs_of("holder")[0].completion is not None

    def test_kill_running_thread_mid_compute(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(10))]), period=ms(100))
        k.create_thread("other", Program([Compute(ms(1))]), period=ms(100),
                        deadline=ms(95))
        k.run_until(ms(2))
        k.kill_thread("t")
        trace = k.run_until(ms(50))
        # The other thread proceeds untouched; t's job never completes.
        assert trace.jobs_of("other")[0].completion is not None
        assert all(j.completion is None for j in trace.jobs_of("t"))

    def test_double_kill_rejected(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        k.kill_thread("t")
        with pytest.raises(KernelError):
            k.kill_thread("t")
