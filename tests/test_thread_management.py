"""Tests for suspend / resume / kill thread management."""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.core.rm import RMScheduler
from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.program import (
    Acquire,
    Compute,
    CvSignal,
    CvWait,
    Program,
    Recv,
    Release,
    Send,
    Sleep,
    Wait,
)
from repro.timeunits import ms, us


def zero_kernel():
    return Kernel(EDFScheduler(ZERO_OVERHEAD))


def _waiting_victim(case):
    """A kernel in which the thread ``victim``, holding no lock, is in
    the wait ``case`` names at 1 ms.  Where it waits for a lock (or is
    moved onto one from a condvar), it donates to the holder."""
    scheme = "standard" if case == "sem-queue" else "emeralds"
    k = Kernel(RMScheduler(ZERO_OVERHEAD), sem_scheme=scheme)
    k.create_semaphore("S")
    k.create_event("E")
    k.create_mailbox("MB", capacity=1)
    k.create_condvar("cv")
    if case in ("sem-queue", "hint-park"):
        # Queued on S, or parked on it by the hint of its release.
        k.create_thread(
            "holder", Program([Acquire("S"), Compute(ms(5)), Release("S")]),
            period=ms(100),
        )
        victim = [Acquire("S"), Release("S")]
        k.create_thread("victim", Program(victim), period=ms(50), phase=us(100))
        return k
    if case == "registry-freeze":
        # Figure 9: E wakes victim with S free (the registry); holder
        # then locks S, freezing victim, and holds it across a Wait.
        k.create_event("F")
        victim = [Wait("E"), Compute(us(100)), Acquire("S"), Release("S")]
        k.create_thread("victim", Program(victim), period=ms(100))
        k.create_thread(
            "holder",
            Program([Wait("F"), Acquire("S"), Wait("F"), Compute(us(10)), Release("S")]),
            period=ms(50),
        )
        for event, at in (("E", us(20)), ("F", us(30)), ("F", ms(5))):
            timer = k.create_timer(
                f"{event}@{at}", at, lambda kern, e=event: kern.events_by_name[e].signal(kern)
            )
            timer.start()
        return k
    if case.startswith("cv"):
        # The signal comes at 2 ms, or at once from a thread that then
        # holds the mutex, onto which it moves victim.
        moved = case == "cv-moved-to-mutex"
        victim = [Acquire("S"), CvWait("cv", "S"), Release("S")]
        k.create_thread("victim", Program(victim), period=ms(50))
        signaller = [Compute(us(100) if moved else ms(2)), Acquire("S"), CvSignal("cv"),
                     Compute(ms(2)), Release("S")]
        k.create_thread("signaller", Program(signaller), period=ms(100))
        return k
    victim = {
        "event": [Wait("E")],
        "mbox-recv": [Recv("MB")],
        "mbox-send-full": [Send("MB"), Send("MB")],
        "sleep": [Sleep(ms(5)), Acquire("S"), Release("S")],
    }[case]
    k.create_thread("victim", Program(victim), period=ms(50))
    k.create_thread("other", Program([Compute(ms(2))]), period=ms(100))
    return k


def _wait_queues(k):
    """Every list or map of waiting threads the kernel's objects keep."""
    for sem in k.semaphores.values():
        yield from (sem.waiters, getattr(sem, "parked", ()), getattr(sem, "registry", ()))
    for event in k.events_by_name.values():
        yield event.waiters
    for mbox in k.mailboxes.values():
        yield from (mbox.receivers, mbox.senders)
    for cv in k.condvars.values():
        yield cv.waiters


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

    def test_releases_while_suspended_between_jobs_are_deferred(self):
        """A thread suspended between jobs takes the job of its next
        release into the suspension; the releases after it queue behind
        that job and open no record until it completes."""
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        k.run_until(ms(2))
        k.suspend_thread("t")
        k.run_until(ms(21))
        overruns = [t for t, kind, _ in k.trace.events if kind == "release-overrun"]
        assert overruns == [ms(10), ms(15), ms(20)]
        assert k.threads["t"].pending_releases == 3
        k.resume_thread("t")
        trace = k.run_until(ms(40))
        completion = {job.release: job.completion for job in trace.jobs_of("t")}
        assert [completion[ms(release)] for release in (5, 10, 15, 20)] == [
            ms(22), ms(23), ms(24), ms(25)
        ]
        assert all(job.completion is not None for job in trace.jobs_of("t"))

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

    @pytest.mark.parametrize(
        "case, label",
        [
            pytest.param(case, label, id=case)
            for case, label in (
                ("sem-queue", "sem:S"),
                ("hint-park", "sem-parked:S"),
                ("registry-freeze", "sem-registry:S"),
                ("event", "event:E"),
                ("mbox-recv", "mbox-recv:MB"),
                ("mbox-send-full", "mbox-send:MB"),
                ("cv", "cv:cv"),
                ("cv-moved-to-mutex", "sem:S"),
                ("sleep", "sleep"),
            )
        ],
    )
    def test_killed_waiter_leaves_its_wait(self, case, label):
        """A lock-free thread killed in any kind of wait leaves every
        kernel list, ends every donation it made, and strands nobody."""
        k = _waiting_victim(case)
        k.run_until(ms(1))
        victim = k.threads["victim"]
        assert victim.blocked_on == label
        live_events = len(k.events)
        k.kill_thread("victim")
        # The kill cancels the pending release and, for a sleeper, its wake.
        assert len(k.events) == live_events - (2 if case == "sleep" else 1)
        assert victim.blocked_on == "dead"
        assert not any(victim in queue for queue in _wait_queues(k))
        for thread in k.threads.values():
            donors = [
                donor
                for sem in thread.held_sems
                for donor in k.semaphores[sem].donor_threads()
            ]
            assert not any(donor.dead for donor in donors)
            if not donors:
                assert (thread.effective_key, thread.pi_deadline, thread.pi_donor_of) == (
                    thread.base_key, None, None
                )
        trace = k.run_until(ms(20))
        for name in k.threads:
            if name != "victim":
                assert trace.jobs_of(name)[0].completion is not None

    def test_killed_sleeper_is_not_parked_at_its_wake(self):
        """A thread killed in a Sleep whose hint names a semaphore that
        is locked at the wake instant neither parks on it nor boosts its
        holder: the kill cancelled the wake."""
        k = Kernel(RMScheduler(ZERO_OVERHEAD), sem_scheme="emeralds")
        k.create_semaphore("S")
        k.create_thread(
            "holder", Program([Acquire("S"), Compute(ms(5)), Release("S")]),
            period=ms(100),
        )
        k.create_thread(
            "victim", Program([Sleep(ms(1)), Acquire("S"), Release("S")]), period=ms(50)
        )
        k.run_until(us(500))
        k.kill_thread("victim")
        k.run_until(us(1500))
        holder = k.threads["holder"]
        assert holder.effective_key == holder.base_key
        assert k.semaphores["S"].parked == []

    def test_restart_cancels_a_pending_wake(self):
        """A thread restarted in a Sleep waits for its next release; the
        wake of its aborted job does not run the rest of that job."""
        k = zero_kernel()
        k.create_thread(
            "victim", Program([Sleep(ms(1)), Compute(us(100))]), period=ms(10)
        )
        k.set_restart_policy("victim", max_restarts=1)
        k.run_until(us(500))
        assert len(k.events) == 2  # the wake and the next release
        k.crash_thread("victim")
        assert len(k.events) == 1
        k.run_until(us(1050))
        victim = k.threads["victim"]
        assert k.running is not victim
        assert victim.blocked_on == "period"

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
