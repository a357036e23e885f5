"""Behavioural tests for semaphores, priority inheritance, condvars."""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.core.rm import RMScheduler
from repro.kernel.kernel import Kernel
from repro.kernel.program import (
    Acquire,
    Compute,
    CvSignal,
    CvWait,
    Program,
    Release,
    Signal,
    Wait,
)
from repro.sim.semexp import _build_scenario
from repro.sync.semaphore import SemaphoreError
from repro.timeunits import ms, us


def kernel_with(scheme="standard", scheduler=None):
    return Kernel(scheduler or EDFScheduler(ZERO_OVERHEAD), sem_scheme=scheme)


def critical(sem, duration, tail=us(10)):
    return Program([Acquire(sem), Compute(duration), Release(sem), Compute(tail)])


class TestMutualExclusion:
    @pytest.mark.parametrize("scheme", ["standard", "emeralds"])
    def test_critical_sections_never_overlap(self, scheme):
        k = kernel_with(scheme)
        k.create_semaphore("m")
        holders = []

        def enter(kern, thread):
            sem = kern.semaphores["m"]
            assert sem.holder is thread
            holders.append(thread.name)

        from repro.kernel.program import Call

        body = Program(
            [Acquire("m"), Call(enter), Compute(ms(1)), Release("m")]
        )
        k.create_thread("a", body, period=ms(10))
        k.create_thread("b", body, period=ms(10), phase=us(100))
        trace = k.run_until(ms(50))
        assert len(holders) == 10
        assert not trace.deadline_violations(k.now)

    @pytest.mark.parametrize("scheme", ["standard", "emeralds"])
    def test_blocked_acquirer_gets_lock_on_release(self, scheme):
        k = kernel_with(scheme)
        k.create_semaphore("m")
        k.create_thread("first", critical("m", ms(2)), period=ms(100), deadline=ms(90))
        k.create_thread(
            "second", critical("m", ms(1)), period=ms(100), deadline=ms(50),
            phase=us(500),
        )
        trace = k.run_until(ms(10))
        # second has higher priority but arrives while first holds m;
        # it finishes right after the release: first's 2 ms critical
        # section, then second's 1 ms one, plus second's 10 us tail.
        second = trace.jobs_of("second")[0]
        assert second.completion == ms(3) + us(10)

    def test_release_by_non_holder_raises(self):
        k = kernel_with("standard")
        k.create_semaphore("m")
        k.create_thread("bad", Program([Release("m")]), period=ms(10))
        with pytest.raises(SemaphoreError):
            k.run_until(ms(5))

    def test_counting_semaphore_admits_capacity(self):
        from repro.kernel.program import Sleep

        k = kernel_with("standard")
        k.create_semaphore("pool", capacity=2)
        # Sleeping inside the critical section makes the sections
        # overlap on the single CPU, so capacity actually matters.
        body = Program([Acquire("pool"), Sleep(ms(2)), Release("pool")])
        for i, name in enumerate("abc"):
            k.create_thread(name, body, period=ms(100), deadline=ms(50 + i))
        k.run_until(ms(10))
        sem = k.semaphores["pool"]
        assert sem.acquires == 3
        assert sem.contended_acquires == 1
        trace = k.trace
        # a and b slept concurrently; c had to wait for a's release.
        assert trace.jobs_of("a")[0].completion < ms(3)
        assert trace.jobs_of("b")[0].completion < ms(3)
        assert trace.jobs_of("c")[0].completion > ms(3)


class TestPriorityInheritance:
    def test_classic_inversion_bounded(self):
        """Low holds the lock; medium must not starve high (Section 6.1)."""
        k = Kernel(RMScheduler(ZERO_OVERHEAD), sem_scheme="standard")
        k.create_semaphore("m")
        # Low locks first.
        k.create_thread("low", critical("m", ms(4)), period=ms(100))
        # Medium would run for a long time without PI.
        k.create_thread("med", Program([Compute(ms(20))]), period=ms(60), phase=us(200))
        # High arrives and needs the lock.
        k.create_thread("high", critical("m", ms(1)), period=ms(30), phase=us(400))
        trace = k.run_until(ms(30))
        high = trace.jobs_of("high")[0]
        # With PI, high waits only for low's critical section, not med.
        assert high.completion is not None
        assert high.completion < ms(7)
        # med must not have run between high's arrival and completion.
        med_before = [
            s for s in trace.segments
            if s.who == "med" and s.start < high.completion
        ]
        assert sum(s.duration for s in med_before) <= us(400)

    MID = [Acquire("m1"), Acquire("m2"), Compute(ms(1)), Release("m2"), Release("m1")]

    def build_chain(
        self, scheme, scheduler, high_body, high_phase=us(300), mid_ops=MID, **sem_flags
    ):
        """Nested locks: mid holds m1 and waits for m2, held by low;
        noise outranks both, and high then waits for m1."""
        k = Kernel(scheduler(ZERO_OVERHEAD), sem_scheme=scheme)
        k.create_semaphore("m1", **sem_flags)
        k.create_semaphore("m2", **sem_flags)
        k.create_thread("low", critical("m2", ms(3)), period=ms(400))
        k.create_thread("mid", Program(mid_ops), period=ms(300), phase=us(100))
        k.create_thread("noise", Program([Compute(ms(50))]), period=ms(200), phase=us(200))
        k.create_thread("high", high_body, period=ms(100), phase=high_phase)
        return k

    def signal_at(self, k, event, at):
        k.create_event(event)
        k.create_timer(event, at, lambda kern: kern.events_by_name[event].signal(kern))
        k.timers[event].start()

    def assert_no_inherited_priority(self, k):
        leaks = [
            (t.name, t.effective_key, t.pi_deadline, t.pi_donor_of)
            for t in k.threads.values()
            if t.effective_key != t.base_key
            or t.pi_deadline is not None
            or t.pi_donor_of is not None
        ]
        assert leaks == []

    @pytest.mark.parametrize("scheduler", [RMScheduler, EDFScheduler], ids=["rm", "edf"])
    @pytest.mark.parametrize("scheme", ["standard", "emeralds"])
    def test_transitive_inheritance(self, scheme, scheduler):
        """high blocks on m1 held by mid, which blocks on m2 held by
        low: low must inherit high's priority through the chain, under
        either scheme.  (The hint check is off: a hinted periodic
        release meets the park-without-reschedule bug, tested below.)"""
        flags = {"use_hint_parking": False} if scheme == "emeralds" else {}
        k = self.build_chain(scheme, scheduler, critical("m1", ms(1)), **flags)
        trace = k.run_until(ms(50))
        high = trace.jobs_of("high")[0]
        # low's remaining 2.8 ms, then mid's 1 ms, then high's 1 ms and
        # its 10 us tail: noise (period 200 > 100) must not delay the
        # chain once high arrives.
        assert high.completion == us(5110)
        k.run_until(ms(399))
        self.assert_no_inherited_priority(k)

    @pytest.mark.parametrize("scheduler", [RMScheduler, EDFScheduler], ids=["rm", "edf"])
    def test_parked_donor_inherits_transitively(self, scheduler):
        """The hint check parks high on m1 (held by mid, itself waiting
        for m2): the donation must still reach low."""
        k = self.build_chain(
            "emeralds",
            scheduler,
            Program([Wait("E"), Acquire("m1"), Compute(ms(1)), Release("m1")]),
            high_phase=0,
        )
        self.signal_at(k, "E", us(300))
        trace = k.run_until(ms(50))
        assert k.semaphores["m1"].parks == 1
        assert trace.jobs_of("high")[0].completion == us(5100)
        k.run_until(ms(399))
        self.assert_no_inherited_priority(k)

    @pytest.mark.parametrize("scheduler", [RMScheduler, EDFScheduler], ids=["rm", "edf"])
    def test_walk_follows_a_parked_holder(self, scheduler):
        """mid holds m1 and is parked on m2 (held by low) by the hint
        check; high's donation through m1 must follow it to low."""
        k = self.build_chain(
            "emeralds",
            scheduler,
            Program([Wait("F"), Acquire("m1"), Compute(ms(1)), Release("m1")]),
            high_phase=0,
            mid_ops=[Acquire("m1"), Wait("E")] + self.MID[1:],
        )
        self.signal_at(k, "E", us(150))
        self.signal_at(k, "F", us(300))
        trace = k.run_until(ms(50))
        assert k.semaphores["m2"].parks == 1
        assert trace.jobs_of("high")[0].completion == us(5100)
        k.run_until(ms(399))
        self.assert_no_inherited_priority(k)

    @pytest.mark.parametrize("scheduler", [RMScheduler, EDFScheduler], ids=["rm", "edf"])
    @pytest.mark.parametrize("scheme", ["standard", "emeralds"])
    def test_killed_donor_leaves_no_inherited_priority(self, scheme, scheduler):
        """high donates to low and is killed while it waits: under the
        EMERALDS scheme on an FP queue it is low's place-holder, and the
        release must re-derive low's priority instead of swapping back.
        The kill itself ends the donation: mid, released after it,
        preempts low at once instead of waiting out low's critical
        section."""
        k = Kernel(scheduler(ZERO_OVERHEAD), sem_scheme=scheme)
        k.create_semaphore("m")
        k.create_thread(
            "low", Program([Acquire("m"), Compute(ms(3)), Release("m")]), period=ms(400)
        )
        k.create_thread(
            "high",
            Program([Compute(us(10)), Acquire("m"), Compute(ms(1)), Release("m")]),
            period=ms(100),
            phase=us(300),
        )
        k.create_thread(
            "mid", Program([Compute(ms(1))]), period=ms(200), phase=us(600)
        )
        k.run_until(us(500))
        k.crash_thread("high")
        trace = k.run_until(ms(10))
        assert trace.jobs_of("mid")[0].completion == us(1600)
        low = k.threads["low"]
        assert low.effective_key == low.base_key
        assert low.pi_deadline is None
        assert low.pi_donor_of is None

    @pytest.mark.parametrize("scheduler", [RMScheduler, EDFScheduler], ids=["rm", "edf"])
    @pytest.mark.parametrize("scheme", ["standard", "emeralds"])
    def test_killed_donor_boost_ends_down_the_chain(self, scheme, scheduler):
        """high waits for m1, held by midlock, which waits for m2, held
        by low: high's donation reaches low through midlock.  The kill
        ends it at the far end of the chain too: low keeps only
        midlock's donation, so mid, released after the kill and ranked
        above midlock, preempts low at once."""
        k = Kernel(scheduler(ZERO_OVERHEAD), sem_scheme=scheme)
        k.create_semaphore("m1")
        k.create_semaphore("m2")
        k.create_thread(
            "low", Program([Acquire("m2"), Compute(ms(5)), Release("m2")]), period=ms(400)
        )
        k.create_thread(
            "midlock",
            Program([Compute(us(10)), Acquire("m1"), Acquire("m2"), Compute(us(100)),
                     Release("m2"), Release("m1")]),
            period=ms(200),
            phase=us(100),
        )
        k.create_thread(
            "high",
            Program([Compute(us(10)), Acquire("m1"), Compute(ms(1)), Release("m1")]),
            period=ms(100),
            phase=us(300),
        )
        k.create_thread(
            "mid", Program([Compute(ms(1))]), period=ms(150), phase=us(600)
        )
        k.run_until(us(500))
        k.crash_thread("high")
        low = k.threads["low"]
        if scheduler is RMScheduler:
            assert low.effective_key == (ms(200), "midlock")
        else:
            assert low.pi_deadline == ms(200) + us(100)
        trace = k.run_until(ms(10))
        assert trace.jobs_of("mid")[0].completion == us(1600)

    def test_priority_restored_after_release(self):
        k = Kernel(RMScheduler(ZERO_OVERHEAD), sem_scheme="standard")
        k.create_semaphore("m")
        k.create_thread("low", critical("m", ms(2)), period=ms(100))
        k.create_thread("high", critical("m", ms(1)), period=ms(10), phase=us(100))
        k.run_until(ms(50))
        low = k.threads["low"]
        assert low.effective_key == low.base_key
        assert low.pi_deadline is None


@pytest.mark.parametrize("scheduler", [RMScheduler, EDFScheduler], ids=["rm", "edf"])
@pytest.mark.parametrize("scheme", ["standard", "emeralds"])
def test_release_while_waiting_for_the_lock_is_an_overrun(scheme, scheduler):
    """A release that finds its thread still waiting for a lock in its
    last job (queued on it, or parked on it at that job's release by the
    hint check) queues behind that job; it starts no second job."""
    k = Kernel(scheduler(ZERO_OVERHEAD), sem_scheme=scheme)
    k.create_semaphore("S")
    k.create_thread(
        "holder", Program([Acquire("S"), Compute(ms(30)), Release("S")]), period=ms(100)
    )
    k.create_thread(
        "parker", Program([Acquire("S"), Release("S")]), period=ms(10), phase=us(100)
    )
    k.run_until(ms(25))
    parker = k.threads["parker"]
    assert parker.blocked_on in ("sem:S", "sem-parked:S")
    assert parker.pending_releases == 2
    assert getattr(k.semaphores["S"], "parked", []).count(parker) <= 1
    trace = k.run_until(ms(40))
    assert [job.completion for job in trace.jobs_of("parker")[:4]] == [
        ms(30), ms(30), ms(30), ms(30) + us(100)
    ]
    overruns = [t for t, kind, _ in trace.events if kind == "release-overrun"]
    assert overruns == [ms(10) + us(100), ms(20) + us(100)]


class TestEmeraldsScheme:
    def build_fig8(self, scheme, **sem_flags):
        """The Figure 6/8 scenario.

        E is fired by a timer (modelling the external event of the
        paper's figure) at t = 100 us, while T1 -- which locked S as
        soon as T2 blocked -- is still inside its 200 us critical
        section.
        """
        k = kernel_with(scheme)
        k.create_semaphore("S", **sem_flags)
        k.create_event("E")
        # Priorities exactly as Figure 6: T2 highest, Tx middle, T1
        # lowest.  T1 locks S at t=0, Tx preempts it at 50 us and is
        # the thread executing when E fires at 100 us.
        k.create_thread(
            "T2",
            Program([Wait("E"), Compute(us(5)), Acquire("S"),
                     Compute(us(20)), Release("S"), Compute(us(5))]),
            period=ms(100), deadline=ms(1),
        )
        k.create_thread(
            "T1",
            Program([Acquire("S"), Compute(us(200)), Release("S"), Compute(us(5))]),
            period=ms(100), deadline=ms(20),
        )
        k.create_thread(
            "Tx",
            Program([Compute(us(300))]),
            period=ms(100), deadline=ms(5), phase=us(50),
        )
        k.create_timer("fireE", us(100), lambda kern: kern.events_by_name["E"].signal(kern))
        k.timers["fireE"].start()
        return k

    def test_park_eliminates_context_switch(self):
        std = self.build_fig8("standard")
        std.run_until(ms(2))
        new = self.build_fig8("emeralds")
        new.run_until(ms(2))
        # Everyone still completes, correctly.
        for k in (std, new):
            assert not k.trace.deadline_violations(k.now)
        assert new.trace.context_switches == std.trace.context_switches - 1
        assert new.semaphores["S"].parks == 1

    def test_parked_thread_not_made_ready_while_locked(self):
        k = self.build_fig8("emeralds")
        sem = k.semaphores["S"]
        # Run until the park happened.
        while sem.parks == 0 and k.now < ms(2):
            k.run_for(us(10))
        t2 = k.threads["T2"]
        assert t2.blocked_on == "sem-parked:S"
        assert not t2.ready

    def test_parking_does_pi(self):
        k = self.build_fig8("emeralds")
        sem = k.semaphores["S"]
        while sem.parks == 0 and k.now < ms(2):
            k.run_for(us(10))
        t1 = k.threads["T1"]
        t2 = k.threads["T2"]
        # T1 inherited T2's (earlier) deadline.
        assert t1.pi_deadline is not None
        assert t1.pi_deadline <= t2.effective_deadline

    def test_hint_parking_can_be_disabled(self):
        k = self.build_fig8("emeralds", use_hint_parking=False)
        k.run_until(ms(2))
        assert k.semaphores["S"].parks == 0
        assert not k.trace.deadline_violations(k.now)

    def test_t2_outcome_identical_across_schemes(self):
        """The optimization must not change *what* happens, only cost."""
        std = self.build_fig8("standard")
        std_trace = std.run_until(ms(2))
        new = self.build_fig8("emeralds")
        new_trace = new.run_until(ms(2))
        for name in ("T1", "T2", "Tx"):
            assert len(std_trace.jobs_of(name)) == len(new_trace.jobs_of(name))
        # With zero overheads, completion times agree exactly.
        assert (
            std_trace.jobs_of("T2")[0].completion
            == new_trace.jobs_of("T2")[0].completion
        )

    def test_registry_prevents_wasted_wakeup(self):
        """Figure 9 (case B): S is free when E fires, but a higher
        priority thread grabs it before T2 reaches acquire_sem.  The
        registry must freeze T2 until the release."""
        k = kernel_with("emeralds")
        k.create_semaphore("S")
        k.create_event("E")
        k.create_event("F")
        # T2: wakes on E, then locks S -- but T1 will get there first.
        k.create_thread(
            "T2",
            Program([Wait("E"), Compute(us(100)), Acquire("S"),
                     Compute(us(10)), Release("S")]),
            period=ms(100), deadline=ms(10),
        )
        # T1: higher priority; wakes on F, locks S, then blocks on the
        # next F while *holding* S (the problematic case of Figure 9).
        k.create_thread(
            "T1",
            Program([Wait("F"), Acquire("S"), Wait("F"),
                     Compute(us(10)), Release("S")]),
            period=ms(100), deadline=ms(1),
        )
        # Timers: E at 20 us (S free -> T2 goes on the registry); F at
        # 30 us (T1 preempts mid-compute, locks S, freezing T2); F
        # again at 500 us (T1 finishes and releases).
        def fire(event):
            return lambda kern: kern.events_by_name[event].signal(kern)

        k.create_timer("e1", us(20), fire("E"))
        k.create_timer("f1", us(30), fire("F"))
        k.create_timer("f2", us(500), fire("F"))
        for t in k.timers.values():
            t.start()
        trace = k.run_until(ms(5))
        sem = k.semaphores["S"]
        assert sem.registry_blocks >= 1
        assert not trace.deadline_violations(k.now)
        # T2 completed after the second F (it was frozen meanwhile).
        assert trace.jobs_of("T2")[0].completion > us(500)

    def test_hint_park_reschedules_to_the_boosted_holder(self):
        for scheduler in (RMScheduler, EDFScheduler):
            k = Kernel(scheduler(ZERO_OVERHEAD), sem_scheme="emeralds")
            k.create_semaphore("m")
            k.create_thread(
                "low", Program([Acquire("m"), Compute(ms(3)), Release("m")]),
                period=ms(400),
            )
            k.create_thread(
                "noise", Program([Compute(ms(50))]), period=ms(200), phase=us(200)
            )
            # high's periodic release carries the hint m (its body
            # starts with the acquire), so the release parks it on m.
            k.create_thread(
                "high", Program([Acquire("m"), Compute(ms(1)), Release("m")]),
                period=ms(100), phase=us(300),
            )
            trace = k.run_until(ms(60))
            assert k.semaphores["m"].parks == 1
            # The standard scheme's 4.1 ms; a park that asks for no
            # reschedule leaves noise running until 54.0 ms.
            assert trace.jobs_of("high")[0].completion == us(4100)

    @pytest.mark.parametrize("queue", ["dp", "fp"])
    def test_park_under_a_running_holder_charges_no_select(self, queue):
        """Figure 6's case: T1 runs inside its critical section when E
        wakes T2, whose hint parks it on S.  The boosted holder is the
        thread already running, so the park selects nothing; Figure 11's
        EMERALDS curve stays flat on the FP queue and at half the
        standard slope on the DP queue."""
        kernel, _ = _build_scenario(queue, "emeralds", 15, None)
        sem = kernel.semaphores["S"]
        while not sem.locked:
            kernel.run_for(us(10))
        t1 = kernel.threads["T1"]
        assert kernel.running is t1 and sem.holder is t1
        selects = kernel.scheduler.stats.selects
        kernel.events_by_name["E"].signal(kernel)
        kernel.run_until(kernel.now)
        assert sem.parks == 1
        assert kernel.threads["T2"].blocked_on == "sem-parked:S"
        assert kernel.running is t1
        assert kernel.scheduler.stats.selects == selects

    def test_swap_pi_used_on_fp_queue(self):
        k = Kernel(RMScheduler(ZERO_OVERHEAD), sem_scheme="emeralds")
        k.create_semaphore("S")
        k.create_event("E")
        k.create_thread(
            "T2",
            Program([Wait("E"), Acquire("S"), Compute(us(10)), Release("S")]),
            period=ms(10),
        )
        k.create_thread(
            "T1",
            Program([Acquire("S"), Compute(us(200)), Release("S")]),
            period=ms(50),
        )
        k.create_thread(
            "Tx", Program([Compute(us(50)), Signal("E"), Compute(us(50))]),
            period=ms(80),
        )
        k.run_until(ms(1))
        k.scheduler.check_invariants()
        trace = k.run_until(ms(5))
        assert not trace.deadline_violations(k.now)
        k.scheduler.check_invariants()
        t1 = k.threads["T1"]
        assert t1.pi_donor_of is None  # swap undone
        assert t1.effective_key == t1.base_key


class TestConditionVariables:
    def test_wait_signal_roundtrip(self):
        k = kernel_with("standard")
        k.create_semaphore("m")
        k.create_condvar("cv")
        k.create_thread(
            "consumer",
            Program([Acquire("m"), CvWait("cv", "m"), Compute(us(10)), Release("m")]),
            period=ms(100), deadline=ms(10),
        )
        k.create_thread(
            "producer",
            Program([Compute(ms(1)), Acquire("m"), CvSignal("cv"), Release("m")]),
            period=ms(100), deadline=ms(50),
        )
        trace = k.run_until(ms(10))
        consumer = trace.jobs_of("consumer")[0]
        assert consumer.completion is not None
        assert consumer.completion > ms(1)  # had to wait for the signal

    def test_signal_without_waiters_is_noop(self):
        k = kernel_with("standard")
        k.create_semaphore("m")
        k.create_condvar("cv")
        k.create_thread(
            "p", Program([Acquire("m"), CvSignal("cv"), Release("m")]), period=ms(10)
        )
        trace = k.run_until(ms(5))
        assert not trace.deadline_violations(k.now)

    def test_wait_without_mutex_raises(self):
        from repro.sync.condvar import CondVarError

        k = kernel_with("standard")
        k.create_semaphore("m")
        k.create_condvar("cv")
        k.create_thread("bad", Program([CvWait("cv", "m")]), period=ms(10))
        with pytest.raises(CondVarError):
            k.run_until(ms(5))

    @pytest.mark.parametrize("scheme", ["standard", "emeralds"])
    def test_wake_donation_reaches_collector_and_chain(self, scheme):
        """A signalled waiter that finds the mutex held donates to the
        holder through the shared walk and blocks on the mutex, so the
        collector sees both."""
        from repro.obs.analyzers import pi_chains
        from repro.obs.collector import ObsCollector, PiEvent

        k = kernel_with(scheme, RMScheduler(ZERO_OVERHEAD))
        collector = ObsCollector(mode="full").attach(k)
        k.create_semaphore("mx")
        k.create_condvar("cv")
        k.create_thread(
            "W",
            Program([Acquire("mx"), CvWait("cv", "mx"), Compute(us(100)), Release("mx")]),
            period=ms(100),
        )
        k.create_thread(
            "H",
            Program(
                [Compute(us(100)), Acquire("mx"), CvSignal("cv"), Compute(ms(2)), Release("mx")]
            ),
            period=ms(400),
        )
        k.run_until(ms(10))
        kind = "swap" if scheme == "emeralds" else "raise"
        # W waits for mx from the signal (100 us) to H's release (2.1 ms).
        assert collector.sems["mx"].blocks == 1
        assert collector.sems["mx"].blocked_ns == ms(2)
        assert collector.sems["mx"].max_waiters == 1
        assert collector.sems["mx"].donations == 1
        assert collector.pi_events == [
            PiEvent(us(100), "mx", "W", "H", kind, False),
            PiEvent(us(2100), "", "", "H", "restore", False),
        ]
        [chain] = pi_chains(collector)
        assert chain.links == [("mx", "H", kind)]
        assert chain.duration_ns == ms(2)

    def test_broadcast_wakes_all(self):
        from repro.kernel.program import CvBroadcast

        k = kernel_with("standard")
        k.create_semaphore("m")
        k.create_condvar("cv")
        body = Program([Acquire("m"), CvWait("cv", "m"), Release("m")])
        k.create_thread("w1", body, period=ms(100), deadline=ms(20))
        k.create_thread("w2", body, period=ms(100), deadline=ms(30))
        k.create_thread(
            "b",
            Program([Compute(ms(1)), Acquire("m"), CvBroadcast("cv"), Release("m")]),
            period=ms(100), deadline=ms(50),
        )
        trace = k.run_until(ms(10))
        assert trace.jobs_of("w1")[0].completion is not None
        assert trace.jobs_of("w2")[0].completion is not None
