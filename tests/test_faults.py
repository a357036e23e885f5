"""Fault injection and kernel overload protection.

Covers the extension subsystem (beyond the paper): seeded fault plans,
the injector's seven fault kinds, per-job execution budgets with their
four actions, deadline-miss handlers firing at miss time, bounded
restart with exponential back-off, CSD overload shedding, and the
determinism guarantee (same seed + same plan = byte-identical traces).
"""

import pytest

from repro.core.csd import CSDScheduler
from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.faults import Fault, FaultInjector, FaultPlan
from repro.faults.chaos import run_chaos
from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.program import Acquire, Compute, Program, Release
from repro.net import Fieldbus, Frame
from repro.timeunits import ms, us


def zero_kernel(scheduler=None):
    return Kernel(scheduler=scheduler or EDFScheduler(ZERO_OVERHEAD))


def notes_of(trace, kind):
    return [(t, d) for (t, k, d) in trace.events if k == kind]


class TestFaultPlan:
    def test_plans_sort_and_compare(self):
        a = Fault(ms(5), "crash", "w")
        b = Fault(ms(1), "wcet_overrun", "w", 100)
        plan = FaultPlan([a, b])
        assert plan.faults == (b, a)
        assert plan == FaultPlan([b, a])
        assert len(plan) == 2
        assert plan.by_kind("crash") == (a,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Fault(-1, "crash")
        with pytest.raises(ValueError):
            Fault(0, "meteor_strike")
        with pytest.raises(ValueError):
            Fault(0, "crash", magnitude=-5)
        with pytest.raises(ValueError):
            FaultPlan.generate(1, 0)
        with pytest.raises(ValueError):
            # a thread-targeted rate with no threads to hit
            FaultPlan.generate(1, ms(100), crash_rate=1.0)

    def test_generation_is_deterministic(self):
        kwargs = dict(
            threads=["a", "b"],
            vectors=[3, 7],
            wcet_overrun_rate=20.0,
            crash_rate=5.0,
            spurious_irq_rate=10.0,
            dropped_irq_rate=5.0,
            clock_jitter_rate=10.0,
            frame_drop_rate=5.0,
            frame_corrupt_rate=5.0,
        )
        p1 = FaultPlan.generate(9, ms(500), **kwargs)
        p2 = FaultPlan.generate(9, ms(500), **kwargs)
        p3 = FaultPlan.generate(10, ms(500), **kwargs)
        assert p1.signature() == p2.signature()
        assert p1.signature() != p3.signature()
        assert len(p1) > 0

    def test_kind_streams_are_independent(self):
        """Adding a second fault kind must not perturb the first one's
        arrival times (per-kind RNG streams)."""
        solo = FaultPlan.generate(3, ms(500), threads=["a"], crash_rate=10.0)
        mixed = FaultPlan.generate(
            3, ms(500), threads=["a"], crash_rate=10.0, clock_jitter_rate=50.0
        )
        assert solo.by_kind("crash") == mixed.by_kind("crash")


class TestWcetOverrun:
    def test_overrun_stretches_the_compute(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        plan = FaultPlan([Fault(ms(10), "wcet_overrun", "t", ms(3))])
        FaultInjector(k, plan).install()
        trace = k.run_until(ms(30))
        jobs = trace.jobs_of("t")
        assert jobs[0].completion == ms(1)  # before the fault: nominal
        assert jobs[1].completion == ms(14)  # 10 + (1 + 3)
        assert notes_of(trace, "fault-wcet-overrun") == [(ms(10), f"t +{ms(3)}")]

    def test_two_pending_overruns_add_up(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(20))
        # Both pending when the job-2 compute starts at 20 ms: their
        # magnitudes stack onto the same op.
        plan = FaultPlan(
            [
                Fault(ms(15), "wcet_overrun", "t", ms(2)),
                Fault(ms(18), "wcet_overrun", "t", ms(3)),
            ]
        )
        FaultInjector(k, plan).install()
        trace = k.run_until(ms(40))
        assert trace.jobs_of("t")[1].completion == ms(26)  # 20 + 1 + 2 + 3

    def test_double_install_rejected(self):
        k = zero_kernel()
        injector = FaultInjector(k, FaultPlan())
        injector.install()
        with pytest.raises(RuntimeError):
            injector.install()


class TestBudgets:
    def make(self, action):
        k = zero_kernel()
        k.create_thread("hog", Program([Compute(ms(8))]), period=ms(10))
        k.set_budget("hog", ms(3), action=action)
        if action == "restart":
            k.set_restart_policy("hog", max_restarts=5, backoff_ns=0)
        return k

    def test_validation(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        with pytest.raises(KernelError):
            k.set_budget("t", 0)
        with pytest.raises(KernelError):
            k.set_budget("t", ms(1), action="explode")
        with pytest.raises(KernelError):
            k.set_restart_policy("t", -1)

    def test_warn_keeps_running(self):
        k = self.make("warn")
        trace = k.run_until(ms(10))
        assert trace.jobs_of("hog")[0].completion == ms(8)
        overruns = notes_of(trace, "budget-overrun")
        assert overruns == [(ms(3), "hog job 1 action=warn")]  # once per job

    def test_suspend_job_fires_at_exhaustion_instant(self):
        k = self.make("suspend_job")
        trace = k.run_until(ms(25))
        aborted = notes_of(trace, "job-aborted")
        # Every job dies exactly one budget after its release.
        assert aborted == [(ms(3), "hog"), (ms(13), "hog"), (ms(23), "hog")]
        assert all(j.aborted for j in trace.jobs_of("hog"))
        assert sum(j.aborted for j in trace.jobs_of("hog")) == 3
        assert not k.threads["hog"].dead

    def test_kill_removes_the_thread(self):
        k = self.make("kill")
        trace = k.run_until(ms(25))
        assert k.threads["hog"].dead
        assert len(trace.jobs_of("hog")) == 1
        assert notes_of(trace, "kill") == [(ms(3), "hog")]

    def test_restart_applies_the_policy(self):
        k = self.make("restart")
        trace = k.run_until(ms(25))
        assert not k.threads["hog"].dead
        assert k.threads["hog"].restart_count == 3
        assert len(notes_of(trace, "restart")) == 3

    def test_budget_frees_the_cpu_for_others(self):
        """The whole point: a runaway job cannot eat another task's
        slack once its budget aborts it."""
        k = zero_kernel()
        k.create_thread("victim", Program([Compute(ms(2))]), period=ms(10))
        k.create_thread("hog", Program([Compute(ms(30))]), period=ms(20))
        k.set_budget("hog", ms(5), action="suspend_job")
        trace = k.run_until(ms(100))
        assert not [
            j for j in trace.deadline_violations(k.now) if j.thread == "victim"
        ]

    def test_budget_spans_preemptions(self):
        """The budget meters accumulated execution, not wall time: a
        preempted job's clock stops while it is off the CPU."""
        k = zero_kernel()
        # urgent preempts long repeatedly (shorter deadline); long's
        # budget still only counts its own execution.
        k.create_thread("urgent", Program([Compute(ms(1))]), period=ms(5))
        k.create_thread("long", Program([Compute(ms(6))]), period=ms(40))
        k.set_budget("long", ms(8), action="suspend_job")
        trace = k.run_until(ms(40))
        job = trace.jobs_of("long")[0]
        assert not job.aborted  # 6 ms of work fits an 8 ms budget
        assert job.completion is not None


class TestDeadlineMissHandlers:
    def test_handler_fires_at_the_miss_instant(self):
        k = zero_kernel()
        k.create_thread("slow", Program([Compute(ms(15))]), period=ms(10))
        fired = []
        k.on_deadline_miss(
            "slow", lambda kern, thread, rec: fired.append((kern.now, rec.deadline))
        )
        k.run_until(ms(12))
        assert fired == [(ms(10), ms(10))]  # at the deadline, not at completion
        assert k.threads["slow"].miss_count == 1

    def test_no_false_positive_on_time(self):
        k = zero_kernel()
        k.create_thread("fine", Program([Compute(ms(1))]), period=ms(10))
        fired = []
        k.on_deadline_miss("fine", lambda *a: fired.append(a))
        k.run_until(ms(100))
        assert fired == []
        assert k.threads["fine"].miss_count == 0

    def test_handler_can_react_on_the_timeline(self):
        """A handler that crashes the offender at miss time: the
        overload ends mid-run, not post-hoc."""
        k = zero_kernel()
        k.create_thread("victim", Program([Compute(ms(2))]), period=ms(10))
        k.create_thread("hog", Program([Compute(ms(50))]), period=ms(20))
        k.set_restart_policy("hog", max_restarts=0)

        def put_down(kern, thread, record):
            kern.crash_thread(thread.name, reason="miss handler")

        k.on_deadline_miss("hog", put_down)
        trace = k.run_until(ms(100))
        assert k.threads["hog"].dead
        # The victim only suffers until the hog's first deadline.
        late = [
            j
            for j in trace.deadline_violations(k.now)
            if j.thread == "victim" and j.release > ms(20)
        ]
        assert not late

    def test_requires_a_deadline(self):
        k = zero_kernel()
        k.create_thread("free", Program([Compute(ms(1))]), priority=1)
        with pytest.raises(KernelError):
            k.on_deadline_miss("free", lambda *a: None)


class TestCrashAndRestart:
    def test_crash_without_policy_kills(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        plan = FaultPlan([Fault(ms(5), "crash", "t")])
        FaultInjector(k, plan).install()
        trace = k.run_until(ms(50))
        assert k.threads["t"].dead
        assert len(trace.jobs_of("t")) == 1

    def test_bounded_restart_with_exponential_backoff(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(5))
        k.set_restart_policy("t", max_restarts=2, backoff_ns=ms(3))
        plan = FaultPlan(
            [
                Fault(ms(5) + us(200), "crash", "t"),
                Fault(ms(30) + us(200), "crash", "t"),
                Fault(ms(55) + us(200), "crash", "t"),
            ]
        )
        FaultInjector(k, plan).install()
        trace = k.run_until(ms(80))
        restarts = notes_of(trace, "restart")
        assert restarts == [
            (ms(5) + us(200), f"t #1 backoff={ms(3)}"),
            (ms(30) + us(200), f"t #2 backoff={ms(6)}"),  # doubled
        ]
        # The second back-off (6 ms from 30.2) swallows the release at 35.
        assert notes_of(trace, "release-skipped-backoff") == [(ms(35), "t")]
        # Third crash exhausts the bound.
        assert notes_of(trace, "restart-exhausted") == [(ms(55) + us(200), "t")]
        assert k.threads["t"].dead

    def test_crash_releases_held_semaphores(self):
        k = zero_kernel()
        k.create_semaphore("lock")
        k.create_thread(
            "holder",
            Program([Acquire("lock"), Compute(ms(10)), Release("lock")]),
            period=ms(20),
        )
        k.create_thread(
            "waiter",
            Program([Acquire("lock"), Compute(ms(1)), Release("lock")]),
            period=ms(20),
            phase=ms(1),
        )
        k.set_restart_policy("holder", max_restarts=1)
        plan = FaultPlan([Fault(ms(2), "crash", "holder")])
        FaultInjector(k, plan).install()
        trace = k.run_until(ms(20))
        # The waiter got the lock and finished despite the holder dying
        # inside its critical section.
        assert trace.jobs_of("waiter")[0].completion is not None
        assert not k.threads["holder"].held_sems

    def test_crash_of_unknown_target_is_moot(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        plan = FaultPlan([Fault(ms(1), "crash", "ghost")])
        FaultInjector(k, plan).install()
        trace = k.run_until(ms(5))
        assert notes_of(trace, "fault-crash-moot") == [(ms(1), "ghost")]


class TestIrqAndJitterFaults:
    def test_spurious_irq_is_delivered(self):
        k = zero_kernel()
        hits = []
        k.interrupts.register(7, lambda kern, vec: hits.append(kern.now))
        plan = FaultPlan([Fault(ms(3), "spurious_irq", "7")])
        FaultInjector(k, plan).install()
        k.run_until(ms(10))
        assert hits == [ms(3)]

    def test_dropped_irq_masks_a_window(self):
        k = zero_kernel()
        hits = []
        k.interrupts.register(4, lambda kern, vec: hits.append(kern.now))
        plan = FaultPlan([Fault(ms(2), "dropped_irq", "4", ms(3))])
        FaultInjector(k, plan).install()
        k.interrupts.raise_interrupt(4, at=ms(1))  # before: delivered
        k.interrupts.raise_interrupt(4, at=ms(4))  # inside window: lost
        k.interrupts.raise_interrupt(4, at=ms(6))  # after: delivered
        k.run_until(ms(10))
        assert hits == [ms(1), ms(6)]
        assert k.interrupts.dropped_masked == 1

    def test_tick_jitter_charges_kernel_time(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        plan = FaultPlan([Fault(us(500), "clock_jitter", "", us(200))])
        FaultInjector(k, plan).install()
        trace = k.run_until(ms(10))
        # The job loses the jitter window: 1 ms of work ends at 1.2 ms.
        assert trace.jobs_of("t")[0].completion == ms(1) + us(200)
        assert trace.kernel_time.get("fault", 0) == us(200)

    def test_timer_jitter_delays_the_firing(self):
        k = zero_kernel()
        fires = []
        timer = k.create_timer("tick", ms(5), lambda kern: fires.append(kern.now))
        timer.start()
        plan = FaultPlan([Fault(ms(1), "clock_jitter", "tick", us(700))])
        FaultInjector(k, plan).install()
        k.run_until(ms(10))
        assert fires == [ms(5) + us(700)]

    def test_timer_delay_validation(self):
        k = zero_kernel()
        timer = k.create_timer("t", ms(5), lambda kern: None)
        with pytest.raises(ValueError):
            timer.delay(-1)
        timer.delay(ms(1))  # unarmed: a no-op, not an error


class TestFrameFaults:
    def run_bus(self, plan):
        k = zero_kernel()
        bus = Fieldbus(1_000_000)
        injector = FaultInjector(k, plan, bus=bus).install()
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        bus.queue(0, Frame(can_id=2, size=0, sender="a"))
        return bus, bus.process(horizon=ms(1)), injector

    def test_frame_drop_loses_one_frame(self):
        bus, deliveries, _ = self.run_bus(FaultPlan([Fault(0, "frame_drop")]))
        assert [d.frame.can_id for d in deliveries] == [2]
        assert bus.frames_dropped == 1
        assert bus.frames_delivered == 1
        # The dropped frame still occupied the wire.
        assert deliveries[0].time == 2 * bus.frame_time_ns(0)

    def test_frame_corrupt_sets_the_flag(self):
        bus, deliveries, _ = self.run_bus(FaultPlan([Fault(0, "frame_corrupt")]))
        assert [d.frame.corrupted for d in deliveries] == [True, False]
        assert bus.frames_corrupted == 1

    def test_frame_fault_requires_a_bus(self):
        k = zero_kernel()
        with pytest.raises(ValueError):
            FaultInjector(k, FaultPlan([Fault(0, "frame_drop")])).install()

    def test_receiver_discards_corrupted_frames(self):
        from repro.net import Cluster

        cluster = Cluster(Fieldbus(1_000_000))
        tx = zero_kernel()
        rx = zero_kernel()
        tx_iface = cluster.add_node("tx", tx)
        rx_iface = cluster.add_node("rx", rx)
        plan = FaultPlan([Fault(0, "frame_corrupt")])
        FaultInjector(tx, plan, bus=cluster.bus).install()
        from repro.net import net_send

        tx.create_thread(
            "sender",
            Program([net_send(tx_iface, can_id=1, size=0)]),
            period=ms(5),
        )
        cluster.run_until(ms(12))
        # First frame corrupted and discarded at the receiver's CRC
        # check; later frames arrive.
        assert rx_iface.frames_crc_dropped == 1
        assert rx_iface.frames_received >= 1


class TestCsdShedding:
    def build(self, shed):
        k = zero_kernel(
            CSDScheduler(ZERO_OVERHEAD, dp_queue_count=1, shed_overload=shed)
        )
        k.create_thread(
            "crit",
            Program([Compute(ms(2))]),
            period=ms(10),
            csd_queue=0,
            criticality=2,
        )
        k.create_thread(
            "hog",
            Program([Compute(ms(15))]),
            period=ms(10),
            csd_queue=0,
            criticality=1,
        )
        k.create_thread(
            "minor",
            Program([Compute(ms(1))]),
            period=ms(10),
            csd_queue=0,
            criticality=0,
        )
        return k

    @staticmethod
    def on_time(trace, name):
        return sum(
            1
            for j in trace.jobs_of(name)
            if j.completion is not None and j.completion <= j.deadline
        )

    def test_low_criticality_releases_are_shed(self):
        k = self.build(shed=True)
        trace = k.run_until(ms(200))
        shed = notes_of(trace, "release-shed")
        shed_names = {d for (_, d) in shed}
        # The bottom-criticality task is shed while the band overruns;
        # the hog itself may also be shed once the critical task backs
        # up behind it (it is strictly less critical).
        assert "minor" in shed_names
        assert shed_names <= {"minor", "hog"}
        assert sum(k.scheduler.shed_counts.values()) == len(shed)

    def test_shedding_improves_critical_service(self):
        """Graceful degradation: with shedding, the critical task gets
        its releases serviced instead of starving behind the band's
        backlog (without shedding it accumulates pending releases and
        barely runs at all)."""
        with_shed = self.build(shed=True)
        trace_shed = with_shed.run_until(ms(200))
        without = self.build(shed=False)
        trace_bare = without.run_until(ms(200))
        assert self.on_time(trace_shed, "crit") > self.on_time(
            trace_bare, "crit"
        )

    def test_disabled_by_default(self):
        k = self.build(shed=False)
        trace = k.run_until(ms(100))
        assert not notes_of(trace, "release-shed")
        assert k.scheduler.shed_counts == {}

    @pytest.mark.parametrize("shed, calls", [(False, 0), (True, 10)])
    def test_kernel_asks_only_a_shedding_scheduler(self, shed, calls):
        """The kernel decides once, at construction, whether this
        scheduler instance can refuse a release: a CSD scheduler built
        without shedding is never asked."""
        k = zero_kernel(
            CSDScheduler(ZERO_OVERHEAD, dp_queue_count=1, shed_overload=shed)
        )
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10), csd_queue=0)
        admit = k.scheduler.admit_release
        asked = []

        def counting(task, now):
            asked.append(now)
            return admit(task, now)

        k.scheduler.admit_release = counting
        trace = k.run_until(ms(95))
        assert len(trace.jobs_of("t")) == 10
        assert len(asked) == calls


class TestDeterminismUnderFaults:
    KW = dict(wcet_overrun_rate=20.0, crash_rate=5.0, clock_jitter_rate=10.0)

    def test_same_seed_same_trace(self):
        a = run_chaos(7, ms(300), **self.KW)
        b = run_chaos(7, ms(300), **self.KW)
        assert a.trace_signature == b.trace_signature
        assert a == b

    def test_different_seed_differs(self):
        a = run_chaos(7, ms(300), **self.KW)
        b = run_chaos(8, ms(300), **self.KW)
        assert a.trace_signature != b.trace_signature

    def test_explicit_plan_replays_identically(self):
        plan = FaultPlan.generate(
            5, ms(300), threads=["ctrl", "sense", "log", "bulk"], **self.KW
        )
        a = run_chaos(5, ms(300), plan=plan)
        b = run_chaos(5, ms(300), plan=plan)
        assert a.trace_signature == b.trace_signature

    def test_defenses_prevent_thread_loss(self):
        """The chaos headline: under a crash-heavy storm the bare
        kernel loses threads forever; the defended one never does."""
        kw = dict(wcet_overrun_rate=50.0, crash_rate=5.0)
        defended = run_chaos(1, ms(500), defenses=True, **kw)
        bare = run_chaos(1, ms(500), defenses=False, **kw)
        assert defended.threads_dead == ()
        assert bare.threads_dead != ()
        assert min(defended.service_ratio.values()) > min(
            bare.service_ratio.values()
        )


class TestDominoContainment:
    def test_budget_contains_the_edf_domino(self):
        """The scenario of test_overload.TestEdfDomino, with the hog on
        a budget: the light task no longer misses."""
        k = zero_kernel()
        k.create_thread("light", Program([Compute(ms(1))]), period=ms(10))
        k.create_thread("heavy", Program([Compute(ms(12))]), period=ms(10))
        k.set_budget("heavy", ms(8), action="suspend_job")
        trace = k.run_until(ms(200))
        light_misses = [
            j for j in trace.deadline_violations(k.now) if j.thread == "light"
        ]
        assert not light_misses  # contained
        # The hog pays: its jobs abort at the budget.
        assert sum(j.aborted for j in trace.jobs_of("heavy")) > 0
