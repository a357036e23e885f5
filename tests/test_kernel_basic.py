"""Behavioural tests for the kernel: dispatch, periodic jobs, preemption."""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.rm import RMScheduler
from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.program import Call, Compute, Program, Signal, Sleep, Wait
from repro.timeunits import ms, us


def zero_kernel(scheduler=None, **kw):
    return Kernel(scheduler or EDFScheduler(ZERO_OVERHEAD), **kw)


class TestPeriodicExecution:
    def test_jobs_released_every_period(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        trace = k.run_until(ms(50))
        assert len(trace.jobs) == 5
        assert all(j.completion is not None for j in trace.jobs)

    def test_release_times_nominal(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10), phase=ms(3))
        trace = k.run_until(ms(35))
        assert [j.release for j in trace.jobs] == [ms(3), ms(13), ms(23), ms(33)]

    def test_response_time_without_contention(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(2))]), period=ms(10))
        trace = k.run_until(ms(10))
        assert trace.jobs[0].response_time == ms(2)

    def test_cpu_share_matches_utilization(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(2))]), period=ms(10))
        trace = k.run_until(ms(100))
        assert trace.cpu_share("t", 0, ms(100)) == pytest.approx(0.2)

    def test_idle_time_accounted(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(2))]), period=ms(10))
        trace = k.run_until(ms(100))
        assert trace.idle_time == ms(80)

    def test_two_threads_share_cpu(self):
        k = zero_kernel()
        k.create_thread("a", Program([Compute(ms(1))]), period=ms(5))
        k.create_thread("b", Program([Compute(ms(2))]), period=ms(10))
        trace = k.run_until(ms(100))
        assert trace.cpu_share("a", 0, ms(100)) == pytest.approx(0.2)
        assert trace.cpu_share("b", 0, ms(100)) == pytest.approx(0.2)
        assert not trace.deadline_violations(k.now)


class TestPreemption:
    def test_edf_preempts_for_earlier_deadline(self):
        k = zero_kernel()
        k.create_thread("long", Program([Compute(ms(8))]), period=ms(20))
        k.create_thread("short", Program([Compute(ms(1))]), period=ms(5), phase=ms(2))
        trace = k.run_until(ms(20))
        # short released at 2ms must run immediately (deadline 7 < 20).
        seg = [s for s in trace.segments if s.who == "short"][0]
        assert seg.start == ms(2)
        assert not trace.deadline_violations(k.now)

    def test_rm_priority_order(self):
        k = Kernel(RMScheduler(ZERO_OVERHEAD))
        k.create_thread("low", Program([Compute(ms(4))]), period=ms(50))
        k.create_thread("high", Program([Compute(ms(1))]), period=ms(10), phase=ms(1))
        trace = k.run_until(ms(10))
        seg = [s for s in trace.segments if s.who == "high"][0]
        assert seg.start == ms(1)


class TestOverheadCharging:
    def test_kernel_time_charged_with_model(self):
        k = Kernel(EDFScheduler(OverheadModel()))
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        trace = k.run_until(ms(50))
        assert trace.kernel_time["sched"] > 0
        assert trace.kernel_time["context-switch"] > 0
        assert trace.context_switches >= 10  # in and out per job

    def test_zero_model_charges_nothing(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        trace = k.run_until(ms(50))
        assert trace.kernel_time_total == 0

    def test_completion_time_includes_overheads(self):
        k = Kernel(EDFScheduler(OverheadModel()))
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        trace = k.run_until(ms(10))
        assert trace.jobs[0].response_time > ms(1)


class TestDeadlineHandling:
    def test_overloaded_thread_misses(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(12))]), period=ms(10))
        trace = k.run_until(ms(40))
        assert trace.deadline_violations(k.now)

    def test_overrun_queues_pending_release(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(15))]), period=ms(10))
        trace = k.run_until(ms(31))
        # Releases at 0, 10, 20, 30; jobs run back to back.
        assert any(kind == "release-overrun" for _, kind, _ in trace.events)
        assert len(trace.jobs) >= 2

    def test_stop_on_deadline_miss(self):
        k = zero_kernel(stop_on_deadline_miss=True)
        k.create_thread("t", Program([Compute(ms(12))]), period=ms(10))
        k.run_until(ms(100))
        assert k.now <= ms(15)

    def test_feasible_set_never_stops_early(self):
        k = zero_kernel(stop_on_deadline_miss=True)
        k.create_thread("t", Program([Compute(ms(1))]), period=ms(10))
        k.run_until(ms(100))
        assert k.now == ms(100)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
    def test_job_ending_at_its_deadline_instant_does_not_stop_the_run(self):
        """The job's last op ends at 5 ms, its deadline, where the next
        release and the ``dl:`` check are due too.  The completion step
        in ``_step_timed`` runs only when no event is due at that
        instant, so the check still fires first and stops the run."""
        k = zero_kernel(stop_on_deadline_miss=True)
        k.create_thread("t", Program([Compute(ms(5))]), period=ms(5))
        trace = k.run_until(ms(20))
        assert not trace.deadline_violations(k.now)
        assert k.now == ms(20)


class TestAperiodicThreads:
    def test_needs_priority(self):
        k = zero_kernel()
        with pytest.raises(ValueError):
            k.create_thread("t", Program([Compute(1)]))

    def test_activation_runs_once(self):
        k = zero_kernel()
        k.create_thread("ap", Program([Compute(ms(1))]), priority=5)
        k.run_until(ms(1))
        k.activate("ap")
        trace = k.run_until(ms(10))
        assert len(trace.jobs_of("ap")) == 1

    def test_activation_at_time(self):
        k = zero_kernel()
        k.create_thread("ap", Program([Compute(ms(1))]), priority=5)
        k.activate("ap", at=ms(5))
        trace = k.run_until(ms(10))
        assert trace.jobs_of("ap")[0].release == ms(5)

    def test_queued_activations(self):
        k = zero_kernel()
        k.create_thread("ap", Program([Compute(ms(2))]), priority=5)
        k.activate("ap", at=ms(1))
        k.activate("ap", at=ms(1))
        trace = k.run_until(ms(20))
        assert len(trace.jobs_of("ap")) == 2

    def test_activating_periodic_rejected(self):
        k = zero_kernel()
        k.create_thread("p", Program([Compute(1)]), period=ms(10))
        with pytest.raises(KernelError):
            k.activate("p")


class TestEventsAndSleep:
    def test_signal_wakes_waiter(self):
        k = zero_kernel()
        k.create_event("E")
        k.create_thread("waiter", Program([Wait("E"), Compute(ms(1))]), period=ms(100))
        k.create_thread(
            "signaller",
            Program([Compute(ms(3)), Signal("E")]),
            period=ms(100),
            deadline=ms(90),
        )
        trace = k.run_until(ms(20))
        waiter_job = trace.jobs_of("waiter")[0]
        assert waiter_job.completion == ms(4)

    def test_latched_signal_consumed(self):
        k = zero_kernel()
        k.create_event("E")
        k.create_thread(
            "signaller", Program([Signal("E")]), period=ms(100), deadline=ms(1)
        )
        k.create_thread(
            "waiter",
            Program([Compute(ms(2)), Wait("E"), Compute(ms(1))]),
            period=ms(100),
            phase=0,
        )
        trace = k.run_until(ms(20))
        # The wait finds the latch set and does not block.
        assert trace.jobs_of("waiter")[0].completion == ms(3)

    def test_sleep_blocks_for_duration(self):
        k = zero_kernel()
        k.create_thread(
            "s", Program([Compute(ms(1)), Sleep(ms(5)), Compute(ms(1))]), period=ms(100)
        )
        trace = k.run_until(ms(20))
        assert trace.jobs_of("s")[0].completion == ms(7)

    def test_call_op_runs_function(self):
        seen = []
        k = zero_kernel()
        k.create_thread(
            "c",
            Program([Call(lambda kernel, thread: seen.append(kernel.now))]),
            period=ms(10),
        )
        k.run_until(ms(5))
        assert seen == [0]


class TestRunLoop:
    def test_run_until_past_rejected(self):
        k = zero_kernel()
        k.run_until(ms(5))
        with pytest.raises(ValueError):
            k.run_until(ms(1))

    def test_run_for(self):
        k = zero_kernel()
        k.run_for(ms(7))
        assert k.now == ms(7)

    def test_empty_kernel_idles(self):
        k = zero_kernel()
        trace = k.run_until(ms(10))
        assert trace.idle_time == ms(10)

    def test_job_completes_in_the_step_that_ends_it(self):
        """A job whose last op ends before the horizon, with no event
        due by then, completes at that instant; one that ends at the
        horizon completes in the next run, as the loop's next round
        would have done."""
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(2))]), period=ms(10))
        trace = k.run_until(ms(3))
        assert trace.jobs[0].completion == ms(2)
        trace = k.run_until(ms(12))
        assert trace.jobs[1].completion is None
        assert k.threads["t"].job is trace.jobs[1]
        k.run_until(ms(13))
        assert trace.jobs[1].completion == ms(12)
        assert k.threads["t"].job is None

    def test_duplicate_names_rejected(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(1)]), period=ms(10))
        with pytest.raises(KernelError):
            k.create_thread("t", Program([Compute(1)]), period=ms(10))
        k.create_semaphore("s")
        with pytest.raises(KernelError):
            k.create_semaphore("s")
        k.create_event("e")
        with pytest.raises(KernelError):
            k.create_event("e")

    def test_unknown_objects_rejected(self):
        k = zero_kernel()
        k.create_thread("t", Program([Wait("nope")]), period=ms(10))
        with pytest.raises(KernelError):
            k.run_until(ms(5))
