"""Edge cases of the kernel op interpreter.

Paths not covered by the behaviour suites: preempted timed state
reads, mailbox-recv as a hint-carrying blocking call, send
re-execution order, sleep-then-acquire parking, and op bookkeeping
across period boundaries.
"""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.kernel.kernel import Kernel
from repro.kernel.program import (
    Acquire,
    Call,
    Compute,
    Program,
    Recv,
    Release,
    Send,
    Sleep,
    StateRead,
    StateWrite,
)
from repro.timeunits import ms, us


def zero_kernel(**kw):
    return Kernel(EDFScheduler(ZERO_OVERHEAD), **kw)


class TestTimedStateRead:
    def test_preempted_read_completes(self):
        """A timed read outlasting a preemption window still finishes
        and yields a coherent value."""
        k = zero_kernel()
        k.create_channel("c", slots=8)
        k.create_thread(
            "writer", Program([StateWrite("c", value="fresh")]),
            period=ms(2), deadline=ms(1),
        )
        k.create_thread(
            "reader",
            Program([StateRead("c", duration=ms(5)), Compute(us(1))]),
            period=ms(50), deadline=ms(50),
        )
        trace = k.run_until(ms(40))
        reader = k.threads["reader"]
        assert reader.last_read == "fresh"
        assert not trace.deadline_violations(k.now)
        # The read spanned multiple writer preemptions.
        assert k.channels["c"].writes > 5

    def test_zero_duration_read_is_instant(self):
        k = zero_kernel()
        k.create_channel("c", slots=2)
        k.create_thread(
            "w", Program([StateWrite("c", value=7), StateRead("c", duration=0),
                          Call(lambda kern, t: None)]),
            period=ms(10), deadline=ms(5),
        )
        trace = k.run_until(ms(5))
        assert k.threads["w"].last_read == 7
        assert trace.jobs[0].completion == 0  # zero-cost model, no compute


class TestRecvHint:
    def test_recv_preceding_acquire_parks(self):
        """Mailbox receive is a blocking call, so the parser hints it
        and the EMERALDS scheme can park on the wake-up path."""
        k = Kernel(EDFScheduler(ZERO_OVERHEAD), sem_scheme="emeralds")
        k.create_semaphore("S")
        k.create_mailbox("m")
        # T2: recv (blocks), then lock S.
        k.create_thread(
            "T2",
            Program([Recv("m"), Acquire("S"), Compute(us(10)), Release("S")]),
            period=ms(100), deadline=ms(1),
        )
        # T1: locks S for a long stretch; sends to m mid-hold.
        k.create_thread(
            "T1",
            Program(
                [Acquire("S"), Compute(us(100)),
                 Send("m", size=4, payload="go"), Compute(us(200)),
                 Release("S")]
            ),
            period=ms(100), deadline=ms(10),
        )
        k.run_until(ms(1))
        sem = k.semaphores["S"]
        assert sem.parks == 1  # T2 parked instead of waking at the send
        trace = k.run_until(ms(10))
        assert not trace.deadline_violations(k.now)
        assert k.threads["T2"].last_received == "go"

    def test_sleep_preceding_acquire_parks(self):
        k = Kernel(EDFScheduler(ZERO_OVERHEAD), sem_scheme="emeralds")
        k.create_semaphore("S")
        k.create_thread(
            "sleeper",
            Program([Sleep(us(100)), Acquire("S"), Compute(us(10)), Release("S")]),
            period=ms(100), deadline=ms(1),
        )
        k.create_thread(
            "holder",
            Program([Acquire("S"), Compute(us(500)), Release("S")]),
            period=ms(100), deadline=ms(10),
        )
        k.run_until(ms(2))
        assert k.semaphores["S"].parks == 1
        trace = k.run_until(ms(10))
        assert not trace.deadline_violations(k.now)


class TestSendReexecution:
    def test_two_blocked_senders_unblock_in_priority_order(self):
        k = zero_kernel()
        k.create_mailbox("m", capacity=1)
        order = []
        k.create_thread(
            "filler",
            Program([Send("m", size=4, payload="x")]),
            period=ms(100), deadline=ms(1),
        )
        for name, deadline in (("lo", ms(60)), ("hi", ms(30))):
            k.create_thread(
                name,
                Program(
                    [Send("m", size=4, payload=name),
                     Call(lambda kern, t: order.append(t.name))]
                ),
                period=ms(100), deadline=deadline, phase=us(10),
            )
        k.create_thread(
            "drain",
            Program([Compute(ms(1))] + [Recv("m") for _ in range(3)]),
            period=ms(100), deadline=ms(90),
        )
        trace = k.run_until(ms(50))
        # Higher-priority (earlier-deadline) blocked sender goes first.
        assert order == ["hi", "lo"]
        assert not trace.deadline_violations(k.now)

    def test_send_to_waiting_receiver_skips_the_queue(self):
        k = zero_kernel()
        k.create_mailbox("m", capacity=1)
        k.create_thread(
            "rx", Program([Recv("m"), Compute(us(5))]),
            period=ms(100), deadline=ms(1),
        )
        k.create_thread(
            "tx", Program([Compute(us(50)), Send("m", size=4, payload=1)]),
            period=ms(100), deadline=ms(10),
        )
        k.run_until(ms(1))
        assert len(k.mailboxes["m"]) == 0  # direct hand-off, never queued
        assert k.threads["rx"].last_received == 1


class TestPeriodBoundaryBookkeeping:
    def test_op_state_reset_between_jobs(self):
        """remaining/op_started must not leak across jobs."""
        k = zero_kernel()
        k.create_thread(
            "t", Program([Compute(ms(1)), Compute(ms(2))]), period=ms(10)
        )
        trace = k.run_until(ms(35))
        completions = [j.response_time for j in trace.jobs_of("t")]
        assert completions == [ms(3), ms(3), ms(3), ms(3)]

    def test_overrun_job_finishes_before_next_starts(self):
        k = zero_kernel()
        k.create_thread("t", Program([Compute(ms(13))]), period=ms(10))
        trace = k.run_until(ms(40))
        jobs = trace.jobs_of("t")
        for a, b in zip(jobs, jobs[1:]):
            if a.completion is not None and b.completion is not None:
                assert a.completion <= b.completion

    def test_syscall_count_accumulates(self):
        model = OverheadModel()
        k = Kernel(EDFScheduler(model))
        k.create_event("E")
        k.create_thread(
            "t", Program([Call(lambda kern, th: None)]), period=ms(10)
        )
        k.run_until(ms(35))
        assert k.syscall_count == 4
        assert k.trace.kernel_time["syscall"] == 4 * model.syscall_ns
