"""Torture tests: large mixed applications and op-level fuzzing.

These runs exercise every subsystem simultaneously for long virtual
horizons, then audit global invariants: no stuck locks at quiescence,
conserved scheduler populations, clean queue structures, and no
unexplained thread states.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csd import CSDScheduler
from repro.core.overhead import OverheadModel
from repro.kernel.devices import PeriodicDevice
from repro.kernel.kernel import Kernel
from repro.kernel.program import (
    Acquire,
    Compute,
    CvSignal,
    CvWait,
    Program,
    Recv,
    Release,
    Send,
    Signal,
    Sleep,
    StateRead,
    StateWrite,
    Wait,
)
from repro.timeunits import ms, seconds, us


def build_torture_kernel(seed=0, threads=24):
    """A large application touching every service."""
    rng = random.Random(seed)
    kernel = Kernel(
        CSDScheduler(OverheadModel(), dp_queue_count=2),
        sem_scheme="emeralds",
        record="jobs-only",
    )
    for s in range(3):
        kernel.create_semaphore(f"sem{s}")
    for e in range(2):
        kernel.create_event(f"ev{e}")
    kernel.create_mailbox("mbox", capacity=16)
    kernel.create_channel("chan", slots=6)
    kernel.create_condvar("cv")
    kernel.interrupts.register_event_handler(3, "irq3")
    PeriodicDevice(kernel, "dev", vector=3, period=ms(15), jitter=us(200), seed=seed)

    periods = [5, 8, 10, 20, 25, 40, 50, 100]
    writer_assigned = False
    for i in range(threads):
        period = ms(rng.choice(periods))
        ops = [Compute(us(rng.randint(20, 200)))]
        kind = rng.randrange(6)
        if kind == 0:
            sem = f"sem{rng.randrange(3)}"
            ops += [Acquire(sem), Compute(us(rng.randint(20, 150))), Release(sem)]
        elif kind == 1:
            ops += [Signal(f"ev{rng.randrange(2)}")]
        elif kind == 2 and not writer_assigned:
            ops += [StateWrite("chan", value=i)]
            writer_assigned = True
        elif kind == 3:
            ops += [StateRead("chan", duration=us(rng.randint(0, 100)))]
        elif kind == 4:
            ops += [Sleep(us(rng.randint(50, 500))), Compute(us(30))]
        else:
            sem = f"sem{rng.randrange(3)}"
            ops += [Compute(us(40)), Acquire(sem), Compute(us(60)), Release(sem)]
        kernel.create_thread(
            f"t{i}",
            Program(ops),
            period=period,
            csd_queue=rng.randrange(3),
        )
    # A producer/consumer pair on the mailbox, balanced rates.
    kernel.create_thread(
        "producer",
        Program([Compute(us(50)), Send("mbox", size=8, payload="p")]),
        period=ms(10),
        csd_queue=1,
    )
    kernel.create_thread(
        "consumer",
        Program([Recv("mbox"), Compute(us(50))]),
        period=ms(10),
        csd_queue=2,
    )
    # A condvar pair.
    kernel.create_thread(
        "cv_waiter",
        Program([Acquire("sem0"), CvWait("cv", "sem0"), Release("sem0")]),
        period=ms(50),
        csd_queue=2,
    )
    kernel.create_thread(
        "cv_signaller",
        Program([Compute(us(100)), Acquire("sem0"), CvSignal("cv"), Release("sem0")]),
        period=ms(25),
        csd_queue=2,
    )
    return kernel


#: Every kind a thread's wait record can hold (DESIGN "Thread wait state").
WAIT_KINDS = {
    "sem", "sem-parked", "sem-registry", "event", "mbox-recv", "mbox-send", "cv",
    "sleep", "period", "activation", "suspended", "dead",
}


def assert_lifecycle_consistent(kernel):
    """The wait record is the lifecycle: a known kind or ``None``, a
    live thread is on the ready queue exactly when it waits for nothing,
    and the running thread waits for nothing."""
    for thread in kernel.threads.values():
        assert thread.wait_kind is None or thread.wait_kind in WAIT_KINDS
        if not thread.dead:
            assert thread.ready == (thread.wait_kind is None), thread
    assert kernel.running is None or kernel.running.wait_kind is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_torture_run_stays_consistent(seed):
    kernel = build_torture_kernel(seed=seed)
    population = len(kernel.scheduler.tasks())
    for until in range(ms(5), seconds(2) + 1, ms(5)):
        kernel.run_until(until)
        assert_lifecycle_consistent(kernel)

    # Scheduler population conserved.
    assert len(kernel.scheduler.tasks()) == population
    kernel.scheduler.check_invariants()

    # Run on to a quiescent point: all semaphores free eventually.
    guard = 0
    while any(s.locked for s in kernel.semaphores.values()) and guard < 100:
        kernel.run_for(ms(5))
        guard += 1
    for sem in kernel.semaphores.values():
        assert not sem.locked
        assert not sem.waiters

    # No thread stranded in an impossible state.
    assert_lifecycle_consistent(kernel)
    for thread in kernel.threads.values():
        assert thread.effective_key == thread.base_key or thread.held_sems

    # Lots of work actually happened.
    assert len(kernel.trace.jobs) > 1000
    assert kernel.trace.context_switches > 1000


def test_torture_deterministic():
    a = build_torture_kernel(seed=5)
    b = build_torture_kernel(seed=5)
    a.run_until(seconds(1))
    b.run_until(seconds(1))
    assert a.trace.context_switches == b.trace.context_switches
    assert a.trace.kernel_time_total == b.trace.kernel_time_total
    assert len(a.trace.jobs) == len(b.trace.jobs)


def test_torture_emeralds_vs_standard_semantics():
    """Scheme equivalence holds even on the big mixed application
    (zero-cost model so timings coincide)."""
    from repro.core.overhead import ZERO_OVERHEAD

    def run(scheme):
        kernel = build_torture_kernel(seed=7)
        # Rebuild with the chosen scheme and a zero-cost model.
        k = Kernel(
            CSDScheduler(ZERO_OVERHEAD, dp_queue_count=2),
            sem_scheme=scheme,
            record="jobs-only",
        )
        # Mirror the construction deterministically.
        src = build_torture_kernel(seed=7)
        for name, sem in src.semaphores.items():
            k.create_semaphore(name)
        for name in src.events_by_name:
            if not name.startswith("irq"):
                k.create_event(name)
        for name, mbox in src.mailboxes.items():
            k.create_mailbox(name, mbox.capacity, mbox.max_message_size)
        for name, chan in src.channels.items():
            k.create_channel(name, chan.slots)
        for name in src.condvars:
            k.create_condvar(name)
        for name, thread in src.threads.items():
            k.create_thread(
                name,
                thread.program,
                period=thread.spec.period if thread.spec else None,
                csd_queue=thread.csd_queue,
            )
        trace = k.run_until(seconds(1))
        return [(j.thread, j.release, j.completion) for j in trace.jobs]

    assert run("standard") == run("emeralds")
