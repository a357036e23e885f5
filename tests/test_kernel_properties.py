"""Property-based tests: kernel invariants under random applications.

Hypothesis generates small random applications (periodic threads with
random compute/lock/event structure) and checks the invariants the
paper's correctness arguments rest on:

* mutual exclusion always holds, under either semaphore scheme;
* the EMERALDS optimizations never change *what* happens -- with a
  zero-cost model both schemes produce identical job completion times
  (Section 6.2.3's argument that only execution chunks are swapped);
* priority inheritance is always undone (no priority leaks);
* the FP queue's structural invariants survive arbitrary PI traffic;
* job accounting is exact: every open job record belongs to a thread
  inside a job, one record per such thread;
* kernel time is conserved: the segments tile the run and every
  derived count agrees with its one record.
"""

from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csd import CSDScheduler
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.rm import RMScheduler
from repro.kernel.kernel import Kernel
from repro.kernel.program import Acquire, Compute, Program, Release, Signal, Wait
from repro.obs.collector import ObsCollector
from repro.sim.trace import IDLE, KERNEL
from repro.timeunits import ms, us


# ----------------------------------------------------------------------
# random application generator
# ----------------------------------------------------------------------

@st.composite
def applications(draw):
    """A small random periodic application description."""
    n_threads = draw(st.integers(2, 5))
    n_sems = draw(st.integers(1, 2))
    threads = []
    for i in range(n_threads):
        period = draw(st.sampled_from([5, 10, 20, 40]))
        ops = []
        sections = draw(st.integers(1, 3))
        for _ in range(sections):
            ops.append(Compute(us(draw(st.integers(10, 400)))))
            if draw(st.booleans()):
                sem = f"s{draw(st.integers(0, n_sems - 1))}"
                ops.append(Acquire(sem))
                ops.append(Compute(us(draw(st.integers(10, 300)))))
                ops.append(Release(sem))
        threads.append((f"t{i}", ms(period), ops))
    return n_sems, threads


def build(app, scheme, scheduler_cls, model, record="full"):
    """The application on a kernel.  Under CSD the 5 and 10 ms threads
    go on the first DP queue and the rest on the FP queue; the other
    policies ignore the assignment."""
    n_sems, threads = app
    kernel = Kernel(scheduler_cls(model), sem_scheme=scheme, record=record)
    for s in range(n_sems):
        kernel.create_semaphore(f"s{s}")
    for name, period, ops in threads:
        kernel.create_thread(
            name,
            Program(list(ops)),
            period=period,
            csd_queue=0 if period <= ms(10) else None,
        )
    return kernel


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(applications(), st.sampled_from(["standard", "emeralds"]))
def test_mutual_exclusion_always_holds(app, scheme):
    kernel = build(app, scheme, EDFScheduler, OverheadModel())
    holders_ok = []

    # Check at every scheduling decision that each binary semaphore has
    # at most one holder and that holders think they hold it.
    original_dispatch = kernel._dispatch

    def checked_dispatch():
        original_dispatch()
        for sem in kernel.semaphores.values():
            if sem.capacity == 1:
                assert sem.available in (0, 1)
                if sem.holder is not None:
                    assert sem.available == 0
                    assert sem.name in sem.holder.held_sems
        holders_ok.append(True)

    kernel._dispatch = checked_dispatch
    kernel.run_until(ms(100))
    assert holders_ok  # the check actually ran


@settings(max_examples=40, deadline=None)
@given(applications())
def test_schemes_agree_under_zero_cost(app):
    """With every primitive free, the EMERALDS scheme must produce the
    same schedule outcomes as the standard scheme: the optimization
    only removes overhead, never changes semantics."""
    completions = {}
    for scheme in ("standard", "emeralds"):
        kernel = build(app, scheme, EDFScheduler, ZERO_OVERHEAD)
        trace = kernel.run_until(ms(100))
        completions[scheme] = [
            (j.thread, j.release, j.completion) for j in trace.jobs
        ]
    assert completions["standard"] == completions["emeralds"]


@settings(max_examples=40, deadline=None)
@given(applications(), st.sampled_from(["standard", "emeralds"]))
def test_priority_inheritance_fully_undone(app, scheme):
    """After the run (at a quiescent point) no thread retains an
    inherited priority."""
    kernel = build(app, scheme, RMScheduler, OverheadModel())
    kernel.run_until(ms(100))
    # Drain: run on until every semaphore is free.
    guard = 0
    while any(s.locked for s in kernel.semaphores.values()) and guard < 50:
        kernel.run_for(ms(10))
        guard += 1
    for thread in kernel.threads.values():
        if not any(s.locked for s in kernel.semaphores.values()):
            assert thread.effective_key == thread.base_key
            assert thread.pi_deadline is None
            assert thread.pi_donor_of is None


@settings(max_examples=40, deadline=None)
@given(applications(), st.sampled_from(["standard", "emeralds"]))
def test_fp_queue_invariants_survive(app, scheme):
    kernel = build(app, scheme, RMScheduler, OverheadModel())
    for _ in range(20):
        kernel.run_for(ms(5))
        kernel.scheduler.check_invariants()


@settings(max_examples=40, deadline=None)
@given(applications(), st.sampled_from(["standard", "emeralds"]))
def test_job_accounting_conserved(app, scheme):
    """A thread between jobs (``period``) has closed its last record; a
    thread in any other wait, or runnable, is inside exactly one job.
    A release that finds its thread inside a job only queues."""
    kernel = build(app, scheme, EDFScheduler, OverheadModel())
    trace = kernel.run_until(ms(100))
    open_records = Counter(
        j.thread for j in trace.jobs if j.completion is None and not j.aborted
    )
    inside_a_job = Counter(
        t.name
        for t in kernel.threads.values()
        if t.wait_kind not in ("period", "activation")
    )
    assert open_records == inside_a_job


@settings(max_examples=30, deadline=None)
@given(applications(), st.sampled_from(["standard", "emeralds"]))
def test_overheads_only_delay_never_reorder_releases(app, scheme):
    """Releases are driven by the virtual clock: overheads may delay
    completions but release times are exact nominal multiples."""
    kernel = build(app, scheme, EDFScheduler, OverheadModel())
    trace = kernel.run_until(ms(100))
    periods = {name: period for name, period, _ in app[1]}
    phase_jobs = {}
    for j in trace.jobs:
        expected = phase_jobs.get(j.thread, 0)
        assert j.release % periods[j.thread] == 0
        phase_jobs[j.thread] = expected + 1


@settings(max_examples=25, deadline=None)
@given(applications())
def test_emeralds_never_costs_extra_switches(app):
    """The EMERALDS scheme may save context switches but must never add
    any (with identical zero-cost timing the schedules coincide, so the
    switch count cannot increase)."""
    switches = {}
    for scheme in ("standard", "emeralds"):
        kernel = build(app, scheme, EDFScheduler, ZERO_OVERHEAD)
        trace = kernel.run_until(ms(100))
        switches[scheme] = trace.context_switches
    assert switches["emeralds"] <= switches["standard"]


#: The policies the conservation property runs under (CSD-2: one DP
#: queue plus the FP queue).
POLICIES = {
    "edf": EDFScheduler,
    "rm": RMScheduler,
    "csd": partial(CSDScheduler, dp_queue_count=1),
}


@settings(max_examples=40, deadline=None)
@given(
    applications(),
    st.sampled_from(["standard", "emeralds"]),
    st.sampled_from(sorted(POLICIES)),
)
def test_kernel_time_is_conserved(app, scheme, policy):
    """Every count the kernel keeps has one record, and each view
    derived from it agrees: the full-mode segments tile ``[0, now)``,
    the kernel and idle segments sum to the kernel-time total and the
    idle time, the collector's switch count is the trace's, and a
    jobs-only run of the same application counts the same."""
    kernel = build(app, scheme, POLICIES[policy], OverheadModel())
    collector = ObsCollector().attach(kernel)
    trace = kernel.run_until(ms(100))

    covered = kernel_ns = idle_ns = 0
    for seg in trace.segments:
        assert seg.start == covered < seg.end
        covered = seg.end
        if seg.who == KERNEL:
            kernel_ns += seg.duration
        elif seg.who == IDLE:
            idle_ns += seg.duration
    assert covered == kernel.now
    assert kernel_ns == trace.kernel_time_total
    assert idle_ns == trace.idle_time
    switches = collector.as_registry().counter("sched_context_switches_total")
    assert switches.value == trace.context_switches

    lean = build(app, scheme, POLICIES[policy], OverheadModel(), record="jobs-only")
    lean_trace = lean.run_until(ms(100))
    assert lean.now == kernel.now
    assert lean_trace.kernel_time == trace.kernel_time
    assert lean_trace.idle_time == trace.idle_time
    assert lean_trace.context_switches == trace.context_switches
