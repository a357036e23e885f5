"""The semaphore overhead experiment (Section 6.4, Figure 11).

Reconstructs the paper's measurement scenario (Figure 6): a
low-priority thread T1 locks semaphore S and is inside the critical
section when an external event E wakes the high-priority thread T2,
whose next blocking call is ``acquire_sem(S)``.  The experiment
measures the kernel time attributable to the contended acquire/release
pair, as a function of the scheduler queue length (filler tasks pad
the queue; they stay blocked throughout).

Expected shapes (the paper's findings):

* DP (EDF) queue: both schemes grow linearly in the queue length
  (selection is an O(n) scan charged per context switch), but the
  standard scheme pays two context switches per pair and the EMERALDS
  scheme one, so the standard slope is twice the new slope; at queue
  length 15 the saving is ~11 us (28%).
* FP (RM) queue: the standard scheme's priority-inheritance steps are
  O(n) queue repositions, so its cost grows linearly; the EMERALDS
  scheme's place-holder swap is O(1) and the saved context switch makes
  the total *constant* (~29.4 us on the paper's hardware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel
from repro.core.rm import RMScheduler
from repro.kernel.kernel import Kernel
from repro.kernel.program import Acquire, Compute, Program, Release, Wait
from repro.timeunits import ms, seconds, us

__all__ = ["PairOverhead", "measure_pair_overhead", "figure11_series"]

#: Kernel-time categories attributed to the acquire/release pair.
_PAIR_CATEGORIES = ("sem", "pi", "sched", "context-switch", "syscall")


@dataclass
class PairOverhead:
    """Measured cost of one contended acquire/release pair."""

    queue: str
    scheme: str
    overhead_ns: int
    context_switches: int
    #: The semaphore's hint parks: each saves one context switch.
    saved_switches: int


def _build_scenario(
    queue: str,
    scheme: str,
    queue_length: int,
    model: Optional[OverheadModel],
) -> Tuple[Kernel, int]:
    """Create the Figure 6 scenario with ``queue_length`` tasks on the
    relevant queue.  Returns the kernel and the time E fires."""
    model = model if model is not None else OverheadModel()
    if queue == "dp":
        scheduler = EDFScheduler(model)
    elif queue == "fp":
        scheduler = RMScheduler(model)
    else:
        raise ValueError("queue must be 'dp' or 'fp'")
    kernel = Kernel(scheduler, sem_scheme=scheme)
    kernel.create_semaphore("S")
    kernel.create_event("E")

    fillers = queue_length - 3
    if fillers < 0:
        raise ValueError("queue_length must be at least 3 (T1, T2, Tx)")

    # T2: highest priority; wakes on E, then locks S.
    kernel.create_thread(
        "T2",
        Program(
            [
                Wait("E"),
                Compute(us(5)),
                Acquire("S"),
                Compute(us(20)),
                Release("S"),
                # Tail compute separates the release from the job-end
                # block, so the measurement window can close cleanly.
                Compute(us(50)),
            ]
        ),
        period=seconds(1),
        deadline=ms(1),
    )
    # T1: lower priority; holds S across the E firing.
    kernel.create_thread(
        "T1",
        Program(
            [
                Acquire("S"),
                Compute(us(150)),
                Release("S"),
                Compute(us(10)),
            ]
        ),
        period=seconds(2),
        deadline=ms(5),
    )
    # Tx: unrelated lowest-priority work, running when E fires.
    kernel.create_thread(
        "Tx",
        Program([Compute(us(400))]),
        period=seconds(4),
        deadline=ms(20),
    )
    # Fillers: pad the queue; released far beyond the run horizon.
    for i in range(fillers):
        kernel.create_thread(
            f"fill{i}",
            Program([Compute(us(1))]),
            period=seconds(3) + i * 1_000,
            deadline=ms(10) + i * 1_000,
            phase=seconds(100),
        )

    return kernel, 0


def measure_pair_overhead(
    queue: str,
    scheme: str,
    queue_length: int,
    model: Optional[OverheadModel] = None,
) -> PairOverhead:
    """Measure one contended acquire/release pair.

    Runs the scenario until T1 is inside its critical section (S
    locked, T2 blocked on E), snapshots the kernel-time counters, fires
    E, then runs until T2 finishes and attributes the delta to the
    pair.
    """
    kernel, _ = _build_scenario(queue, scheme, queue_length, model)
    sem = kernel.semaphores["S"]
    cap = seconds(1)
    while not sem.locked and kernel.now < cap:
        kernel.run_for(us(10))
    if not sem.locked:
        raise RuntimeError(
            "scenario broken: S never got locked "
            f"(queue={queue}, scheme={scheme}, n={queue_length})"
        )
    before: Dict[str, int] = dict(kernel.trace.kernel_time)
    switches_before = kernel.trace.context_switches
    kernel.events_by_name["E"].signal(kernel)

    # The pair is complete once T2 has released S (the second release
    # overall: T1's, then T2's).  Ending the window there keeps T2's
    # job-end block/unblock costs out of the measurement, as the
    # paper's pair timing would.
    deadline = kernel.now + seconds(1)
    while sem.releases < 2 and kernel.now < deadline:
        kernel.run_for(us(2))
    if sem.releases < 2:
        raise RuntimeError("scenario broken: T2 never released S")

    after = kernel.trace.kernel_time
    overhead = sum(
        after.get(cat, 0) - before.get(cat, 0) for cat in _PAIR_CATEGORIES
    )
    if scheme == "standard":
        # The window starts at E, but the paper attributes only the
        # costs incurred *by the semaphore calls* to the pair.  Under
        # the standard scheme T2's wake-up at E (t_u + t_s + context
        # switch C1 of Figure 6) is caused by the event, not by the
        # semaphore, so it is excluded; under the EMERALDS scheme T2
        # never wakes at E -- release_sem performs the (single) wake-up,
        # which therefore *is* pair cost.
        model_ = kernel.model
        if queue == "dp":
            wake = (
                model_.edf_unblock(queue_length)
                + model_.edf_select(queue_length)
                + model_.context_switch_ns
            )
        else:
            wake = (
                model_.rm_unblock(queue_length)
                + model_.rm_select(queue_length)
                + model_.context_switch_ns
            )
        overhead -= wake
    saved = getattr(sem, "parks", 0)
    return PairOverhead(
        queue=queue,
        scheme=scheme,
        overhead_ns=overhead,
        context_switches=kernel.trace.context_switches - switches_before,
        saved_switches=saved,
    )


def figure11_series(
    queue: str,
    lengths: Sequence[int] = tuple(range(3, 31)),
    model: Optional[OverheadModel] = None,
) -> List[Tuple[int, int, int]]:
    """Sweep queue lengths; returns ``(n, standard_ns, emeralds_ns)``
    rows -- the two curves of Figure 11 (``queue='dp'``) or the FP
    variant discussed at the end of Section 6.4 (``queue='fp'``)."""
    rows = []
    for n in lengths:
        std = measure_pair_overhead(queue, "standard", n, model)
        new = measure_pair_overhead(queue, "emeralds", n, model)
        rows.append((n, std.overhead_ns, new.overhead_ns))
    return rows
