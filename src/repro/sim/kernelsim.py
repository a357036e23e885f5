"""Bridge from analytic workloads to live kernel simulations.

Builds a kernel whose threads execute ``Compute(c_i)`` once per period
under a chosen scheduling policy, so analytic results (schedulability,
breakdown utilization) can be cross-validated against what the kernel
actually does -- and so Figure 2's trace can be regenerated from a
real schedule rather than re-drawn.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.core.csd import CSDScheduler
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel
from repro.core.rm import RMHeapScheduler, RMScheduler
from repro.core.scheduler import Scheduler
from repro.core.schedulability import band_sizes_from_splits
from repro.core.task import Workload
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program
from repro.sim.breakdown import dp_bands
from repro.sim.trace import Trace

__all__ = ["make_scheduler", "build_kernel", "simulate_workload", "hyperperiod"]


def make_scheduler(policy: str, model: Optional[OverheadModel] = None) -> Scheduler:
    """Instantiate a scheduler by policy name (see
    :data:`repro.sim.breakdown.POLICIES`)."""
    model = model if model is not None else OverheadModel()
    if policy == "edf":
        return EDFScheduler(model)
    if policy in ("rm", "dm"):
        return RMScheduler(model)
    if policy == "rm-heap":
        return RMHeapScheduler(model)
    if policy.startswith("csd-"):
        return CSDScheduler(model, dp_queue_count=dp_bands(policy))
    raise ValueError(f"unknown policy {policy!r}")


def build_kernel(
    workload: Workload,
    policy: str = "edf",
    model: Optional[OverheadModel] = None,
    splits: Optional[Sequence[int]] = None,
    stop_on_deadline_miss: bool = False,
    record: str = "full",
    obs: Optional[str] = None,
) -> Kernel:
    """Create a kernel running ``workload`` under ``policy``.

    For CSD policies, ``splits`` gives the queue allocation (cumulative
    split points in RM order, as in
    :func:`repro.core.schedulability.csd_schedulable`); everything past
    the last split lands on the FP queue.  ``record`` selects the trace
    recording mode (see :mod:`repro.sim.trace`).  ``obs`` attaches an
    observability collector in the named mode (``"counters"`` or
    ``"full"``; see :mod:`repro.obs.collector`) -- reach it afterwards
    as ``kernel.obs``.
    """
    scheduler = make_scheduler(policy, model)
    kernel = Kernel(
        scheduler,
        stop_on_deadline_miss=stop_on_deadline_miss,
        record=record,
    )
    if obs is not None:
        from repro.obs.collector import ObsCollector

        ObsCollector(mode=obs).attach(kernel)
    queue_of = {}
    if policy.startswith("csd-"):
        if splits is None:
            raise ValueError("CSD simulation needs an explicit allocation")
        sizes = band_sizes_from_splits(len(workload), splits)
        index = 0
        for band, size in enumerate(sizes):
            for _ in range(size):
                queue_of[workload[index].name] = band
                index += 1
    for task in workload:
        kernel.create_thread(
            task.name,
            Program([Compute(task.wcet)]),
            period=task.period,
            deadline=task.deadline,
            phase=task.phase,
            csd_queue=queue_of.get(task.name),
            fp_policy="dm" if policy == "dm" else "rm",
        )
    return kernel


def hyperperiod(workload: Workload, cap: int = 10_000_000_000) -> int:
    """LCM of the task periods, capped (ns)."""
    return min(math.lcm(*(task.period for task in workload)), cap)


def simulate_workload(
    workload: Workload,
    policy: str = "edf",
    duration: Optional[int] = None,
    model: Optional[OverheadModel] = None,
    splits: Optional[Sequence[int]] = None,
    stop_on_deadline_miss: bool = False,
    record: str = "full",
    obs: Optional[str] = None,
) -> Tuple[Kernel, Trace]:
    """Run ``workload`` and return the kernel plus its trace.

    With synchronous release and implicit deadlines, simulating one
    hyperperiod from the critical instant is decisive for feasibility,
    so that is the default duration (capped at 10 s of virtual time).
    """
    kernel = build_kernel(
        workload,
        policy,
        model,
        splits,
        stop_on_deadline_miss=stop_on_deadline_miss,
        record=record,
        obs=obs,
    )
    horizon = duration if duration is not None else hyperperiod(workload)
    trace = kernel.run_until(horizon)
    return kernel, trace
