"""Workload schedulability tests that account for run-time overheads.

Section 5 splits total scheduling overhead into *run-time* overhead
(the scheduler code's execution time, Table 1) and *schedulability*
overhead (the theoretical utilization the policy gives up, Section 5.2).
The breakdown-utilization experiments of Section 5.7 need feasibility
tests that include both; the paper defers the details to reference
[36].  This module implements such tests:

* **EDF** -- exact: with implicit deadlines, utilization test
  ``U' <= 1`` on overhead-inflated execution times; with constrained
  deadlines, processor-demand analysis.
* **RM / fixed priority** -- exact response-time analysis on inflated
  execution times.
* **CSD-x** -- hierarchical band test.  Given the allocation of tasks
  to queues (a prefix split of the RM-ordered workload), each EDF band
  is tested by processor-demand analysis with ceiling interference from
  all higher bands, and the FP band by response-time analysis with
  interference from every DP task.  Band 1 has no interference, so it
  reduces to the exact EDF test; with a single all-task DP band the
  whole test reduces to EDF, confirming the paper's observation that
  CSD's schedulability overhead is zero in the worst case (CSD-2) and
  grows toward RM's as the number of bands increases.

Run-time overhead inflation follows Section 5.1: each task pays
``t = blocking_factor * (t_b + t_s_block + t_u + t_s_unblock)`` per
period, with the component costs drawn from the
:class:`~repro.core.overhead.OverheadModel` according to the queue the
task lives on (the four cases of Section 5.4 / Table 3 for CSD).

Demand-based tests cap the number of inspected testing points
(:data:`MAX_TEST_POINTS`); a workload whose synchronous busy period
needs more points is declared infeasible.  This only triggers with
utilization extremely close to the breakdown point and is uniformly
(slightly) pessimistic across all policies, so figure *shapes* are
unaffected.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.task import TaskSpec, Workload

__all__ = [
    "BLOCKING_FACTOR",
    "MAX_TEST_POINTS",
    "edf_overhead_per_period",
    "rm_overhead_per_period",
    "heap_overhead_per_period",
    "csd_overhead_per_period",
    "inflate",
    "edf_schedulable",
    "rm_schedulable",
    "rm_response_times",
    "dm_schedulable",
    "dm_response_times",
    "csd_schedulable",
    "band_sizes_from_splits",
]

#: Section 5.1: half the tasks make one blocking call per period on top
#: of the mandatory block/unblock at the period boundary, so on average
#: each task pays 1.5x the basic per-period scheduler cost.
BLOCKING_FACTOR = 1.5

#: Cap on demand-analysis testing points per band (see module docstring).
MAX_TEST_POINTS = 4096

#: Cap on busy-period fixed-point iterations.
_MAX_BUSY_ITERATIONS = 256


def _ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative integers."""
    return -(-a // b)


# ----------------------------------------------------------------------
# Per-period run-time overheads (Section 5.1, Section 5.4)
# ----------------------------------------------------------------------

def edf_overhead_per_period(
    model: OverheadModel, n: int, blocking_factor: float = BLOCKING_FACTOR
) -> int:
    """Per-period scheduler cost of a task under plain EDF with n tasks."""
    t_s = model.edf_select(n)
    return OverheadModel.per_period(
        model.edf_block(n), model.edf_unblock(n), t_s, blocking_factor
    )


def rm_overhead_per_period(
    model: OverheadModel, n: int, blocking_factor: float = BLOCKING_FACTOR
) -> int:
    """Per-period scheduler cost of a task under plain RM with n tasks."""
    t_s = model.rm_select(n)
    return OverheadModel.per_period(
        model.rm_block(n), model.rm_unblock(n), t_s, blocking_factor
    )


def heap_overhead_per_period(
    model: OverheadModel, n: int, blocking_factor: float = BLOCKING_FACTOR
) -> int:
    """Per-period scheduler cost under the heap-based RM variant."""
    t_s = model.heap_select(n)
    return OverheadModel.per_period(
        model.heap_block(n), model.heap_unblock(n), t_s, blocking_factor
    )


def csd_overhead_per_period(
    model: OverheadModel,
    band_sizes: Sequence[int],
    band_index: int,
    blocking_factor: float = BLOCKING_FACTOR,
) -> int:
    """Per-period scheduler cost of a task in CSD band ``band_index``.

    ``band_sizes`` lists every queue's size, DP queues first, the FP
    queue last.  The worst-case selection costs follow the four cases
    of Section 5.4 (Table 3 for CSD-3):

    * a DP task blocking may leave the selector to parse any queue, so
      the worst case is the longest DP queue's EDF scan;
    * a DP_i task unblocking guarantees a ready task in queue i, so the
      selector parses at worst the longest queue among DP_1..DP_i;
    * an FP task blocking implies no DP task is ready (they would have
      preempted), so selection is the O(1) ``highestp`` dereference;
    * an FP task unblocking may find ready tasks in any DP queue.

    Every selection also pays the flat ``x * 0.55 us`` queue-list parse.
    """
    if not band_sizes:
        raise ValueError("band_sizes must be non-empty")
    if not 0 <= band_index < len(band_sizes):
        raise ValueError("band_index out of range")
    x = len(band_sizes)
    dp_sizes = list(band_sizes[:-1])
    fp_size = band_sizes[-1]
    parse = x * model.queue_parse_ns
    max_dp = max(dp_sizes) if dp_sizes else 0
    fp_band = x - 1

    if band_index == fp_band:
        t_b = model.rm_block(fp_size)
        t_u = model.rm_unblock(fp_size)
        t_s_block = parse + model.rm_select(fp_size)
        t_s_unblock = parse + (
            model.edf_select(max_dp) if dp_sizes else model.rm_select(fp_size)
        )
    else:
        size = band_sizes[band_index]
        t_b = model.edf_block(size)
        t_u = model.edf_unblock(size)
        worst_any = max(
            model.edf_select(max_dp) if dp_sizes else 0,
            model.rm_select(fp_size),
        )
        t_s_block = parse + worst_any
        max_up_to = max(dp_sizes[: band_index + 1])
        t_s_unblock = parse + model.edf_select(max_up_to)

    total = t_b + t_s_block + t_u + t_s_unblock
    return round(blocking_factor * total)


def inflate(task: TaskSpec, overhead_ns: int) -> int:
    """The overhead-inflated execution time ``c_i + t`` of Section 5.1."""
    return task.wcet + overhead_ns


# ----------------------------------------------------------------------
# EDF (processor demand analysis)
# ----------------------------------------------------------------------

def _demand_points(
    tasks: Sequence[TaskSpec], horizon: int, cap: int = MAX_TEST_POINTS
) -> Optional[List[int]]:
    """Absolute deadlines of ``tasks`` in ``(0, horizon]``.

    Returns ``None`` if more than ``cap`` points would be generated.
    """
    points = set()
    for task in tasks:
        deadline = task.deadline
        count = 0
        t = deadline
        while t <= horizon:
            points.add(t)
            count += 1
            if len(points) > cap:
                return None
            t = deadline + count * task.period
    return sorted(points)


def _busy_period(costs: Sequence[Tuple[int, int]]) -> Optional[int]:
    """Synchronous busy period of periodic tasks ``(period, cost)``.

    Returns ``None`` when the fixed point fails to converge (U >= 1 or
    iteration cap hit).
    """
    total = sum(c for _, c in costs)
    if total == 0:
        return 0
    utilization = sum(c / p for p, c in costs)
    if utilization >= 1.0:
        return None
    length = total
    for _ in range(_MAX_BUSY_ITERATIONS):
        nxt = sum(_ceil_div(length, p) * c for p, c in costs)
        if nxt == length:
            return length
        length = nxt
    return None


def edf_schedulable(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
) -> bool:
    """Exact EDF feasibility with run-time overheads.

    With implicit deadlines this is the classic ``U' <= 1`` bound
    (Liu & Layland via [21]); with constrained deadlines, processor
    demand analysis over the synchronous busy period.
    """
    n = len(workload)
    if n == 0:
        return True
    overhead = edf_overhead_per_period(model, n, blocking_factor)
    inflated = [(t.period, inflate(t, overhead)) for t in workload]
    utilization = sum(c / p for p, c in inflated)
    if utilization > 1.0:
        return False
    if all(t.deadline >= t.period for t in workload):
        return True
    return _demand_feasible(list(workload), [c for _, c in inflated], [])


def _demand_feasible(
    band: List[TaskSpec],
    band_costs: List[int],
    interference: List[Tuple[int, int]],
) -> bool:
    """Processor-demand test for an EDF band under periodic interference.

    ``interference`` is a list of ``(period, cost)`` pairs of strictly
    higher-priority periodic tasks (higher CSD bands); their worst-case
    interference over ``[0, t)`` is ``sum(ceil(t / P) * c)``.
    """
    if not band:
        return True
    costs = [(t.period, c) for t, c in zip(band, band_costs)]
    everything = costs + list(interference)
    utilization = sum(c / p for p, c in everything)
    if utilization > 1.0:
        return False
    if not interference and all(t.deadline >= t.period for t in band):
        # Pure EDF band with implicit deadlines: U <= 1 is exact.
        return True
    if utilization == 1.0:
        # The busy period diverges exactly at U = 1; the synchronous
        # schedule repeats with the hyperperiod, so checking one
        # hyperperiod is decisive.
        horizon = math.lcm(*(p for p, _ in everything))
        if horizon > 1_000_000_000_000:
            return False  # hyperperiod too large; knife-edge case
    else:
        horizon = _busy_period(everything)
        if horizon is None:
            return False
    if horizon == 0:
        return True
    points = _demand_points(band, horizon)
    if points is None:
        return False
    for t in points:
        demand = 0
        for task, cost in zip(band, band_costs):
            jobs = (t - task.deadline) // task.period + 1
            if jobs > 0:
                demand += jobs * cost
        for period, cost in interference:
            demand += _ceil_div(t, period) * cost
        if demand > t:
            return False
    return True


# ----------------------------------------------------------------------
# RM / fixed priority (response-time analysis)
# ----------------------------------------------------------------------

def rm_response_times(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
    heap: bool = False,
) -> Dict[str, Optional[int]]:
    """Worst-case response time of each task under RM, or ``None`` when
    the fixed point exceeds the deadline (task unschedulable)."""
    n = len(workload)
    per_period = (
        heap_overhead_per_period(model, n, blocking_factor)
        if heap
        else rm_overhead_per_period(model, n, blocking_factor)
    )
    inflated = [inflate(t, per_period) for t in workload]
    results: Dict[str, Optional[int]] = {}
    for i, task in enumerate(workload):
        results[task.name] = _response_time(
            inflated[i],
            task.deadline,
            [(workload[j].period, inflated[j]) for j in range(i)],
        )
    return results


def _response_time(
    cost: int, deadline: int, higher: Sequence[Tuple[int, int]]
) -> Optional[int]:
    """Classic RTA fixed point; ``None`` if it climbs past the deadline."""
    response = cost
    for _ in range(_MAX_BUSY_ITERATIONS):
        interference = sum(_ceil_div(response, p) * c for p, c in higher)
        nxt = cost + interference
        if nxt == response:
            return response
        if nxt > deadline:
            return None
        response = nxt
    return None


def rm_schedulable(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
    heap: bool = False,
) -> bool:
    """Exact RM feasibility (response-time analysis) with overheads."""
    if len(workload) == 0:
        return True
    responses = rm_response_times(workload, model, blocking_factor, heap=heap)
    return all(r is not None for r in responses.values())


def dm_response_times(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
) -> Dict[str, Optional[int]]:
    """Response times under deadline-monotonic priorities.

    The paper notes the FP queue works with "any fixed-priority
    scheduler such as deadline-monotonic [18]"; DM is the optimal
    fixed-priority assignment for constrained deadlines (d <= P).
    Priorities order by relative deadline, shortest first.
    """
    n = len(workload)
    per_period = rm_overhead_per_period(model, n, blocking_factor)
    ordered = sorted(workload, key=lambda t: (t.deadline, t.name))
    inflated = [inflate(t, per_period) for t in ordered]
    results: Dict[str, Optional[int]] = {}
    for i, task in enumerate(ordered):
        results[task.name] = _response_time(
            inflated[i],
            task.deadline,
            [(ordered[j].period, inflated[j]) for j in range(i)],
        )
    return results


def dm_schedulable(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
) -> bool:
    """Exact deadline-monotonic feasibility with overheads."""
    if len(workload) == 0:
        return True
    responses = dm_response_times(workload, model, blocking_factor)
    return all(r is not None for r in responses.values())


# ----------------------------------------------------------------------
# CSD (hierarchical band analysis)
# ----------------------------------------------------------------------

def band_sizes_from_splits(n: int, splits: Sequence[int]) -> List[int]:
    """Convert cumulative split points into band sizes.

    ``splits = (s_1, ..., s_{x-1})`` assigns tasks ``[0, s_1)`` to DP1,
    ``[s_1, s_2)`` to DP2, ..., and ``[s_{x-1}, n)`` to the FP queue.
    """
    previous = 0
    sizes = []
    for s in splits:
        if not previous <= s <= n:
            raise ValueError(f"invalid split point {s} (n={n}, splits={splits})")
        sizes.append(s - previous)
        previous = s
    sizes.append(n - previous)
    return sizes


def csd_schedulable(
    workload: Workload,
    splits: Sequence[int],
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
) -> bool:
    """Feasibility of ``workload`` under CSD with the given allocation.

    ``splits`` are cumulative indices into the RM-ordered workload (see
    :func:`band_sizes_from_splits`); tasks before the last split form
    the DP bands, the rest the FP band.
    """
    n = len(workload)
    if n == 0:
        return True
    sizes = band_sizes_from_splits(n, splits)
    tasks = list(workload)

    # Inflated execution time per band.
    overheads = [
        csd_overhead_per_period(model, sizes, k, blocking_factor)
        for k in range(len(sizes))
    ]
    bands: List[List[TaskSpec]] = []
    band_costs: List[List[int]] = []
    start = 0
    for k, size in enumerate(sizes):
        members = tasks[start : start + size]
        bands.append(members)
        band_costs.append([inflate(t, overheads[k]) for t in members])
        start += size

    # EDF bands, highest priority first, with interference from every
    # higher band.
    interference: List[Tuple[int, int]] = []
    for k in range(len(sizes) - 1):
        if bands[k]:
            if not _demand_feasible(bands[k], band_costs[k], interference):
                return False
        interference.extend(
            (t.period, c) for t, c in zip(bands[k], band_costs[k])
        )

    # FP band: response-time analysis; every DP task interferes, plus
    # higher-priority FP tasks.
    fp_tasks = bands[-1]
    fp_costs = band_costs[-1]
    for i, task in enumerate(fp_tasks):
        higher = list(interference)
        higher.extend((fp_tasks[j].period, fp_costs[j]) for j in range(i))
        if _response_time(fp_costs[i], task.deadline, higher) is None:
            return False
    return True
