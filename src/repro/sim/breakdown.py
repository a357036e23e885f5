"""Breakdown-utilization experiments (Section 5.7, Figures 3-5).

"Our test procedure involves generating random task workloads, then for
each workload, scaling the execution times of tasks until the workload
is no longer feasible for a given scheduler.  The utilization at which
the workload becomes infeasible is called the breakdown utilization."

:func:`breakdown_utilization` locates the largest feasible
execution-time scale against an overhead-aware feasibility test
(feasibility is monotone in the scale: demand grows with execution
times while run-time overheads are scale-independent).

Implementation notes:

* Under EDF with implicit deadlines the test is ``U' <= 1``, so the
  breakdown utilization has the closed form ``1 - sum(t_i / P_i)``
  (raw utilization plus the overhead utilization must reach exactly 1).
* RM uses a plain binary search over response-time analysis.
* CSD must maximize over queue allocations as well (the paper's offline
  search).  We search a coarse grid of DP-set sizes with rate-balanced
  inner splits, then refine locally around the best candidate.  The
  incumbent best scale prunes hard: a candidate allocation is tested
  once at the incumbent; only improvers pay for a binary search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.allocation import balanced_splits
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.schedulability import (
    BLOCKING_FACTOR,
    band_sizes_from_splits,
    csd_overhead_per_period,
    csd_schedulable,
    edf_overhead_per_period,
    edf_schedulable,
    heap_overhead_per_period,
    rm_overhead_per_period,
    rm_schedulable,
)
from repro.core.task import Workload
from repro.sim.workload import generate_base_workloads

__all__ = [
    "POLICIES",
    "BreakdownResult",
    "best_csd_configuration",
    "breakdown_utilization",
    "dp_bands",
    "figure_series",
    "FigureSeries",
]

#: Scheduling policies understood by this module.  ``csd-x`` uses
#: ``x - 1`` dynamic-priority queues plus the FP queue.
POLICIES = ("edf", "rm", "rm-heap", "csd-2", "csd-3", "csd-4", "csd-5", "csd-6")

#: Absolute precision of the scale binary search.
_SCALE_TOLERANCE = 1e-3


def dp_bands(policy: str) -> int:
    """Dynamic-priority bands of ``csd-x``: x - 1, ahead of the FP queue."""
    if not policy.startswith("csd-"):
        raise ValueError(f"not a CSD policy: {policy}")
    x = int(policy.split("-", 1)[1])
    if x < 2:
        raise ValueError("CSD needs at least two queues")
    return x - 1


@dataclass
class BreakdownResult:
    """Outcome of one breakdown search."""

    policy: str
    utilization: float
    scale: float
    splits: Optional[Tuple[int, ...]] = None


def _search_max_scale(
    feasible: Callable[[float], bool],
    hi: float,
    lo: float = 0.0,
    tolerance: float = _SCALE_TOLERANCE,
) -> float:
    """Largest feasible scale in ``[lo, hi]`` by bisection.

    ``lo`` must already be known feasible (or zero); ``hi`` is an upper
    bound beyond which the workload cannot be feasible.
    """
    if feasible(hi):
        return hi
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _overhead_utilization(workload: Workload, overheads: Sequence[int]) -> float:
    """Utilization consumed by per-period scheduler overheads."""
    return sum(o / t.period for o, t in zip(overheads, workload))


def _edf_breakdown(
    workload: Workload, model: OverheadModel, blocking_factor: float
) -> BreakdownResult:
    n = len(workload)
    base = workload.utilization
    overhead = edf_overhead_per_period(model, n, blocking_factor)
    overhead_util = _overhead_utilization(workload, [overhead] * n)
    if all(t.deadline >= t.period for t in workload):
        # Closed form: scale * U_base + U_overhead = 1.
        utilization = max(0.0, 1.0 - overhead_util)
        return BreakdownResult("edf", utilization, utilization / base)
    hi = max(0.0, (1.0 - overhead_util) / base)
    scale = _search_max_scale(
        lambda s: edf_schedulable(workload.scaled(s), model, blocking_factor),
        hi=max(hi, _SCALE_TOLERANCE),
    )
    return BreakdownResult("edf", scale * base, scale)


def _rm_breakdown(
    workload: Workload,
    model: OverheadModel,
    blocking_factor: float,
    heap: bool,
) -> BreakdownResult:
    n = len(workload)
    base = workload.utilization
    per = (
        heap_overhead_per_period(model, n, blocking_factor)
        if heap
        else rm_overhead_per_period(model, n, blocking_factor)
    )
    overhead_util = _overhead_utilization(workload, [per] * n)
    hi = max(_SCALE_TOLERANCE, (1.0 - overhead_util) / base)
    scale = _search_max_scale(
        lambda s: rm_schedulable(workload.scaled(s), model, blocking_factor, heap=heap),
        hi=hi,
    )
    policy = "rm-heap" if heap else "rm"
    return BreakdownResult(policy, scale * base, scale)


def _csd_allocation_cap(
    workload: Workload,
    splits: Tuple[int, ...],
    model: OverheadModel,
    blocking_factor: float,
) -> float:
    """Scale upper bound for one allocation from ``U' <= 1``."""
    sizes = band_sizes_from_splits(len(workload), splits)
    overheads: List[int] = []
    start = 0
    for k, size in enumerate(sizes):
        per = csd_overhead_per_period(model, sizes, k, blocking_factor)
        overheads.extend([per] * size)
        start += size
    overhead_util = _overhead_utilization(workload, overheads)
    base = workload.utilization
    return max(0.0, (1.0 - overhead_util) / base)


def _csd_breakdown(
    workload: Workload,
    policy: str,
    model: OverheadModel,
    blocking_factor: float,
) -> BreakdownResult:
    n = len(workload)
    base = workload.utilization
    bands = dp_bands(policy)

    def feasible(splits: Tuple[int, ...], scale: float) -> bool:
        return csd_schedulable(workload.scaled(scale), splits, model, blocking_factor)

    def evaluate(splits: Tuple[int, ...], incumbent: float) -> Optional[float]:
        """Best scale for ``splits`` if it beats ``incumbent``, else None."""
        cap = _csd_allocation_cap(workload, splits, model, blocking_factor)
        if cap <= incumbent:
            return None
        probe = incumbent + _SCALE_TOLERANCE if incumbent > 0 else min(cap, 0.5 / base)
        probe = min(probe, cap)
        if not feasible(splits, probe):
            if incumbent > 0:
                return None
            # Incumbent is zero: find *any* feasible scale to seed from.
            scale = probe / 2
            while scale * base > 1e-4 and not feasible(splits, scale):
                scale /= 2
            if scale * base <= 1e-4:
                return None
            return _search_max_scale(lambda s: feasible(splits, s), hi=cap, lo=scale)
        return _search_max_scale(lambda s: feasible(splits, s), hi=cap, lo=probe)

    # Coarse grid over DP-set sizes, rate-balanced inner splits.
    if n <= 12:
        grid = list(range(n + 1))
    else:
        step = max(1, n // 10)
        grid = sorted(set(list(range(0, n + 1, step)) + [n]))
    best_scale = 0.0
    best_splits: Optional[Tuple[int, ...]] = None
    for r in grid:
        splits = balanced_splits(workload, bands, r)
        result = evaluate(splits, best_scale)
        if result is not None and result > best_scale:
            best_scale = result
            best_splits = splits

    # Local refinement around the best DP-set size and inner splits.
    if best_splits is not None:
        candidates: List[Tuple[int, ...]] = []
        best_r = best_splits[-1]
        for dr in (-3, -2, -1, 1, 2, 3):
            r = best_r + dr
            if 0 <= r <= n:
                candidates.append(balanced_splits(workload, bands, r))
        if bands >= 2:
            inner = list(best_splits[:-1])
            for idx in range(len(inner)):
                for di in (-2, -1, 1, 2):
                    moved = list(best_splits)
                    moved[idx] = inner[idx] + di
                    if 0 <= moved[idx] and all(
                        moved[i] <= moved[i + 1] for i in range(len(moved) - 1)
                    ):
                        candidates.append(tuple(moved))
        for splits in candidates:
            result = evaluate(splits, best_scale)
            if result is not None and result > best_scale:
                best_scale = result
                best_splits = splits

    return BreakdownResult(policy, best_scale * base, best_scale, best_splits)


def breakdown_utilization(
    workload: Workload,
    policy: str,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
) -> BreakdownResult:
    """Maximum raw utilization at which ``workload`` stays feasible
    under ``policy`` (one of :data:`POLICIES`)."""
    if workload.utilization <= 0:
        return BreakdownResult(policy, 0.0, 0.0)
    if policy == "edf":
        return _edf_breakdown(workload, model, blocking_factor)
    if policy == "rm":
        return _rm_breakdown(workload, model, blocking_factor, heap=False)
    if policy == "rm-heap":
        return _rm_breakdown(workload, model, blocking_factor, heap=True)
    if policy.startswith("csd-"):
        return _csd_breakdown(workload, policy, model, blocking_factor)
    raise ValueError(f"unknown policy {policy!r}")


def best_csd_configuration(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    max_queues: int = 6,
    blocking_factor: float = BLOCKING_FACTOR,
) -> Tuple[int, BreakdownResult]:
    """The Section 5.6 search: the best number of CSD queues.

    "For a given workload, the best number of queues and the best
    number of tasks per queue can be found through an exhaustive
    search."  Evaluates CSD-2 .. CSD-``max_queues`` (each with its own
    allocation search) and returns ``(x, result)`` for the x with the
    highest breakdown utilization.
    """
    if max_queues < 2:
        raise ValueError("CSD needs at least two queues")
    best_x = 2
    best: Optional[BreakdownResult] = None
    for x in range(2, max_queues + 1):
        result = breakdown_utilization(
            workload, f"csd-{x}", model, blocking_factor
        )
        if best is None or result.utilization > best.utilization:
            best = result
            best_x = x
    assert best is not None
    return best_x, best


@dataclass
class FigureSeries:
    """One figure's worth of breakdown-utilization data.

    ``values[policy]`` is the list of average breakdown utilizations
    (percent), one per entry of ``task_counts``.
    """

    task_counts: List[int]
    workloads_per_point: int
    values: Dict[str, List[float]] = field(default_factory=dict)

    def rows(self) -> List[Tuple[int, Dict[str, float]]]:
        """Per-n rows for table rendering."""
        out = []
        for idx, n in enumerate(self.task_counts):
            out.append((n, {p: v[idx] for p, v in self.values.items()}))
        return out


def _figure_cell(args: Tuple) -> float:
    """One (task count, policy) cell of a figure: the average breakdown
    utilization in percent.

    Each cell regenerates its workloads deterministically from the
    seed, so results are identical at any
    :func:`repro.perf.sweeps.parallel_map` worker count.
    """
    n, policy, workloads_per_point, seed, period_divisor, model, blocking = args
    workloads = generate_base_workloads(n, workloads_per_point, seed=seed)
    if period_divisor != 1:
        workloads = [w.with_periods_divided(period_divisor) for w in workloads]
    total = 0.0
    for w in workloads:
        total += breakdown_utilization(w, policy, model, blocking).utilization
    return 100.0 * total / len(workloads)


def figure_series(
    task_counts: Sequence[int],
    policies: Sequence[str],
    workloads_per_point: int = 40,
    seed: int = 0,
    period_divisor: int = 1,
    model: Optional[OverheadModel] = None,
    blocking_factor: float = BLOCKING_FACTOR,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> FigureSeries:
    """Compute one of Figures 3-5.

    Args:
        task_counts: The x axis (the paper uses 5..50).
        policies: Which schedulers to include.
        workloads_per_point: Random workloads averaged per point (the
            paper uses 500; smaller values keep CI runtimes sane and
            the averages stable to within a percent or two).
        seed: Base RNG seed.
        period_divisor: 1 for Figure 3, 2 for Figure 4, 3 for Figure 5.
        model: Overhead model; default is the paper's MC68040 table.
        blocking_factor: Section 5.1 blocking multiplier.
        progress: Optional callback receiving progress strings.
        workers: Forked processes for the (n, policy) grid; ``None``
            honors ``REPRO_BENCH_WORKERS`` (default serial), ``0``
            means one per CPU.  Results are identical at any count.

    Returns:
        A :class:`FigureSeries` with average breakdown utilization in
        percent for each policy and task count.
    """
    from repro.perf.sweeps import parallel_map

    model = model if model is not None else OverheadModel()
    series = FigureSeries(
        task_counts=list(task_counts),
        workloads_per_point=workloads_per_point,
        values={p: [] for p in policies},
    )
    cells = [
        (n, policy, workloads_per_point, seed, period_divisor, model, blocking_factor)
        for n in task_counts
        for policy in policies
    ]
    averages = parallel_map(_figure_cell, cells, workers=workers)
    for cell, average in zip(cells, averages):
        n, policy = cell[0], cell[1]
        series.values[policy].append(average)
        if progress is not None:
            progress(f"n={n} {policy}: {average:.1f}%")
    return series
