"""The canonical throughput workload and its measurement harness.

One fixed configuration -- the ``bench_kernel_overhead`` workload
(n = 20, short periods, EDF / RM / CSD-3, 2 s of virtual time) -- is
measured identically by the ``python -m repro.reproduce perf`` CLI,
the benchmark suite, and the CI perf-gates job, so every entry in
``BENCH_kernel.json`` is comparable.

The harness measures two things about every code change:

* **speed**: wall time and sim-ns per wall-second at a chosen trace
  recording mode (steady-state throughput runs use ``jobs-only``);
* **behavior**: the sha256 signature of the *full* trace (events +
  jobs + segments).  An optimization is only an optimization if these
  signatures do not move.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.allocation import balanced_splits
from repro.core.overhead import OverheadModel
from repro.core.schedulability import (
    band_sizes_from_splits,
    csd_overhead_per_period,
    csd_schedulable,
)
from repro.perf.counters import PerfReport, collect_report, merge_reports, timed
from repro.sim.kernelsim import simulate_workload
from repro.sim.workload import generate_workload
from repro.timeunits import ms

__all__ = [
    "POLICIES",
    "HORIZON_NS",
    "min_overhead_splits",
    "overhead_workload",
    "throughput_config",
    "run_throughput",
    "full_signatures",
]

#: Policies measured by the canonical run.
POLICIES: Tuple[str, ...] = ("edf", "rm", "csd-3")

#: Virtual horizon per policy run.
HORIZON_NS = ms(2000)


def min_overhead_splits(workload, dp_bands: int, model: OverheadModel):
    """The feasible balanced allocation minimizing analytic overhead
    utilization -- what the offline search optimizes for when the load
    leaves headroom (Section 5.5.3's overhead-balancing criterion)."""
    n = len(workload)
    best, best_cost = None, None
    for r in range(n + 1):
        splits = balanced_splits(workload, dp_bands, r)
        if not csd_schedulable(workload, splits, model):
            continue
        sizes = band_sizes_from_splits(n, splits)
        cost = 0.0
        index = 0
        for band, size in enumerate(sizes):
            per = csd_overhead_per_period(model, sizes, band)
            for _ in range(size):
                cost += per / workload[index].period
                index += 1
        if best_cost is None or cost < best_cost:
            best, best_cost = splits, cost
    return best


def overhead_workload():
    """The fixed n = 20 short-period workload (seed 4)."""
    return generate_workload(20, seed=4, utilization=0.45).with_periods_divided(3)


def _policy_runs(model: OverheadModel):
    workload = overhead_workload()
    splits = min_overhead_splits(workload, 2, model)
    for policy in POLICIES:
        yield workload, policy, (splits if policy.startswith("csd-") else None)


def throughput_config(mode: str) -> Dict:
    """The measurement configuration fingerprinted into the trajectory."""
    return {
        "workload": "generate_workload(20, seed=4, u=0.45) periods/3",
        "policies": list(POLICIES),
        "horizon_ns": HORIZON_NS,
        "record": mode,
    }


def run_throughput(
    mode: str = "jobs-only",
    model: Optional[OverheadModel] = None,
    repeats: int = 1,
    label: str = "kernel-overhead",
    obs: Optional[str] = None,
) -> PerfReport:
    """Run the canonical workload and report pooled counters/rates.

    Each policy run is timed on its own by :func:`timed` (GC parked).
    ``obs`` attaches an observability collector (``"counters"`` or
    ``"full"``) inside the timed section -- how the obs-smoke overhead
    bound is measured.
    """
    model = model if model is not None else OverheadModel()
    reports = []
    for _ in range(max(1, repeats)):
        for workload, policy, splits in _policy_runs(model):
            (kernel, _trace), wall = timed(
                lambda: simulate_workload(
                    workload, policy, duration=HORIZON_NS, model=model,
                    splits=splits, record=mode, obs=obs,
                )
            )
            reports.append(collect_report(kernel, wall, label=policy))
    return merge_reports(label, reports)


def full_signatures(model: Optional[OverheadModel] = None) -> Dict[str, str]:
    """Full-mode trace signatures (events + jobs + segments) per policy.

    The determinism cross-check: these hashes must be identical before
    and after any performance work.
    """
    model = model if model is not None else OverheadModel()
    signatures = {}
    for workload, policy, splits in _policy_runs(model):
        _kernel, trace = simulate_workload(
            workload, policy, duration=HORIZON_NS, model=model,
            splits=splits, record="full",
        )
        signatures[policy] = trace.signature(include_segments=True)
    return signatures
