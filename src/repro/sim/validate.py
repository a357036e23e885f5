"""Cross-validation: analytic schedulability vs the live kernel.

The breakdown-utilization figures are computed analytically (the
paper's own methodology -- its schedulability test [36] includes the
Table 1 run-time overheads).  This module closes the loop: it takes an
analytic breakdown result, scales the workload to just inside the
breakdown point, runs it on the *live kernel* (which charges the same
overheads operationally, through actual blocks/unblocks/selections and
context switches), and checks that no deadline is missed.

The analytic tests are *sufficient* conditions, so feasible-side
agreement is a soundness requirement: an analytic "feasible" that
misses deadlines in simulation would be a real bug.  The converse
(analytic "infeasible" that simulates cleanly) is legitimate
pessimism, which :func:`validate_breakdown` reports but does not
fail on.

Two sources of model/operational mismatch are accounted for:

* the analytic model charges the *worst-case* selection cost on every
  scheduler invocation, while the kernel charges the cost of the queue
  actually parsed -- the kernel is never more expensive;
* the analytic 1.5x blocking factor covers extra blocking system
  calls; the pure-compute simulation bodies make exactly one
  block/unblock per period, again never more expensive.  Validation
  therefore uses ``blocking_factor=1.0`` for a like-for-like check by
  default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.overhead import OverheadModel
from repro.core.task import Workload
from repro.sim.breakdown import breakdown_utilization
from repro.sim.kernelsim import hyperperiod, simulate_workload

__all__ = ["ValidationResult", "validate_breakdown"]

#: Default virtual-time horizon cap for validation runs (ns).
DEFAULT_HORIZON_CAP = 3_000_000_000


@dataclass
class ValidationResult:
    """Outcome of one analytic-vs-simulation check."""

    policy: str
    breakdown_utilization: float
    feasible_scale_tested: float
    feasible_side_clean: bool
    violations: int
    horizon_ns: int

    @property
    def sound(self) -> bool:
        """True when the analytic feasible claim held operationally."""
        return self.feasible_side_clean


def validate_breakdown(
    workload: Workload,
    policy: str,
    model: Optional[OverheadModel] = None,
    margin: float = 0.02,
    blocking_factor: float = 1.0,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
) -> ValidationResult:
    """Check an analytic breakdown result against the live kernel.

    Args:
        workload: The task set.
        policy: Scheduling policy name (see breakdown.POLICIES).
        model: Overhead model (default: the paper's).
        margin: Relative step inside the breakdown scale to test
            (2% by default: comfortably feasible analytically).
        blocking_factor: Per-period blocking multiplier used for the
            analysis (1.0 matches the simulation bodies; the paper's
            1.5 adds analytic headroom).
        horizon_cap: Simulation length cap in ns.

    Returns:
        A :class:`ValidationResult`; ``sound`` must be True.
    """
    model = model if model is not None else OverheadModel()
    result = breakdown_utilization(
        workload, policy, model, blocking_factor=blocking_factor
    )
    scale = result.scale * (1.0 - margin)
    scaled = workload.scaled(scale)
    horizon = min(hyperperiod(scaled), horizon_cap)
    kernel, trace = simulate_workload(
        scaled,
        policy,
        duration=horizon,
        model=model,
        splits=result.splits,
        record="jobs-only",
        stop_on_deadline_miss=True,
    )
    violations = len(trace.deadline_violations(kernel.now))
    return ValidationResult(
        policy=policy,
        breakdown_utilization=result.utilization,
        feasible_scale_tested=scale,
        feasible_side_clean=violations == 0 and kernel.now >= horizon,
        violations=violations,
        horizon_ns=horizon,
    )
