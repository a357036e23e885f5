"""The headline claim, measured operationally: "the overheads of
various OS services are reduced 20-40%".

Figures 3-5 express the scheduler comparison analytically; this
benchmark measures it in the live kernel: the same workload runs under
EDF, RM, and CSD-3 and we report the virtual time actually charged to
scheduling (queue operations, selections, context switches).  The
paper's claim translates to CSD-3 charging substantially less than
EDF at moderate-to-large n with short periods.

The workload is the canonical throughput configuration; its timed,
signed trajectory entries come from ``python -m repro.reproduce perf
--check --append`` (``BENCH_kernel.json``), not from this benchmark.
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.overhead import OverheadModel
from repro.perf.workloads import (
    HORIZON_NS,
    min_overhead_splits,
    overhead_workload,
)
from repro.sim.kernelsim import simulate_workload
from repro.timeunits import to_us


def _scheduler_time(trace) -> int:
    return trace.kernel_time.get("sched", 0) + trace.kernel_time.get(
        "context-switch", 0
    )


def scheduler_overhead_in_live_kernel():
    model = OverheadModel()
    # Short periods invoke the scheduler often -- the regime where the
    # paper's savings are largest (Figure 5).
    workload = overhead_workload()
    splits = min_overhead_splits(workload, 2, model)
    assert splits is not None
    horizon = HORIZON_NS
    results = {}
    for policy, sp in (("edf", None), ("rm", None), ("csd-3", splits)):
        kernel, trace = simulate_workload(
            workload, policy, duration=horizon, model=model,
            splits=sp, record="jobs-only",
        )
        results[policy] = (
            _scheduler_time(trace),
            trace.context_switches,
            len(trace.deadline_violations(kernel.now)),
        )
    rows = []
    edf_time = results["edf"][0]
    for policy, (sched_ns, switches, misses) in results.items():
        rows.append(
            [
                policy,
                f"{to_us(sched_ns) / 1000:.2f}",
                f"{100 * sched_ns / horizon:.2f}%",
                switches,
                misses,
                f"{100 * (edf_time - sched_ns) / edf_time:+.1f}%",
            ]
        )
    publish(
        "kernel_overhead",
        format_table(
            ["policy", "sched time (ms/2s)", "CPU share", "switches",
             "misses", "vs EDF"],
            rows,
            title=(
                "Live-kernel scheduling overhead, n = 20, short periods "
                "(paper: CSD reduces overheads 20-40%)"
            ),
        ),
    )
    csd_time = results["csd-3"][0]
    # CSD-3 charges meaningfully less scheduling time than EDF.
    assert csd_time < edf_time
    reduction = (edf_time - csd_time) / edf_time
    assert reduction > 0.10
    # No policy may miss deadlines on this comfortably feasible set.
    assert all(misses == 0 for _, _, misses in results.values())


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    scheduler_overhead_in_live_kernel()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
