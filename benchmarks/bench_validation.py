"""Soundness validation: the analytic Figures 3-5 model vs the kernel.

The breakdown figures are computed analytically (as the paper did);
this benchmark scales random workloads to 2% inside their analytic
breakdown point and replays them on the live kernel with the full
overhead charging.  Zero deadline misses on the feasible side means
the analysis is operationally sound -- the analytic curves could be
regenerated (much more slowly) by pure simulation.
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.sim.validate import validate_breakdown
from repro.sim.workload import generate_workload


def validation_table():
    rows = []
    clean = True
    for policy in ("edf", "rm", "csd-2", "csd-3"):
        for seed in (0, 1, 2):
            w = generate_workload(6, seed=seed, utilization=0.5)
            result = validate_breakdown(w, policy)
            rows.append(
                [
                    policy,
                    seed,
                    f"{100 * result.breakdown_utilization:.1f}%",
                    "clean" if result.sound else f"{result.violations} MISSES",
                ]
            )
            clean = clean and result.sound
    publish(
        "validation",
        format_table(
            ["policy", "workload seed", "analytic breakdown", "kernel at 98%"],
            rows,
            title="Analytic-vs-kernel soundness check (2% inside breakdown)",
        ),
    )
    assert clean


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    validation_table()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
