"""Figure 4: breakdown utilization with task periods divided by 2.

Moderate periods (2.5-500 ms).  The paper's finding: EDF starts above
RM but its O(n) selection cost catches up -- by n = 40 RM is superior
to EDF, and CSD beats both ("for n = 40, CSD-4 has 50% lower overhead
than RM, which in turn has lower overhead than EDF for this large n").
"""

from common import (
    apply_bench_args,
    bench_arg_parser,
    bench_task_counts,
    bench_workloads,
    publish,
)
from repro.analysis import ascii_series
from repro.sim.breakdown import figure_series

POLICIES = ("csd-4", "csd-3", "csd-2", "edf", "rm")


def figure4():
    series = figure_series(
        bench_task_counts(),
        POLICIES,
        workloads_per_point=bench_workloads(),
        seed=1,
        period_divisor=2,
    )
    publish(
        "figure4",
        ascii_series(
            series.task_counts,
            {p: series.values[p] for p in POLICIES},
            title=(
                "Figure 4: average breakdown utilization (%), periods / 2 "
                f"({series.workloads_per_point} workloads/point)"
            ),
            x_label="n",
        ),
    )

    by = series.values
    counts = series.task_counts
    first, last = 0, len(counts) - 1
    # EDF above RM for small n...
    assert by["edf"][first] > by["rm"][first]
    # ...CSD above both at large n.
    assert by["csd-3"][last] > by["edf"][last]
    assert by["csd-3"][last] > by["rm"][last]
    # The EDF-over-RM gap shrinks (or flips) as n grows.
    gap_small = by["edf"][first] - by["rm"][first]
    gap_large = by["edf"][last] - by["rm"][last]
    assert gap_large < gap_small


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    figure4()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
