"""Figure 5: breakdown utilization with task periods divided by 3.

Short periods (1.7-333 ms) invoke the scheduler most often.  The
paper's finding: "these short periods allow RM to quickly overtake
EDF.  Nevertheless, CSD continues to be superior to both."
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


def figure5():
    series = figure_series(
        bench_task_counts(),
        POLICIES,
        workloads_per_point=bench_workloads(),
        seed=1,
        period_divisor=3,
    )
    publish(
        "figure5",
        ascii_series(
            series.task_counts,
            {p: series.values[p] for p in POLICIES},
            title=(
                "Figure 5: average breakdown utilization (%), periods / 3 "
                f"({series.workloads_per_point} workloads/point)"
            ),
            x_label="n",
        ),
    )

    by = series.values
    last = len(series.task_counts) - 1
    # RM overtakes EDF at large n with short periods.
    assert by["rm"][last] > by["edf"][last]
    # CSD superior to both across the range's tail.
    assert by["csd-3"][last] > by["rm"][last]
    assert by["csd-3"][last] > by["edf"][last]
    # CSD-2 -> CSD-3 is a significant improvement at large n.
    assert by["csd-3"][last] >= by["csd-2"][last] - 0.5


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    figure5()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
