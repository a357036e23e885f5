"""Figure 3: breakdown utilization vs task count, base periods.

Base workloads draw periods from the Section 5.7 mix (5-9 ms, 10-99 ms,
100-999 ms with equal probability).  The paper's findings to reproduce:

* CSD beats both EDF and RM over the whole range;
* CSD-4's advantage over EDF grows from ~17% lower total overhead at
  n = 15 to >40% at n = 40 -- visible here as the CSD curves holding
  up while EDF degrades with n;
* CSD-3 clearly improves on CSD-2 at large n, CSD-4 only marginally
  improves on CSD-3.
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


def figure3():
    series = figure_series(
        bench_task_counts(),
        POLICIES,
        workloads_per_point=bench_workloads(),
        seed=1,
        period_divisor=1,
    )
    publish(
        "figure3",
        ascii_series(
            series.task_counts,
            {p: series.values[p] for p in POLICIES},
            title=(
                "Figure 3: average breakdown utilization (%), base periods "
                f"({series.workloads_per_point} workloads/point; paper used 500)"
            ),
            x_label="n",
        ),
    )

    by = series.values
    last = len(series.task_counts) - 1
    # CSD-3 beats EDF and RM at the largest n.
    assert by["csd-3"][last] > by["edf"][last]
    assert by["csd-3"][last] > by["rm"][last]
    # CSD-4 ~ CSD-3 (only minimal further improvement, Section 5.7).
    assert abs(by["csd-4"][last] - by["csd-3"][last]) < 3.0
    # EDF close to ideal at small n with long periods.
    assert by["edf"][0] > 90.0


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    figure3()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
