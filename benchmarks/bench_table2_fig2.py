"""Table 2 + Figure 2: the workload that breaks RM but not EDF/CSD.

Regenerates Figure 2 by actually scheduling the Table 2 workload in
the live kernel under RM (tau5 misses its deadline exactly as the
paper's trace shows), then under EDF and CSD-2 with tau1..tau5 on the
DP queue (no misses; their Gantt charts close
``figure2_alternatives.txt``).
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.overhead import ZERO_OVERHEAD
from repro.core.task import table2_workload
from repro.sim.kernelsim import simulate_workload
from repro.timeunits import ms


def gantt(trace) -> str:
    """The paper's Figure 2 window: tau1..tau5 over [0, 10 ms]."""
    return trace.gantt_ascii(
        0, ms(10), columns=60, threads=[f"tau{i}" for i in range(1, 6)]
    )


def figure2_rm_trace():
    kernel, trace = simulate_workload(
        table2_workload(), "rm", duration=ms(40), model=ZERO_OVERHEAD
    )
    misses = sorted({j.thread for j in trace.deadline_violations(kernel.now)})
    publish(
        "figure2_rm",
        "Figure 2: RM schedule of the Table 2 workload\n"
        + gantt(trace)
        + f"\ndeadline misses: {misses} (paper: tau5)",
    )
    assert misses == ["tau5"]


def figure2_edf_and_csd():
    workload = table2_workload()
    runs = {
        policy: simulate_workload(
            workload, policy, duration=ms(200), model=ZERO_OVERHEAD, splits=splits
        )
        for policy, splits in (("edf", None), ("csd-2", (5,)))
    }
    misses = {p: len(t.deadline_violations(k.now)) for p, (k, t) in runs.items()}
    table = format_table(
        ["policy", "deadline misses in 200 ms"],
        [[p, v] for p, v in misses.items()],
        title="Table 2 workload under EDF and CSD-2 (DP = tau1..tau5)",
    )
    charts = "".join(
        f"\n\nFigure 2 alternative: {p.upper()} schedule of the Table 2 "
        f"workload\n{gantt(t)}"
        for p, (_, t) in runs.items()
    )
    publish("figure2_alternatives", table + charts)
    assert misses == {"edf": 0, "csd-2": 0}


def table2_workload_properties():
    workload = table2_workload()
    rows = [
        [t.name, t.period / 1e6, t.wcet / 1e6, f"{t.utilization:.3f}"]
        for t in workload
    ]
    rows.append(["total", "", "", f"{workload.utilization:.3f}"])
    publish(
        "table2",
        format_table(
            ["task", "P (ms)", "c (ms)", "U"],
            rows,
            title="Table 2 (reconstructed): U = 0.88, EDF-feasible, RM-infeasible",
        ),
    )
    assert abs(workload.utilization - 0.88) < 0.01


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    figure2_rm_trace()
    figure2_edf_and_csd()
    table2_workload_properties()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
