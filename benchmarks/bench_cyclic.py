"""Section 5's motivation: cyclic executives vs priority scheduling.

Not a numbered figure, but the paper's three claims against cyclic
time-slice scheduling open Section 5 and justify CSD's existence.
This benchmark makes each claim measurable:

1. schedule tables blow up when periods are relatively prime
   ("wasting scarce memory resources" -- on a 32-128 KB part!);
2. high-priority aperiodic work waits for frame slack, where a
   priority scheduler dispatches it immediately;
3. workloads that priority schedulers handle trivially can have no
   legal cyclic schedule at all.
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.cyclic import CyclicScheduleError, build_cyclic_schedule
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel
from repro.core.task import TaskSpec, Workload
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program
from repro.timeunits import ms, to_ms, us


def wl(*pairs_ms):
    return Workload(
        TaskSpec(name=f"t{i}", period=ms(p), wcet=ms(c))
        for i, (p, c) in enumerate(pairs_ms)
    )


def table_size_blowup():
    rows = []
    cases = [
        ("harmonic 10/20/40", wl((10, 1), (20, 2), (40, 2))),
        ("mixed 10/25/50", wl((10, 1), (25, 2), (50, 2))),
        ("prime 7/11/13", wl((7, 1), (11, 1), (13, 1))),
        ("prime 7/11/13/17", wl((7, 1), (11, 1), (13, 1), (17, 1))),
    ]
    for name, w in cases:
        try:
            schedule = build_cyclic_schedule(w)
            rows.append(
                [
                    name,
                    f"{to_ms(schedule.hyperperiod):.0f}",
                    schedule.table_entries,
                    schedule.table_bytes,
                ]
            )
        except CyclicScheduleError as exc:
            rows.append([name, "-", "-", f"UNSCHEDULABLE ({exc})"])
    publish(
        "cyclic_table_size",
        format_table(
            ["workload", "hyperperiod (ms)", "table entries", "table bytes"],
            rows,
            title=(
                "Cyclic executive table size (paper Sec. 5: relatively prime "
                "periods waste scarce memory; target RAM is 32-128 KB)"
            ),
        ),
    )
    # The prime-period table dwarfs the harmonic one.
    harmonic_bytes = rows[0][3]
    prime_bytes = rows[3][3]
    assert isinstance(prime_bytes, int)
    assert prime_bytes > 20 * harmonic_bytes


def aperiodic_response():
    """Aperiodic response: frame slack vs immediate priority dispatch."""
    w = wl((10, 4), (20, 8))  # U = 0.8
    aperiodic_cost = ms(2)
    schedule = build_cyclic_schedule(w)
    cyclic_response = schedule.worst_case_aperiodic_response(aperiodic_cost)

    # The same aperiodic job under EDF with a tight deadline: build
    # the periodic load, release the aperiodic at the worst phase
    # (right after both periodic releases), measure completion.
    kernel = Kernel(EDFScheduler(OverheadModel()))
    for t in w:
        kernel.create_thread(t.name, Program([Compute(t.wcet)]), period=t.period)
    kernel.create_thread(
        "aperiodic", Program([Compute(aperiodic_cost)]),
        priority=0, deadline=ms(5),
    )
    kernel.activate("aperiodic", at=us(10))
    trace = kernel.run_until(ms(100))
    priority_response = trace.jobs_of("aperiodic")[0].response_time
    publish(
        "cyclic_aperiodic",
        format_table(
            ["scheduler", "worst-case aperiodic response (ms)"],
            [
                ["cyclic executive (frame slack)", f"{to_ms(cyclic_response):.1f}"],
                ["EDF kernel (priority dispatch)", f"{to_ms(priority_response):.2f}"],
            ],
            title="Aperiodic response to a 2 ms job, U = 0.8 periodic load",
        ),
    )
    assert cyclic_response > 2 * priority_response


def brittleness():
    """Workloads any priority scheduler handles can defeat the cyclic
    executive entirely (no legal frame / table too large)."""
    from repro.core.schedulability import edf_schedulable

    w = wl((9.97, 0.5), (11.19, 0.5), (13.01, 0.5), (17.03, 0.5))
    edf_ok = edf_schedulable(w)
    try:
        build_cyclic_schedule(w)
        cyclic_ok = True
    except CyclicScheduleError:
        cyclic_ok = False
    publish(
        "cyclic_brittleness",
        f"EDF schedulable: {edf_ok}; cyclic executive schedulable: {cyclic_ok} "
        "(U = 0.17, but the periods are nearly relatively prime)",
    )
    assert edf_ok and not cyclic_ok


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    table_size_blowup()
    aperiodic_response()
    brittleness()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
