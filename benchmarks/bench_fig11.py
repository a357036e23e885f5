"""Figure 11 + the Section 6.4 FP-queue numbers: semaphore overheads.

Measures the contended acquire/release pair cost in the live kernel
(the Figure 6 scenario) as a function of the scheduler queue length,
for the standard implementation and the EMERALDS scheme, on both the
DP (EDF) queue and the FP (RM) queue.

Paper values this reproduces *exactly* (the cost model is calibrated
to them -- see ``repro.core.overhead``):

* DP queue, length 15: standard 39.3 us, EMERALDS 28.3 us -- an 11 us
  (28%) saving; standard slope exactly twice the EMERALDS slope.
* FP queue: EMERALDS constant at 29.4 us; at length 15 the standard
  implementation costs 39.8 us (10.4 us / 26% saving).
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import ascii_series
from repro.sim.semexp import figure11_series, measure_pair_overhead
from repro.timeunits import to_us, us

LENGTHS = tuple(range(3, 31, 3))


def figure11_dp_queue():
    rows = figure11_series("dp", LENGTHS)
    publish(
        "figure11_dp",
        ascii_series(
            [r[0] for r in rows],
            {
                "standard": [to_us(r[1]) for r in rows],
                "emeralds": [to_us(r[2]) for r in rows],
            },
            title="Figure 11: semaphore acquire/release overhead (us), DP queue",
            x_label="queue length",
        ),
    )
    by_n = {r[0]: r for r in rows}
    assert by_n[15][1] == us(39.3)
    assert by_n[15][2] == us(28.3)


def figure11_fp_queue():
    rows = figure11_series("fp", LENGTHS)
    publish(
        "figure11_fp",
        ascii_series(
            [r[0] for r in rows],
            {
                "standard": [to_us(r[1]) for r in rows],
                "emeralds": [to_us(r[2]) for r in rows],
            },
            title="Section 6.4: semaphore overhead (us), FP queue",
            x_label="queue length",
        ),
    )
    # EMERALDS flat at 29.4 us; standard linear.
    assert {r[2] for r in rows} == {us(29.4)}
    assert rows[-1][1] > rows[0][1]


def fig11_headline_numbers():
    dp_std = measure_pair_overhead("dp", "standard", 15).overhead_ns
    dp_new = measure_pair_overhead("dp", "emeralds", 15).overhead_ns
    fp_std = measure_pair_overhead("fp", "standard", 15).overhead_ns
    fp_new = measure_pair_overhead("fp", "emeralds", 15).overhead_ns
    publish(
        "figure11_headline",
        "\n".join(
            [
                "Section 6.4 headline numbers (paper -> measured):",
                f"  DP std @15:  39.3 us -> {to_us(dp_std):.1f} us",
                f"  DP new @15:  28.3 us -> {to_us(dp_new):.1f} us "
                f"(saving {to_us(dp_std - dp_new):.1f} us = "
                f"{100 * (dp_std - dp_new) / dp_std:.0f}%)",
                f"  FP std @15:  39.8 us -> {to_us(fp_std):.1f} us",
                f"  FP new:      29.4 us -> {to_us(fp_new):.1f} us "
                f"(saving {to_us(fp_std - fp_new):.1f} us = "
                f"{100 * (fp_std - fp_new) / fp_std:.0f}%)",
            ]
        ),
    )
    assert (dp_std - dp_new) == us(11)
    assert (fp_std - fp_new) == us(10.4)


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    figure11_dp_queue()
    figure11_fp_queue()
    fig11_headline_numbers()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
