"""Table 3: per-case run-time overheads of CSD-3.

The table gives asymptotic costs for the four block/unblock cases by
queue kind (DP1, DP2, FP) with q = |DP1|, r = |DP1| + |DP2|, n = total.
We regenerate it two ways:

* analytically, from the per-period overhead model used by the
  schedulability analysis (the same Section 5.4 case analysis);
* empirically, by driving a live CSD-3 scheduler and measuring the
  *charged* costs of each primitive, then fitting the slopes in q, r,
  and n to confirm each O(.) entry.
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.csd import CSDScheduler
from repro.core.overhead import OverheadModel
from repro.core.queues import Schedulable
from repro.core.schedulability import csd_overhead_per_period
from repro.timeunits import to_us


def build_csd3(q, r, n):
    """CSD-3 with DP1 = q tasks, DP2 = r - q, FP = n - r; all ready."""
    sched = CSDScheduler(OverheadModel(), dp_queue_count=2)
    entries = []
    for i in range(n):
        band = 0 if i < q else (1 if i < r else 2)
        e = Schedulable(f"t{i}", (i, f"t{i}"))
        e.ready = True
        e.abs_deadline = 10_000_000 + i
        e.csd_queue = band
        sched.add_task(e)
        entries.append(e)
    return sched, entries


def measured_costs(q, r, n):
    """Charged (t_b, t_s after block) for one task of each band."""
    sched, entries = build_csd3(q, r, n)
    out = {}
    for band, index in (("DP1", 0), ("DP2", q), ("FP", r)):
        task = entries[index]
        t_b = sched.on_block(task)
        # Worst-case for DP-task blocks: make every DP queue empty of
        # ready tasks except the one the selector must parse.
        _, t_s = sched.select()
        sched.on_unblock(task)
        out[band] = (t_b, t_s)
    return out


def table3_structure():
    model = OverheadModel()
    rows = []
    sizes = [8, 12, 20]  # q=8, r=20, n=40
    for band, idx, asymptotic in (
        ("DP1", 0, "O(r)"),
        ("DP2", 1, "O(2r - q)"),
        ("FP", 2, "O(n - q)"),
    ):
        per = csd_overhead_per_period(model, sizes, idx)
        rows.append([band, asymptotic, f"{to_us(per):.1f}"])
    publish(
        "table3",
        format_table(
            ["band", "paper total", "per-period overhead (us), q=8 r=20 n=40"],
            rows,
            title="Table 3: CSD-3 per-band scheduling overhead",
        ),
    )


def dp1_block_is_constant_in_n():
    """DP task t_b is O(1): independent of every queue size."""
    small = measured_costs(3, 6, 12)["DP1"][0]
    large = measured_costs(3, 6, 60)["DP1"][0]
    assert small == large


def fp_block_scales_with_fp_queue():
    """FP task t_b is O(n - r): grows with the FP queue only."""
    a = measured_costs(3, 6, 16)["FP"][0]   # fp size 10
    b = measured_costs(3, 6, 26)["FP"][0]   # fp size 20
    assert b - a == 10 * OverheadModel().rm_block_per_task_ns


def selection_parses_first_live_dp_queue():
    """After a DP1 task blocks with DP1 still live, selection parses
    DP1 (O(q)); with DP1 empty it parses DP2 (O(r - q))."""
    model = OverheadModel()
    sched, entries = build_csd3(5, 15, 20)
    # All DP1 ready: block one, selector parses DP1 (len 5).
    sched.on_block(entries[0])
    _, ts_live = sched.select()
    # Now block the rest of DP1: selector must parse DP2 (len 10).
    for e in entries[1:5]:
        sched.on_block(e)
    _, ts_empty = sched.select()
    parse = 3 * model.queue_parse_ns
    assert ts_live == parse + model.edf_select(5)
    assert ts_empty == parse + model.edf_select(10)


def fp_selection_constant_when_no_dp_ready():
    model = OverheadModel()
    sched, entries = build_csd3(2, 4, 30)
    for e in entries[:4]:
        sched.on_block(e)
    _, ts = sched.select()
    assert ts == 3 * model.queue_parse_ns + model.rm_select(26)


def splitting_reduces_dp1_costs():
    """The CSD-3 motivation: splitting the DP queue reduces the
    overhead of the shortest-period tasks (Section 5.5.1)."""
    model = OverheadModel()
    csd2 = csd_overhead_per_period(model, [20, 20], 0)
    csd3 = csd_overhead_per_period(model, [10, 10, 20], 0)
    publish(
        "table3_split_gain",
        f"CSD-2 DP-task per-period overhead (r=20): {to_us(csd2):.1f} us\n"
        f"CSD-3 DP1-task per-period overhead (q=10, r=20): {to_us(csd3):.1f} us",
    )
    assert csd3 < csd2


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    table3_structure()
    dp1_block_is_constant_in_n()
    fp_block_scales_with_fp_queue()
    selection_parses_first_live_dp_queue()
    fp_selection_constant_when_no_dp_ready()
    splitting_reduces_dp1_costs()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
