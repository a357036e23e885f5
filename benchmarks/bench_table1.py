"""Table 1: run-time overheads of the scheduler primitives.

Regenerates the table (``t_b``, ``t_u``, ``t_s`` for the EDF unsorted
queue, the RM sorted queue, and the RM heap, as functions of the queue
length) from the cost model -- which *is* the paper's table, charged by
the simulated kernel -- and checks the scan counts of the real Python
queue structures, confirming the complexity classes behind the EDF and
RM formulas (O(1) flag flips, O(n) scans).
"""

import math

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.overhead import OverheadModel
from repro.core.queues import Schedulable, SortedQueue, UnsortedQueue
from repro.timeunits import to_us


def make_entries(n, ready=True):
    entries = []
    for i in range(n):
        e = Schedulable(f"t{i}", (i, f"t{i}"))
        e.ready = ready
        e.abs_deadline = 1_000_000 + i
        entries.append(e)
    return entries


def table1_model():
    """Print the Table 1 formulas evaluated at representative n."""
    model = OverheadModel()
    rows = []
    for n in (5, 10, 15, 25, 40, 58):
        rows.append(
            [
                n,
                f"{to_us(model.edf_block(n)):.2f}",
                f"{to_us(model.edf_unblock(n)):.2f}",
                f"{to_us(model.edf_select(n)):.2f}",
                f"{to_us(model.rm_block(n)):.2f}",
                f"{to_us(model.rm_unblock(n)):.2f}",
                f"{to_us(model.rm_select(n)):.2f}",
                f"{to_us(model.heap_block(n)):.2f}",
                f"{to_us(model.heap_unblock(n)):.2f}",
                f"{to_us(model.heap_select(n)):.2f}",
            ]
        )
    table = format_table(
        [
            "n",
            "EDF t_b",
            "EDF t_u",
            "EDF t_s",
            "RM t_b",
            "RM t_u",
            "RM t_s",
            "heap t_b",
            "heap t_u",
            "heap t_s",
        ],
        rows,
        title="Table 1: scheduler primitive overheads (us; paper's MC68040 model)",
    )
    publish("table1", table)

    # Paper-exact spot checks.
    assert math.isclose(to_us(model.edf_select(15)), 1.2 + 0.25 * 15)
    assert math.isclose(to_us(model.rm_block(15)), 1.0 + 0.36 * 15)


def table1_heap_crossover():
    """Table 1's discussion: the heap only beats the sorted queue for
    very large n (58 on the paper's hardware)."""
    model = OverheadModel()
    for n in range(2, 200):
        queue = model.rm_block(n) + model.rm_unblock(n) + 2 * model.rm_select(n)
        heap = model.heap_block(n) + model.heap_unblock(n) + 2 * model.heap_select(n)
        if heap < queue:
            break
    else:
        n = None
    publish(
        "table1_crossover",
        f"heap implementation first beats the sorted queue at n = {n} "
        f"(paper: n = 58)",
    )
    assert n is not None
    assert 40 <= n <= 70


def edf_queue_ops_are_constant():
    """EDF block/unblock are O(1) in the real structure."""
    q = UnsortedQueue()
    entries = make_entries(50)
    for e in entries:
        q.add(e)
    q.block(entries[25])
    q.unblock(entries[25])
    assert q.last_scan_steps == 1


def edf_select_scales_linearly():
    """The EDF select really scans all n tasks."""
    q = UnsortedQueue()
    for e in make_entries(50):
        q.add(e)
    q.select()
    assert q.last_scan_steps == 50


def rm_select_is_constant():
    q = SortedQueue()
    for e in make_entries(50):
        q.add(e)
    q.select()
    assert q.last_scan_steps == 1


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    table1_model()
    table1_heap_crossover()
    edf_queue_ops_are_constant()
    edf_select_scales_linearly()
    rm_select_is_constant()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
