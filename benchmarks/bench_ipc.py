"""Section 7 (reconstructed): mailbox vs state-message IPC overhead.

The supplied copy of the paper is truncated before Section 7's
evaluation, so this benchmark reconstructs the comparison its design
implies (Sections 1-3 + the journal version's state-message design):
distributing one periodic sensor value to k readers through

* **mailboxes** -- one kernel send per reader plus one kernel receive
  each: two traps and two copies per reader per period; vs
* **a state message** -- one lock-free slot write per period and one
  lock-free read per reader: no kernel traps at all.

Reported: kernel time consumed per distributed value, as a function of
the reader count and of the message size (mailbox copies are per-byte;
state-message slots are fixed).
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program, Recv, Send, StateRead, StateWrite
from repro.timeunits import ms, to_us, us


def run_mailbox(readers: int, size: int, periods: int = 50) -> float:
    """Kernel ns per distributed value using per-reader mailboxes."""
    kernel = Kernel(EDFScheduler(OverheadModel()))
    for i in range(readers):
        kernel.create_mailbox(f"m{i}", capacity=2, max_message_size=max(64, size))
    kernel.create_thread(
        "writer",
        Program([Send(f"m{i}", size=size, payload="v") for i in range(readers)]),
        period=ms(10),
        deadline=ms(2),
    )
    for i in range(readers):
        kernel.create_thread(
            f"reader{i}",
            Program([Recv(f"m{i}"), Compute(us(10))]),
            period=ms(10),
            deadline=ms(5 + i),
        )
    trace = kernel.run_until(ms(10) * periods)
    return _ipc_time(trace) / periods


def run_state_message(readers: int, size: int, periods: int = 50) -> float:
    """Kernel ns per distributed value using one state channel."""
    kernel = Kernel(EDFScheduler(OverheadModel()))
    kernel.create_channel("c", slots=4)
    kernel.create_thread(
        "writer",
        Program([StateWrite("c", value="v")]),
        period=ms(10),
        deadline=ms(2),
    )
    for i in range(readers):
        kernel.create_thread(
            f"reader{i}",
            Program([StateRead("c"), Compute(us(10))]),
            period=ms(10),
            deadline=ms(5 + i),
        )
    trace = kernel.run_until(ms(10) * periods)
    return _ipc_time(trace) / periods


def _ipc_time(trace) -> int:
    """Kernel time attributable to the IPC mechanism itself: copies,
    traps, and slot operations.  Scheduling and context-switch costs
    are common to both designs and excluded."""
    return (
        trace.kernel_time.get("ipc", 0)
        + trace.kernel_time.get("syscall", 0)
        + trace.kernel_time.get("state-msg", 0)
    )


def ipc_vs_reader_count():
    rows = []
    for readers in (1, 2, 4, 8):
        mbox = run_mailbox(readers, size=16)
        state = run_state_message(readers, size=16)
        rows.append(
            [
                readers,
                f"{to_us(round(mbox)):.1f}",
                f"{to_us(round(state)):.1f}",
                f"{mbox / state:.2f}x",
            ]
        )
    publish(
        "ipc_readers",
        format_table(
            ["readers", "mailbox (us/period)", "state msg (us/period)", "ratio"],
            rows,
            title="Reconstructed Sec. 7: kernel time to distribute one 16-byte value",
        ),
    )
    # State messages must win, and the gap must grow with reader count.
    ratios = [float(r[3][:-1]) for r in rows]
    assert all(r > 1.0 for r in ratios)
    assert ratios[-1] > ratios[0]


def ipc_vs_message_size():
    rows = []
    for size in (8, 32, 128, 512):
        mbox = run_mailbox(2, size=size)
        state = run_state_message(2, size=size)
        rows.append([size, f"{to_us(round(mbox)):.1f}", f"{to_us(round(state)):.1f}"])
    publish(
        "ipc_sizes",
        format_table(
            ["bytes", "mailbox (us/period)", "state msg (us/period)"],
            rows,
            title="Reconstructed Sec. 7: per-byte mailbox copies vs fixed-cost slots",
        ),
    )
    mbox_costs = [float(r[1]) for r in rows]
    state_costs = [float(r[2]) for r in rows]
    # Mailbox cost grows with the message size; state messages do not.
    assert mbox_costs[-1] > mbox_costs[0]
    assert state_costs[-1] == state_costs[0]


def state_message_has_no_traps():
    kernel = Kernel(EDFScheduler(OverheadModel()))
    kernel.create_channel("c", slots=4)
    kernel.create_thread(
        "writer", Program([StateWrite("c", value=1)]), period=ms(10),
        deadline=ms(2),
    )
    kernel.create_thread(
        "reader", Program([StateRead("c")]), period=ms(10), deadline=ms(5)
    )
    trace = kernel.run_until(ms(200))
    assert trace.kernel_time.get("syscall", 0) == 0
    assert trace.kernel_time.get("ipc", 0) == 0
    assert trace.kernel_time["state-msg"] > 0


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    ipc_vs_reader_count()
    ipc_vs_message_size()
    state_message_has_no_traps()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
