"""Fieldbus characterization: latency vs load on the 1 Mbit/s bus.

Not a paper figure (inter-node protocols are out of the paper's
scope, footnote 1), but the substrate the distributed targets sit on
deserves its own numbers: end-to-end frame latency as bus load grows,
and the priority-protection property -- the highest-priority stream's
latency stays near the wire minimum no matter how much low-priority
traffic contends.
"""

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.kernel.kernel import Kernel
from repro.kernel.program import Call, Compute, Program, Wait
from repro.net import Cluster, Fieldbus, net_send
from repro.timeunits import ms, to_us, us


def run_cluster(background_senders: int, horizon=ms(500)):
    """One high-priority periodic stream plus N contending senders."""
    cluster = Cluster(Fieldbus(1_000_000))
    latencies = []

    # The measured stream: id 0x01, sent every 10 ms, timestamped.
    tx = Kernel(EDFScheduler(ZERO_OVERHEAD))
    tx_iface = cluster.add_node("probe", tx)

    def stamped_send(kern, thread):
        from repro.net import Frame

        tx_iface.transmit(Frame(can_id=0x01, size=8, payload=kern.now))

    tx.create_thread(
        "probe_tx", Program([Call(stamped_send)]), period=ms(10), deadline=ms(9)
    )

    # Background senders: lower priority, heavy periodic traffic.
    for i in range(background_senders):
        k = Kernel(EDFScheduler(ZERO_OVERHEAD))
        iface = cluster.add_node(f"bg{i}", k)
        k.create_thread(
            "noise",
            Program([net_send(iface, can_id=0x100 + i, size=8)] * 4),
            period=ms(5),
            deadline=ms(5),
        )

    rx = Kernel(EDFScheduler(ZERO_OVERHEAD))
    rx_iface = cluster.add_node("sink", rx, accept={0x01})

    def record(kern, thread):
        while True:
            frame = rx_iface.receive()
            if frame is None:
                break
            latencies.append(kern.now - frame.payload)

    rx.create_thread(
        "sink_rx",
        Program([Wait(rx_iface.rx_event_name), Call(record)]),
        period=ms(5),
        deadline=ms(5),
    )
    cluster.run_until(horizon)
    return cluster, latencies


def latency_vs_load():
    rows = []
    for n_bg in (0, 2, 5, 8):
        cluster, latencies = run_cluster(n_bg)
        assert latencies
        rows.append(
            (
                n_bg,
                100 * cluster.bus.utilization(ms(500)),
                min(latencies),
                max(latencies),
            )
        )
    publish(
        "fieldbus_latency",
        format_table(
            ["bg senders", "bus load", "min latency (us)", "max latency (us)"],
            [
                [n, f"{load:.1f}%", f"{to_us(lo):.0f}", f"{to_us(hi):.0f}"]
                for n, load, lo, hi in rows
            ],
            title=(
                "Highest-priority frame latency vs background load "
                "(1 Mbit/s bus; wire time of an 8-byte frame: 111 us)"
            ),
        ),
    )
    wire = 111_000
    # Unloaded: latency == wire time (within the driver's dispatch).
    assert rows[0][2] >= wire
    assert rows[0][3] <= wire + us(200)
    # Under load, the priority stream is delayed by at most one
    # in-flight frame (CAN non-preemption) plus its own wire time.
    for _, load, lo, hi in rows:
        assert hi <= 2 * wire + us(200)
    # Load actually grew across the sweep.
    assert rows[-1][1] > rows[0][1]


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    latency_vs_load()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
