"""Tests for the fieldbus substrate: frames, arbitration, clusters."""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD, OverheadModel
from repro.kernel.kernel import Kernel
from repro.kernel.program import Call, Compute, Program, Wait
from repro.net import Cluster, Fieldbus, Frame, NetInterface, frame_bits, net_send
from repro.timeunits import ms, us


def zero_kernel():
    return Kernel(EDFScheduler(ZERO_OVERHEAD))


class TestFrame:
    def test_bits(self):
        assert frame_bits(0) == 47
        assert frame_bits(8) == 47 + 64

    def test_payload_bounds(self):
        with pytest.raises(ValueError):
            Frame(can_id=1, size=9)
        with pytest.raises(ValueError):
            Frame(can_id=-1)

    def test_frame_bits_property(self):
        assert Frame(can_id=1, size=4).bits == 47 + 32


class TestFieldbus:
    def test_frame_time_at_1mbps(self):
        bus = Fieldbus(bit_rate_bps=1_000_000)
        # 47 + 64 bits at 1 Mbit/s = 111 us.
        assert bus.frame_time_ns(8) == 111_000
        assert bus.min_frame_time_ns == 47_000

    def test_single_frame_delivery_time(self):
        bus = Fieldbus(1_000_000)
        bus.queue(0, Frame(can_id=5, size=8))
        deliveries = bus.process(horizon=ms(1))
        assert len(deliveries) == 1
        assert deliveries[0].time == 111_000

    def test_priority_arbitration(self):
        """Two frames pending together: the lower id wins the bus."""
        bus = Fieldbus(1_000_000)
        bus.queue(0, Frame(can_id=0x20, size=0))
        bus.queue(0, Frame(can_id=0x10, size=0))
        deliveries = bus.process(horizon=ms(1))
        assert [d.frame.can_id for d in deliveries] == [0x10, 0x20]
        # Second frame starts only after the first completes.
        assert deliveries[1].time == 2 * bus.frame_time_ns(0)

    def test_late_request_does_not_preempt(self):
        """A high-priority frame arriving mid-transmission waits (CAN
        is non-preemptive)."""
        bus = Fieldbus(1_000_000)
        bus.queue(0, Frame(can_id=0x50, size=8))
        bus.queue(1_000, Frame(can_id=0x01, size=0))
        deliveries = bus.process(horizon=ms(1))
        assert [d.frame.can_id for d in deliveries] == [0x50, 0x01]

    def test_horizon_defers_future_work(self):
        bus = Fieldbus(1_000_000)
        bus.queue(ms(5), Frame(can_id=1, size=0))
        assert bus.process(horizon=ms(1)) == []
        assert bus.pending_count == 1
        assert len(bus.process(horizon=ms(6))) == 1

    def test_utilization(self):
        bus = Fieldbus(1_000_000)
        bus.queue(0, Frame(can_id=1, size=8))
        bus.process(horizon=ms(1))
        assert bus.utilization(ms(1)) == pytest.approx(0.111, rel=1e-3)

    def test_arbitration_wait_stat(self):
        bus = Fieldbus(1_000_000)
        bus.queue(0, Frame(can_id=1, size=0))
        bus.queue(0, Frame(can_id=2, size=0))
        bus.process(horizon=ms(1))
        assert bus.total_arbitration_wait_ns == bus.frame_time_ns(0)

    def test_queue_builds_the_carried_frame(self):
        """With a sender, the carried frame is the given one sent by
        that node, not corrupted, with the arbitration sequence number
        as flow even over a flow the caller set; without one, the frame
        is carried as given, its flow stamped only when unset."""
        bus = Fieldbus(1_000_000)
        bus.queue(0, Frame(can_id=1, size=0))
        bus.queue(0, Frame(can_id=2, size=0, flow=77))
        bus.queue(
            0,
            Frame(can_id=3, payload="p", size=3, sender="x", corrupted=True, flow=77),
            sender="a",
        )
        first, second, third = (d.frame for d in bus.process(horizon=ms(1)))
        assert (first.sender, first.corrupted, first.flow) == (None, False, 1)
        assert (second.sender, second.flow) == (None, 77)
        assert (third.can_id, third.payload, third.size) == (3, "p", 3)
        assert (third.sender, third.corrupted, third.flow) == ("a", False, 3)


def make_driver_program(interface, received):
    """A user-level rx driver: wait for the interrupt, then drain the
    queue (the rx event is a binary latch, so back-to-back frames
    coalesce into one wake-up -- drivers must drain)."""

    def pop(kernel, thread):
        while True:
            frame = interface.receive()
            if frame is None:
                break
            received.append((kernel.now, frame.can_id, frame.payload))

    return Program([Wait(interface.rx_event_name), Call(pop)])


class TestCluster:
    def test_two_node_roundtrip(self):
        cluster = Cluster(Fieldbus(1_000_000))
        tx_kernel = zero_kernel()
        rx_kernel = zero_kernel()
        tx_iface = cluster.add_node("tx", tx_kernel)
        rx_iface = cluster.add_node("rx", rx_kernel)

        tx_kernel.create_thread(
            "sender",
            Program([Compute(us(10)), net_send(tx_iface, can_id=0x11, size=4,
                                               payload="hello")]),
            period=ms(10),
            deadline=ms(5),
        )
        received = []
        rx_kernel.create_thread(
            "driver", make_driver_program(rx_iface, received),
            period=ms(10), deadline=ms(9),
        )
        cluster.run_until(ms(30))
        assert len(received) == 3
        time, can_id, payload = received[0]
        assert can_id == 0x11 and payload == "hello"
        # Latency >= wire time of a 4-byte frame (79 us at 1 Mbit/s).
        assert time >= us(10) + 79_000

    def test_net_send_validates_its_frame_when_built(self):
        """net_send builds its one frame with the op, so a bad
        identifier fails there, not at the first send."""
        cluster = Cluster(Fieldbus(1_000_000))
        iface = cluster.add_node("tx", zero_kernel())
        with pytest.raises(ValueError):
            net_send(iface, can_id=-1)

    def test_sender_does_not_hear_itself(self):
        cluster = Cluster(Fieldbus(1_000_000))
        k = zero_kernel()
        iface = cluster.add_node("solo", k)
        k.create_thread(
            "sender", Program([net_send(iface, can_id=1, size=0)]),
            period=ms(10), deadline=ms(5),
        )
        cluster.run_until(ms(20))
        assert iface.frames_received == 0

    def test_acceptance_filter(self):
        cluster = Cluster(Fieldbus(1_000_000))
        tx_kernel, rx_kernel = zero_kernel(), zero_kernel()
        tx_iface = cluster.add_node("tx", tx_kernel)
        rx_iface = cluster.add_node("rx", rx_kernel, accept={0x11})
        tx_kernel.create_thread(
            "sender",
            Program(
                [net_send(tx_iface, can_id=0x11, size=0),
                 net_send(tx_iface, can_id=0x22, size=0)]
            ),
            period=ms(10), deadline=ms(5),
        )
        received = []
        rx_kernel.create_thread(
            "driver", make_driver_program(rx_iface, received),
            period=ms(10), deadline=ms(9),
        )
        cluster.run_until(ms(15))
        assert [r[1] for r in received] == [0x11, 0x11]
        assert rx_iface.frames_filtered == 2

    def test_causality_never_violated(self):
        """Every delivery lands in the receiver's local future."""
        cluster = Cluster(Fieldbus(1_000_000))
        kernels = [zero_kernel() for _ in range(4)]
        ifaces = [cluster.add_node(f"n{i}", k) for i, k in enumerate(kernels)]
        received = []
        for i, (k, iface) in enumerate(zip(kernels, ifaces)):
            k.create_thread(
                "sender",
                Program([Compute(us(7 * (i + 1))),
                         net_send(iface, can_id=0x10 + i, size=2)]),
                period=ms(5), deadline=ms(4),
            )
            k.create_thread(
                "driver", make_driver_program(iface, received),
                period=ms(5), deadline=ms(5),
            )
        cluster.run_until(ms(50))
        assert received  # traffic flowed
        # arrival times strictly positive and reception happened after
        # the frame physically fits on the wire
        assert all(t >= cluster.bus.min_frame_time_ns for t, _, _ in received)

    def test_bus_contention_orders_by_priority(self):
        """Simultaneous periodic frames deliver lowest-id first."""
        cluster = Cluster(Fieldbus(1_000_000))
        kernels = [zero_kernel() for _ in range(3)]
        ids = [0x30, 0x10, 0x20]
        ifaces = []
        for i, k in enumerate(kernels):
            iface = cluster.add_node(f"n{i}", k)
            ifaces.append(iface)
            k.create_thread(
                "sender", Program([net_send(iface, can_id=ids[i], size=0)]),
                period=ms(50), deadline=ms(40),
            )
        listener = zero_kernel()
        listen_iface = cluster.add_node("listener", listener)
        received = []
        def drain(kern, t):
            while True:
                frame = listen_iface.receive()
                if frame is None:
                    break
                received.append(frame.can_id)

        listener.create_thread(
            "driver",
            Program([Wait(listen_iface.rx_event_name), Call(drain)]),
            period=ms(2), deadline=ms(2),
        )
        cluster.run_until(ms(20))
        assert received[:3] == [0x10, 0x20, 0x30]

    def test_node_name_collision(self):
        cluster = Cluster()
        cluster.add_node("a", zero_kernel())
        with pytest.raises(ValueError):
            cluster.add_node("a", zero_kernel())

    def test_run_backwards_rejected(self):
        cluster = Cluster()
        cluster.add_node("a", zero_kernel())
        cluster.run_until(ms(5))
        with pytest.raises(ValueError):
            cluster.run_until(ms(1))

    def test_empty_cluster_advances_time(self):
        cluster = Cluster()
        cluster.run_until(ms(3))
        assert cluster.now == ms(3)

    def test_deadline_violation_aggregation(self):
        cluster = Cluster()
        k = zero_kernel()
        cluster.add_node("n", k)
        k.create_thread("t", Program([Compute(ms(2))]), period=ms(1))
        cluster.run_until(ms(10))
        assert cluster.total_deadline_violations() > 0
