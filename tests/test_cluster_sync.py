"""Cluster synchronization modes: byte-identity + skipping.

The adaptive conservative synchronization must be a pure
optimization: for any workload, seed, fault pattern, and chunking of
``run_until``, the full-record traces, delivery timelines, membership
transitions, and bus/interface statistics must be byte-identical to
the lockstep reference -- while adaptive actually skips the quantum
loop whenever the cluster is provably silent.
"""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.kernel.kernel import Kernel
from repro.kernel.program import Call, Compute, Program, Wait
from repro.net import Cluster, Fieldbus, HeartbeatMonitor, net_send
from repro.net.cluster import SYNC_MODES
from repro.timeunits import ms, us


def zero_kernel():
    return Kernel(EDFScheduler(ZERO_OVERHEAD))


def _snapshot(cluster):
    """Everything that must match between sync modes."""
    bus = cluster.bus
    return {
        "traces": cluster.trace_signatures(include_segments=True),
        "timelines": {
            name: tuple(timeline)
            for name, timeline in cluster.rx_timelines().items()
        },
        "bus": (
            bus.frames_delivered,
            bus.frames_dropped,
            bus.frames_corrupted,
            bus.frames_retransmitted,
            bus.error_frames,
            bus.bits_carried,
            bus.total_arbitration_wait_ns,
        ),
        "interfaces": cluster.interface_stats(),
    }


def _traffic_cluster(sync, seed, dependability=False, fault=False, nodes=4):
    """Mixed periodic senders + driver threads, seed-varied periods."""
    import random

    rng = random.Random(seed)
    cluster = Cluster(Fieldbus(1_000_000), sync=sync)
    if dependability:
        cluster.enable_dependability(4)
    if fault:
        frng = random.Random(seed + 999)

        def hook(start, frame):
            r = frng.random()
            if r < 0.08:
                return "drop"
            if r < 0.16:
                return "corrupt"
            return "ok"

        cluster.bus.fault_hook = hook
    for i in range(nodes):
        kernel = zero_kernel()
        name = f"n{i}"
        # Alternate filtered and promiscuous receivers.
        accept = {0x100 + (i + 1) % nodes} if i % 2 == 0 else None
        iface = cluster.add_node(name, kernel, accept=accept)
        iface.rx_timeline = []
        period = rng.choice([ms(3), ms(5), ms(7)])
        kernel.create_thread(
            f"tx{i}",
            Program([
                Compute(us(10)),
                net_send(iface, can_id=0x100 + i, size=8),
            ]),
            period=period,
            deadline=period,
        )

        def drain(kern, t, iface=iface):
            while True:
                frame = iface.receive()
                if frame is None:
                    break
                iface.rx_timeline.append((kern.now, frame.can_id, frame.sender))

        kernel.create_thread(
            f"rx{i}",
            Program([Wait(iface.rx_event_name), Call(drain)]),
            period=ms(2),
            deadline=ms(2),
        )
    return cluster


class TestByteIdentity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dependability,fault", [
        (False, False), (False, True), (True, True),
    ])
    def test_full_traces_and_timelines_identical(self, seed, dependability, fault):
        """Multi-seed property: adaptive == lockstep byte for byte,
        even with faults on the wire, error confinement armed, and the
        horizon reached in uneven chunks."""
        snapshots = {}
        for sync in SYNC_MODES:
            cluster = _traffic_cluster(
                sync, seed, dependability=dependability, fault=fault
            )
            for t in (ms(13), ms(31), ms(40)):
                cluster.run_until(t)
            snapshots[sync] = _snapshot(cluster)
        assert snapshots["adaptive"] == snapshots["lockstep"]

    def test_membership_timeline_identical(self):
        """Heartbeat membership (crash + restart rejoin) transitions at
        identical instants under both sync modes."""
        results = {}
        for sync in SYNC_MODES:
            cluster = Cluster(sync=sync)
            for i in range(3):
                cluster.add_node(f"n{i}", zero_kernel())
            monitor = HeartbeatMonitor(cluster, period=ms(10))
            victim = cluster.nodes["n2"]
            victim.set_restart_policy(
                "hb-tx:n2", max_restarts=1, backoff_ns=ms(30)
            )
            victim.schedule_event(
                ms(35), lambda: victim.crash_thread("hb-tx:n2", "test"),
                label="silence",
            )
            cluster.run_until(ms(160))
            results[sync] = {
                "events": list(monitor.events),
                "views": {n: monitor.view(n) for n in cluster.nodes},
                "traces": cluster.trace_signatures(include_segments=True),
            }
        assert results["adaptive"] == results["lockstep"]
        assert results["adaptive"]["events"]  # the crash was observed


class TestAdaptiveSkipping:
    def test_quiescent_cluster_is_one_round(self):
        """No threads, no traffic: the window loop collapses entirely."""
        cluster = Cluster()
        for i in range(3):
            cluster.add_node(f"n{i}", zero_kernel())
        cluster.run_until(ms(100))
        assert cluster.sync_rounds == 1
        quantum = cluster.bus.min_frame_time_ns
        assert cluster.windows_skipped == (ms(100) - 1) // quantum
        assert all(k.now == ms(100) for k in cluster.nodes.values())

    def test_sparse_traffic_skips_most_windows(self):
        """A single slow sender: rounds scale with events, not with
        horizon / quantum, and the popped-event budget stays bounded."""
        cluster = Cluster()
        tx = zero_kernel()
        rx = zero_kernel()
        tx_iface = cluster.add_node("tx", tx)
        cluster.add_node("rx", rx)
        tx.create_thread(
            "sender",
            Program([net_send(tx_iface, can_id=0x10, size=0)]),
            period=ms(20), deadline=ms(10),
        )
        cluster.run_until(ms(100))
        lockstep_rounds = -(-ms(100) // cluster.bus.min_frame_time_ns)
        # 5 jobs on a 2128-window horizon: a handful of rounds each.
        assert cluster.sync_rounds < lockstep_rounds / 20
        assert cluster.windows_skipped > lockstep_rounds * 0.9
        popped = sum(k.events_popped for k in cluster.nodes.values())
        assert popped < 60  # release + deadline + delivery events only

    def test_lockstep_reference_walks_every_window(self):
        cluster = Cluster(sync="lockstep")
        cluster.add_node("n0", zero_kernel())
        cluster.run_until(ms(10))
        quantum = cluster.bus.min_frame_time_ns
        assert cluster.sync_rounds == -(-ms(10) // quantum)
        assert cluster.windows_skipped == 0


class TestDeliveryPrefilter:
    def _ring(self, sync):
        cluster = Cluster(Fieldbus(1_000_000), sync=sync)
        for i in range(4):
            kernel = zero_kernel()
            iface = cluster.add_node(
                f"n{i}", kernel, accept={0x100 + (i - 1) % 4}
            )
            iface.rx_timeline = []
            kernel.create_thread(
                f"tx{i}",
                Program([net_send(iface, can_id=0x100 + i, size=4)]),
                period=ms(5), deadline=ms(5),
            )

            def drain(kern, t, iface=iface):
                while True:
                    frame = iface.receive()
                    if frame is None:
                        break
                    iface.rx_timeline.append((kern.now, frame.can_id))

            kernel.create_thread(
                f"rx{i}",
                Program([Wait(iface.rx_event_name), Call(drain)]),
                period=ms(5), deadline=ms(5),
            )
        return cluster

    def test_prefilter_keeps_deliver_stats_unchanged(self):
        """The adaptive mode suppresses filter-rejected delivery events
        at schedule time; every ``NetInterface.deliver`` statistic must
        still match the reference that delivers to everyone."""
        snaps = {}
        suppressed = {}
        for sync in SYNC_MODES:
            cluster = self._ring(sync)
            cluster.run_until(ms(25))
            snaps[sync] = _snapshot(cluster)
            suppressed[sync] = cluster.deliveries_suppressed
        assert snaps["adaptive"] == snaps["lockstep"]
        # The ring has 2 disinterested receivers per frame; adaptive
        # never scheduled those events, lockstep did.
        assert suppressed["adaptive"] > 0
        assert suppressed["lockstep"] == 0

    def test_widened_filter_reroutes_later_deliveries(self):
        """Filters are fixed only while the cluster runs: a filter
        widened between two ``run_until`` calls takes the frames it
        rejected before, in both sync modes alike."""
        snaps = {}
        for sync in SYNC_MODES:
            cluster = self._ring(sync)
            cluster.run_until(ms(12))
            # n2 hears its predecessor n1 (0x101); now n0 (0x100) too.
            cluster.interfaces["n2"].accept.add(0x100)
            cluster.run_until(ms(25))
            snaps[sync] = _snapshot(cluster)
        assert snaps["adaptive"] == snaps["lockstep"]
        heard = snaps["adaptive"]["timelines"]["n2"]
        assert {can_id for t, can_id in heard if t < ms(12)} == {0x101}
        assert {can_id for t, can_id in heard if t > ms(12)} == {0x100, 0x101}

    def test_in_flight_frame_stats_are_not_counted_early(self):
        """A frame still on the wire at t_end must not have bumped any
        receiver's ``frames_filtered`` yet (the reference's no-op
        deliver event has not fired either)."""
        observed = {}
        for sync in SYNC_MODES:
            cluster = Cluster(Fieldbus(1_000_000), sync=sync)
            tx = zero_kernel()
            rx = zero_kernel()
            tx_iface = cluster.add_node("tx", tx)
            cluster.add_node("rx", rx, accept={0x999})
            tx.create_thread(
                "sender",
                Program([net_send(tx_iface, can_id=0x11, size=8)]),
                period=ms(10), deadline=ms(10),
            )
            # An 8-byte frame takes 111 us on the wire: at t = 50 us it
            # has started but not completed.
            cluster.run_until(us(50))
            mid = cluster.interface_stats()["rx"]["frames_filtered"]
            cluster.run_until(ms(1))
            observed[sync] = (
                mid, cluster.interface_stats()["rx"]["frames_filtered"]
            )
        assert observed["adaptive"] == observed["lockstep"]
        assert observed["adaptive"] == (0, 1)


class TestGuards:
    def test_zero_min_frame_time_rejected(self):
        """A bus so fast the smallest frame rounds to zero wire time
        gives the conservative sync no lookahead: clear error, not an
        infinite loop."""
        bus = Fieldbus(bit_rate_bps=200_000_000_000)
        assert bus.min_frame_time_ns == 0
        cluster = Cluster(bus)
        cluster.add_node("n0", zero_kernel())
        with pytest.raises(ValueError, match="min_frame_time_ns"):
            cluster.run_until(ms(1))

    def test_unknown_sync_mode_rejected(self):
        for sync in ("bogus", "parallel"):
            with pytest.raises(ValueError, match="sync mode"):
                Cluster(sync=sync)

    def test_adaptive_is_the_default(self):
        assert Cluster().sync == "adaptive"
        assert Cluster(sync="lockstep").sync == "lockstep"

    def test_empty_cluster_still_advances(self):
        cluster = Cluster()
        cluster.run_until(ms(5))
        assert cluster.now == ms(5)

    def test_rerun_to_same_instant_is_a_noop(self):
        for sync in SYNC_MODES:
            cluster = _traffic_cluster(sync, 2)
            cluster.run_until(ms(15))
            rounds = cluster.sync_rounds
            before = _snapshot(cluster)
            cluster.run_until(ms(15))
            assert cluster.sync_rounds == rounds, sync
            assert _snapshot(cluster) == before, sync
