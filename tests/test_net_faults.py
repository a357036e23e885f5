"""Tests for the fieldbus dependability layer: CAN error confinement,
bounded retransmission, heap arbitration equivalence, rx bounds,
replica freshness, heartbeat membership, and the network chaos
harness."""

import random

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.faults.chaos import run_net_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import Fault, FaultPlan
from repro.kernel.kernel import Kernel
from repro.kernel.program import Call, Program
from repro.net import (
    BUS_OFF,
    ERROR_ACTIVE,
    ERROR_PASSIVE,
    CanErrorState,
    Cluster,
    Fieldbus,
    Frame,
    GlobalStateChannel,
    HeartbeatMonitor,
    MessageStream,
    bus_response_times,
)
from repro.net.depend import populate_net_registry
from repro.net.errorstate import (
    BUS_OFF_RECOVERY_BITS,
    SUSPEND_TRANSMISSION_BITS,
)
from repro.net.frame import ERROR_FRAME_BITS, frame_bits
from repro.obs.metrics import MetricsRegistry
from repro.timeunits import ms, us


def zero_kernel():
    return Kernel(EDFScheduler(ZERO_OVERHEAD))


def notes(trace, kind):
    return [(t, d) for (t, k, d) in trace.events if k == kind]


BIT = 1_000  # ns per bit at 1 Mbit/s


# ----------------------------------------------------------------------
# CAN error state machine
# ----------------------------------------------------------------------
class TestCanErrorState:
    def test_starts_error_active(self):
        state = CanErrorState("n", BIT)
        assert state.state == ERROR_ACTIVE
        assert state.severity == 0

    def test_tx_errors_reach_error_passive(self):
        state = CanErrorState("n", BIT)
        for _ in range(16):  # 16 * 8 = 128
            state.on_tx_error(0)
        assert state.state == ERROR_PASSIVE
        assert state.tec == 128

    def test_success_decrements_and_recovers_active(self):
        state = CanErrorState("n", BIT)
        for _ in range(16):
            state.on_tx_error(0)
        state.on_tx_success(1)
        assert state.tec == 127
        assert state.state == ERROR_ACTIVE

    def test_rec_drives_error_passive_too(self):
        state = CanErrorState("n", BIT)
        for _ in range(128):
            state.on_rx_error(0)
        assert state.state == ERROR_PASSIVE
        state.on_rx_success(1)
        assert state.state == ERROR_ACTIVE

    def test_bus_off_at_256_and_deterministic_recovery(self):
        state = CanErrorState("n", BIT)
        for _ in range(32):  # 32 * 8 = 256
            state.on_tx_error(100)
        assert state.state == BUS_OFF
        assert state.bus_off_events == 1
        expected = 100 + BUS_OFF_RECOVERY_BITS * BIT
        assert state.bus_off_until == expected
        # Nothing but maybe_recover leaves bus-off.
        state.on_tx_success(expected - 1)
        assert state.state == BUS_OFF
        assert not state.maybe_recover(expected - 1)
        assert state.maybe_recover(expected)
        assert state.state == ERROR_ACTIVE
        assert state.tec == 0 and state.rec == 0

    def test_transitions_are_logged_in_order(self):
        state = CanErrorState("n", BIT)
        for i in range(32):
            state.on_tx_error(i)
        kinds = [s for _, s in state.transitions]
        assert kinds == [ERROR_PASSIVE, BUS_OFF]
        times = [t for t, _ in state.transitions]
        assert times == sorted(times)


# ----------------------------------------------------------------------
# fault_hook verdict validation (satellite b)
# ----------------------------------------------------------------------
class TestVerdictValidation:
    def test_unknown_verdict_raises_with_allowed_list(self):
        bus = Fieldbus(1_000_000)
        bus.fault_hook = lambda start, frame: "mangle"
        bus.queue(0, Frame(can_id=1, size=0))
        with pytest.raises(ValueError) as err:
            bus.process(ms(1))
        message = str(err.value)
        assert "mangle" in message
        for verdict in ("ok", "drop", "corrupt"):
            assert verdict in message

    def test_none_verdict_raises(self):
        bus = Fieldbus(1_000_000)
        bus.fault_hook = lambda start, frame: None
        bus.queue(0, Frame(can_id=1, size=0))
        with pytest.raises(ValueError):
            bus.process(ms(1))


# ----------------------------------------------------------------------
# heap arbitration vs the O(n^2) reference (satellite c)
# ----------------------------------------------------------------------
def reference_arbitrate(requests, bit_rate_bps, horizons):
    """The seed implementation: min-scan over a list + list.remove."""
    pending = list(requests)
    busy_until = 0
    deliveries = []
    for horizon in horizons:
        while pending:
            earliest = min(r.time for r in pending)
            start = max(earliest, busy_until)
            if start > horizon:
                break
            candidates = [r for r in pending if r.time <= start]
            winner = min(
                candidates, key=lambda r: (r.frame.can_id, r.sequence)
            )
            pending.remove(winner)
            duration = frame_bits(winner.frame.size) * 1_000_000_000 // bit_rate_bps
            completion = start + duration
            busy_until = completion
            deliveries.append((completion, winner.frame.can_id, winner.frame.sender))
    return deliveries


class TestHeapArbitrationEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_delivery_order_matches_reference(self, seed):
        rng = random.Random(f"heap-arb:{seed}")
        bus = Fieldbus(1_000_000)
        for _ in range(200):
            frame = Frame(
                can_id=rng.randrange(0x800),
                size=rng.randrange(9),
                sender=f"n{rng.randrange(5)}",
            )
            bus.queue(rng.randrange(ms(50)), frame)
        requests = [r for _, _, r in bus._future]
        # Process in chunks so ready-carryover across calls is covered.
        horizons = [ms(10), ms(25), ms(200)]
        got = []
        for horizon in horizons:
            got.extend(
                (d.time, d.frame.can_id, d.frame.sender)
                for d in bus.process(horizon)
            )
        expected = reference_arbitrate(requests, 1_000_000, horizons)
        assert got == expected
        assert bus.pending_count == 0


# ----------------------------------------------------------------------
# bounded retransmission + error frames + bus-off deferral
# ----------------------------------------------------------------------
class TestRetransmission:
    def _dropping_bus(self, drops, max_retransmits=8):
        """A dependable bus whose hook drops the first ``drops`` wins."""
        bus = Fieldbus(1_000_000).enable_dependability(max_retransmits)
        remaining = {"n": drops}

        def hook(start, frame):
            if remaining["n"] > 0:
                remaining["n"] -= 1
                return "drop"
            return "ok"

        bus.fault_hook = hook
        return bus

    def test_dropped_frame_is_retransmitted_and_delivered(self):
        bus = self._dropping_bus(drops=1)
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        deliveries = bus.process(ms(1))
        assert len(deliveries) == 1
        assert bus.frames_retransmitted == 1
        assert bus.error_frames == 1
        # first attempt + error frame + retry
        frame_t = bus.frame_time_ns(0)
        assert deliveries[0].time == 2 * frame_t + bus.error_frame_time_ns

    def test_error_frame_occupies_the_wire(self):
        bus = self._dropping_bus(drops=1)
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        bus.process(ms(1))
        assert bus.bits_carried == 2 * frame_bits(0) + ERROR_FRAME_BITS

    def test_retransmits_exhausted_after_bound(self):
        bus = self._dropping_bus(drops=100, max_retransmits=3)
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        deliveries = bus.process(ms(5))
        assert deliveries == []
        assert bus.frames_retransmitted == 3
        assert bus.retransmits_exhausted == 1
        assert bus.frames_dropped == 4  # initial attempt + 3 retries

    def test_zero_bound_never_retries(self):
        bus = self._dropping_bus(drops=100, max_retransmits=0)
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        assert bus.process(ms(5)) == []
        assert bus.frames_retransmitted == 0
        assert bus.retransmits_exhausted == 0

    def test_error_passive_sender_suspends_transmission(self):
        bus = Fieldbus(1_000_000).enable_dependability(8)
        state = bus.error_state("a")
        state.tec = 128
        state._update(0)
        assert state.state == ERROR_PASSIVE
        drops = {"n": 1}

        def hook(start, frame):
            if drops["n"]:
                drops["n"] -= 1
                return "drop"
            return "ok"

        bus.fault_hook = hook
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        deliveries = bus.process(ms(1))
        frame_t = bus.frame_time_ns(0)
        suspend = SUSPEND_TRANSMISSION_BITS * bus.bit_time_ns
        assert deliveries[0].time == (
            2 * frame_t + bus.error_frame_time_ns + suspend
        )

    def test_bus_off_sender_traffic_deferred_until_recovery(self):
        bus = Fieldbus(1_000_000).enable_dependability(0)
        state = bus.error_state("a")
        for _ in range(32):
            state.on_tx_error(0)
        assert state.bus_off
        recovery = state.bus_off_until
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        assert bus.process(recovery - 1) == []
        assert bus.frames_deferred_bus_off == 1
        deliveries = bus.process(recovery + ms(1))
        assert len(deliveries) == 1
        assert deliveries[0].time == recovery + bus.frame_time_ns(0)
        assert bus.error_state("a").state == ERROR_ACTIVE

    def test_healthy_sender_overtakes_deferred_bus_off_traffic(self):
        bus = Fieldbus(1_000_000).enable_dependability(0)
        state = bus.error_state("a")
        for _ in range(32):
            state.on_tx_error(0)
        recovery = state.bus_off_until
        bus.queue(0, Frame(can_id=1, size=0, sender="a"))
        bus.queue(0, Frame(can_id=9, size=0, sender="b"))
        deliveries = bus.process(ms(2))
        # b's lower-priority frame goes first (a is off the bus); a's
        # deferred frame follows only once the recovery window elapses.
        assert [d.frame.sender for d in deliveries] == ["b", "a"]
        assert deliveries[1].time >= recovery

    def test_disarmed_bus_matches_seed_behavior(self):
        """With the layer disarmed a drop burns only the frame time --
        the exact seed semantics the PR-1 tests pinned."""
        bus = Fieldbus(1_000_000)
        bus.fault_hook = lambda start, frame: (
            "drop" if start == 0 else "ok"
        )
        bus.queue(0, Frame(can_id=1, size=0))
        bus.queue(0, Frame(can_id=2, size=0))
        deliveries = bus.process(ms(1))
        assert len(deliveries) == 1
        assert deliveries[0].time == 2 * bus.frame_time_ns(0)
        assert bus.error_frames == 0 and bus.frames_retransmitted == 0


# ----------------------------------------------------------------------
# rx bounds + CRC-drop path (satellites a and d)
# ----------------------------------------------------------------------
class TestReceivePath:
    def _pair(self, rx_capacity=64, accept=None, dependability=False):
        cluster = Cluster()
        cluster.add_node("tx", zero_kernel())
        cluster.add_node(
            "rx", zero_kernel(), accept=accept, rx_capacity=rx_capacity
        )
        if dependability:
            # Zero retry bound: these tests pin the receive path itself,
            # not the retransmission loop layered on top of it.
            cluster.enable_dependability(max_retransmits=0)
        return cluster

    def test_rx_capacity_must_be_positive(self):
        cluster = Cluster()
        with pytest.raises(ValueError):
            cluster.add_node("n", zero_kernel(), rx_capacity=0)

    def test_overflow_drops_and_counts(self):
        cluster = self._pair(rx_capacity=2)
        rx = cluster.interfaces["rx"]
        # No driver drains rx_queue, so the third delivery overflows.
        for i in range(4):
            cluster.interfaces["tx"].transmit(Frame(can_id=0x10 + i, size=0))
        cluster.run_until(ms(2))
        kernel = cluster.nodes["rx"]
        assert rx.rx_overflowed == 2
        assert len(rx.rx_queue) + len(rx._incoming) == 2
        overflow_notes = notes(kernel.trace, "rx-overflow")
        assert len(overflow_notes) == 2
        assert "rx" in overflow_notes[0][1]

    def test_unbounded_capacity_still_available(self):
        cluster = self._pair(rx_capacity=None)
        for i in range(100):
            cluster.interfaces["tx"].transmit(Frame(can_id=0x10, size=0))
        cluster.run_until(ms(10))
        assert cluster.interfaces["rx"].rx_overflowed == 0

    def test_corrupted_frame_dropped_before_filter_no_interrupt(self):
        """CRC-drop path: counter bumps, trace notes, no interrupt, and
        the REC rises even when the id would have been filtered."""
        cluster = self._pair(accept=[0x99], dependability=True)
        rx = cluster.interfaces["rx"]
        kernel = cluster.nodes["rx"]
        cluster.bus.fault_hook = lambda start, frame: "corrupt"
        # 0x10 is not in rx's acceptance set -- CRC still runs first.
        cluster.interfaces["tx"].transmit(Frame(can_id=0x10, size=0))
        cluster.run_until(ms(2))
        assert rx.frames_crc_dropped == 1
        assert rx.frames_filtered == 0
        assert rx.frames_received == 0
        assert len(rx.rx_queue) == 0 and len(rx._incoming) == 0
        crc_notes = notes(kernel.trace, "frame-crc-dropped")
        assert len(crc_notes) == 1
        assert cluster.bus.error_state("rx").rec == 1
        # The tx side took the TEC hit for the corrupted transmission.
        assert cluster.bus.error_state("tx").tec == 8

    def test_clean_frame_decrements_rec(self):
        cluster = self._pair(dependability=True)
        state = cluster.bus.error_state("rx")
        state.rec = 5
        cluster.interfaces["tx"].transmit(Frame(can_id=0x10, size=0))
        cluster.run_until(ms(2))
        assert state.rec == 4

    def test_crc_drop_under_seeded_fault_plan(self):
        """Satellite d: the FaultInjector's frame_corrupt faults land on
        the CRC-drop path and interact correctly with filters."""
        cluster = self._pair(accept=[0x10], dependability=True)
        kernel = cluster.nodes["tx"]
        plan = FaultPlan(
            (
                Fault(time=0, kind="frame_corrupt"),
                Fault(time=ms(1), kind="frame_drop"),
            )
        )
        FaultInjector(kernel, plan, bus=cluster.bus).install()
        tx = cluster.interfaces["tx"]
        for i in range(3):
            kernel.schedule_event(
                i * ms(1),
                lambda: tx.transmit(Frame(can_id=0x10, size=0)),
                label="tx",
            )
        cluster.run_until(ms(5))
        rx = cluster.interfaces["rx"]
        assert rx.frames_crc_dropped == 1  # the corrupt fault
        assert cluster.bus.frames_dropped >= 1  # the drop fault
        assert rx.frames_received == 1  # only the clean third frame


# ----------------------------------------------------------------------
# replica sequencing + freshness
# ----------------------------------------------------------------------
def _publishing_cluster(
    nodes=3,
    publish_period=ms(10),
    stop_at=None,
    resume_at=None,
    **channel_kwargs,
):
    cluster = Cluster()
    names = [f"n{i}" for i in range(nodes)]
    for name in names:
        cluster.add_node(name, zero_kernel())
    channel = GlobalStateChannel(
        cluster, "t", can_id=0x10, writer_node="n0",
        driver_period=publish_period, **channel_kwargs,
    )

    def pub(kern, thread):
        if stop_at is not None and stop_at <= kern.now < (resume_at or 2**62):
            return
        channel.publish(kern, thread, kern.now)

    cluster.nodes["n0"].create_thread(
        "pub", Program([Call(pub)]), period=publish_period,
        deadline=publish_period,
    )
    return cluster, channel


class TestReplicaFreshness:
    def test_sequenced_updates_and_latency(self):
        cluster, channel = _publishing_cluster(sequenced=True)
        cluster.run_until(ms(100))
        status = channel.status("n1")
        assert status.updates > 5
        assert status.gaps == 0 and status.duplicates == 0
        assert 0 < status.latency_max_ns <= ms(11)
        # The replica converged on the writer's last published value.
        assert channel.local_channel("n1").read() is not None

    def test_unsequenced_channel_has_no_status(self):
        cluster, channel = _publishing_cluster()
        cluster.run_until(ms(50))
        assert not channel.sequenced
        assert channel.status_by_node == {}

    def test_gap_detection_on_dropped_frame(self):
        cluster, channel = _publishing_cluster(sequenced=True)
        dropped = {"n": 0}

        def hook(start, frame):
            # Drop exactly the third bus frame.
            dropped["n"] += 1
            return "drop" if dropped["n"] == 3 else "ok"

        cluster.bus.fault_hook = hook
        cluster.run_until(ms(100))
        status = channel.status("n1")
        assert status.gaps == 1
        assert notes(cluster.nodes["n1"].trace, "gs-seq-gap")

    def test_duplicates_are_discarded(self):
        cluster, channel = _publishing_cluster(sequenced=True)
        cluster.run_until(ms(50))
        # Replay sequence 1 from the writer interface.
        cluster.interfaces["n0"].kernel.schedule_event(
            ms(50),
            lambda: cluster.interfaces["n0"].transmit(
                Frame(can_id=0x10, payload=(1, 0, "old"), size=8)
            ),
            label="replay",
        )
        before = channel.local_channel("n1").read()
        cluster.run_until(ms(80))
        status = channel.status("n1")
        assert status.duplicates == 1
        assert channel.local_channel("n1").read() != "old"

    def test_freshness_hold_policy(self):
        cluster, channel = _publishing_cluster(
            stop_at=ms(100), freshness_ns=ms(30), stale_policy="hold",
        )
        cluster.run_until(ms(200))
        status = channel.status("n1")
        assert status.stale
        assert status.stale_count == 1
        assert status.staleness_max_ns > ms(30)
        # hold: the last good value stays readable
        assert channel.local_channel("n1").read() is not None
        assert notes(cluster.nodes["n1"].trace, "gs-stale")

    def test_freshness_invalidate_policy_and_callback(self):
        seen = []
        cluster, channel = _publishing_cluster(
            stop_at=ms(100), freshness_ns=ms(30), stale_policy="invalidate",
            on_stale=lambda node, status: seen.append(node),
        )
        cluster.run_until(ms(200))
        assert channel.status("n1").stale
        assert channel.local_channel("n1").read() is None
        assert sorted(seen) == ["n1", "n2"]

    def test_resync_after_stale_episode(self):
        cluster, channel = _publishing_cluster(
            stop_at=ms(100), resume_at=ms(160), freshness_ns=ms(30),
        )
        cluster.run_until(ms(300))
        status = channel.status("n1")
        assert status.stale_count == 1
        assert status.resyncs == 1
        assert not status.stale
        assert notes(cluster.nodes["n1"].trace, "gs-resync")

    def test_stale_policy_validated(self):
        cluster = Cluster()
        cluster.add_node("n0", zero_kernel())
        cluster.add_node("n1", zero_kernel())
        with pytest.raises(ValueError):
            GlobalStateChannel(
                cluster, "t", can_id=0x10, writer_node="n0",
                freshness_ns=ms(10), stale_policy="explode",
            )


# ----------------------------------------------------------------------
# heartbeat membership
# ----------------------------------------------------------------------
def _hb_cluster(nodes=3, period=ms(10), **kwargs):
    cluster = Cluster()
    for i in range(nodes):
        cluster.add_node(f"n{i}", zero_kernel())
    monitor = HeartbeatMonitor(cluster, period=period, **kwargs)
    return cluster, monitor


class TestMembership:
    def test_all_alive_no_transitions(self):
        cluster, monitor = _hb_cluster()
        cluster.run_until(ms(100))
        assert monitor.events == []
        assert monitor.view("n0") == {"n1": True, "n2": True}

    def test_silenced_node_detected_within_two_periods(self):
        period = ms(10)
        cluster, monitor = _hb_cluster(period=period)
        victim = cluster.nodes["n2"]
        crash_at = ms(50)
        victim.schedule_event(
            crash_at, lambda: victim.crash_thread("hb-tx:n2", "test"),
            label="silence",
        )
        cluster.run_until(ms(120))
        downs = [e for e in monitor.events if e[2] == "n2" and e[3] == "down"]
        assert {e[1] for e in downs} == {"n0", "n1"}
        for time, _observer, _peer, _status in downs:
            assert time <= crash_at + 2 * period + monitor.watch_period
        assert monitor.view("n0")["n2"] is False
        assert notes(cluster.nodes["n0"].trace, "membership-down")

    def test_membership_deterministic_across_runs(self):
        def run():
            cluster, monitor = _hb_cluster()
            victim = cluster.nodes["n1"]
            victim.schedule_event(
                ms(40), lambda: victim.crash_thread("hb-tx:n1", "test"),
                label="silence",
            )
            cluster.run_until(ms(150))
            return tuple(monitor.events)

        assert run() == run()

    def test_rejoin_marks_node_up_again(self):
        cluster, monitor = _hb_cluster()
        victim = cluster.nodes["n2"]
        victim.set_restart_policy("hb-tx:n2", max_restarts=1, backoff_ns=ms(30))
        victim.schedule_event(
            ms(50), lambda: victim.crash_thread("hb-tx:n2", "test"),
            label="silence",
        )
        cluster.run_until(ms(200))
        ups = [e for e in monitor.events if e[2] == "n2" and e[3] == "up"]
        assert {e[1] for e in ups} == {"n0", "n1"}
        assert monitor.view("n0")["n2"] is True

    def test_rejoin_triggers_replica_rebroadcast(self):
        cluster, monitor = _hb_cluster()
        channel = GlobalStateChannel(
            cluster, "t", can_id=0x20, writer_node="n0",
            driver_period=ms(10), sequenced=True,
        )
        channel.attach_membership(monitor)

        def pub(kern, thread):
            channel.publish(kern, thread, kern.now)

        cluster.nodes["n0"].create_thread(
            "pub", Program([Call(pub)]), period=ms(10), deadline=ms(10)
        )
        victim = cluster.nodes["n2"]
        victim.set_restart_policy("hb-tx:n2", max_restarts=1, backoff_ns=ms(30))
        victim.schedule_event(
            ms(50), lambda: victim.crash_thread("hb-tx:n2", "test"),
            label="silence",
        )
        cluster.run_until(ms(200))
        assert channel.resync_broadcasts >= 1
        assert notes(cluster.nodes["n0"].trace, "gs-rebroadcast")

    def test_parameter_validation(self):
        cluster = Cluster()
        cluster.add_node("n0", zero_kernel())
        with pytest.raises(ValueError):
            HeartbeatMonitor(cluster, period=0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(cluster, timeout_factor=0.5)
        with pytest.raises(ValueError):
            HeartbeatMonitor(Cluster())


# ----------------------------------------------------------------------
# response-time analysis with the error term
# ----------------------------------------------------------------------
class TestAnalysisErrorTerm:
    def _streams(self):
        return [
            MessageStream("a", can_id=1, size=8, period=ms(5)),
            MessageStream("b", can_id=2, size=8, period=ms(10)),
        ]

    def test_error_term_adds_retry_cost(self):
        bus = Fieldbus(1_000_000)
        base = bus_response_times(self._streams(), bus)
        with_errors = bus_response_times(
            self._streams(), bus, max_retransmits=2
        )
        extra = 2 * (bus.error_frame_time_ns + bus.frame_time_ns(8))
        assert with_errors["a"] == base["a"] + extra

    def test_negative_retransmits_rejected(self):
        with pytest.raises(ValueError):
            bus_response_times(self._streams(), Fieldbus(), max_retransmits=-1)

    def test_zero_term_matches_seed_analysis(self):
        bus = Fieldbus(1_000_000)
        assert bus_response_times(self._streams(), bus) == bus_response_times(
            self._streams(), bus, max_retransmits=0
        )


# ----------------------------------------------------------------------
# metrics plumbing
# ----------------------------------------------------------------------
class TestDependMetrics:
    def test_net_registry_exports_everything(self):
        cluster, channel = _publishing_cluster(sequenced=True)
        cluster.enable_dependability()
        monitor = HeartbeatMonitor(cluster, period=ms(20))
        cluster.run_until(ms(100))
        exported = populate_net_registry(
            MetricsRegistry(), cluster, [channel], monitor
        ).to_dict()
        for name in (
            "bus_frames_delivered_total",
            "can_tec",
            "net_rx_overflow_total",
            "gs_updates_total",
            "membership_changes_total",
        ):
            assert name in exported
        series = exported["gs_updates_total"]["series"]
        assert {s["labels"]["node"] for s in series} == {"n1", "n2"}

    def test_registry_merge_adds_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x", node="n").inc(3)
        b.counter("x", node="n").inc(4)
        b.gauge("g").set(9)
        a.merge(b)
        assert a.counter("x", node="n").value == 7
        assert a.gauge("g").value == 9


# ----------------------------------------------------------------------
# the network chaos harness
# ----------------------------------------------------------------------
class TestNetChaos:
    def test_clean_run_delivers_everything(self):
        result = run_net_chaos(1, ms(300))
        assert result.delivery_ratio == 1.0
        assert result.frames_retransmitted == 0
        assert result.seq_gaps == 0

    def test_retries_restore_full_delivery_under_drops(self):
        result = run_net_chaos(3, ms(400), drop_p=0.1)
        assert result.delivery_ratio == 1.0
        assert result.frames_retransmitted > 0
        assert result.error_frames > 0

    def test_without_retries_ratio_tracks_drop_rate(self):
        result = run_net_chaos(3, ms(400), drop_p=0.1, max_retransmits=0)
        assert result.delivery_ratio < 1.0
        assert result.seq_gaps > 0
        # Roughly 1 - p (loose bound: small-sample Bernoulli).
        assert 0.6 <= result.delivery_ratio <= 0.99

    def test_same_seed_same_signature(self):
        a = run_net_chaos(9, ms(300), drop_p=0.15, corrupt_p=0.05)
        b = run_net_chaos(9, ms(300), drop_p=0.15, corrupt_p=0.05)
        assert a.signature == b.signature
        assert a.membership_events == b.membership_events

    def test_different_seeds_differ(self):
        a = run_net_chaos(1, ms(300), drop_p=0.2)
        b = run_net_chaos(2, ms(300), drop_p=0.2)
        assert a.signature != b.signature

    def test_silence_and_rejoin_timeline(self):
        result = run_net_chaos(
            2, ms(500), silence_node="n2", silence_at=ms(200),
            rejoin_backoff_ns=ms(120),
        )
        downs = [e for e in result.membership_events if e[3] == "down"]
        ups = [e for e in result.membership_events if e[3] == "up"]
        assert {e[1] for e in downs} == {"n0", "n1", "n3"}
        assert {e[1] for e in ups} == {"n0", "n1", "n3"}
        # detection within two heartbeat periods of the silencing
        assert max(e[0] for e in downs) <= ms(200) + 2 * ms(50)
        assert result.rebroadcasts >= 1

    def test_signature_stable_across_worker_counts(self):
        from repro.perf.sweeps import parallel_map

        cases = [(s, 0.1) for s in (1, 2, 3, 4)]
        serial = parallel_map(_chaos_case, cases, workers=1)
        parallel = parallel_map(_chaos_case, cases, workers=2)
        assert [r.signature for r in serial] == [
            r.signature for r in parallel
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_net_chaos(1, ms(100), nodes=1)
        with pytest.raises(ValueError):
            run_net_chaos(1, ms(100), drop_p=0.8, corrupt_p=0.5)
        with pytest.raises(ValueError):
            run_net_chaos(1, ms(100), silence_node="bogus")


def _chaos_case(case):
    """One seeded net-chaos run per ``(seed, drop rate)`` case."""
    seed, drop_p = case
    return run_net_chaos(seed, ms(200), drop_p=drop_p)
