"""Multi-node clusters: 5-10 kernels sharing a fieldbus.

Each node runs its own :class:`~repro.kernel.kernel.Kernel` (its own
CPU and virtual clock); the cluster advances them through quantum
windows and simulates the bus in between.  The quantum equals the
smallest frame's wire time: since any frame needs at least that long
on the bus, a frame transmitted during quantum k can only be delivered
in quantum k+1 or later, so nodes never receive events in their local
past -- the classic conservative-synchronization lookahead argument.

Synchronization modes
---------------------

``sync="lockstep"`` steps every window unconditionally: O(horizon /
quantum * nodes) work regardless of how much actually happens -- the
reference implementation kept for differential testing.

``sync="adaptive"`` (the default) computes the cluster's **next
relevant instant** before each window -- the minimum over every
kernel's next-activity bound (see :meth:`Cluster._run_adaptive`) and
the bus's :meth:`~repro.net.fieldbus.Fieldbus.next_event_time` -- and,
when it falls beyond the next window boundary, jumps straight to the
window containing it.  The skipped windows provably contain no
activity: an idle kernel cannot act before its next pending event
(deliveries, releases, timers, and interrupts all live in its event
queue; a *busy* kernel reports "now" and inhibits the jump), and the
bus cannot produce a delivery, error frame, or state transition before
its next transmission start, so the skipped ``run_until``/``process``
calls were no-ops.  Jump targets stay on the lockstep window lattice
(``now + k * quantum``), so every window that *does* contain activity
is processed with exactly the lockstep boundaries; combined with the
trace's adjacent-segment merging this makes adaptive runs
**byte-identical** to lockstep -- same full-trace sha256 signatures,
same delivery order, same bus statistics (property-tested).

Effect logs and the deterministic merge
---------------------------------------

Cross-kernel side effects never happen inline.  A node's frame
transmissions (:meth:`NetInterface.transmit`) and membership
transitions append to a per-node **effect log**; at each window
barrier the cluster merges all logs sorted by ``(time, node_index,
seq)`` -- ``seq`` being the append position within one node's log --
and only then applies them (transmissions are queued on the bus in
merged order, which fixes the bus's arbitration tie-breaking sequence
numbers).  The merge order depends only on what the nodes did, never
on the order the window loop happened to run them in, so full-record
traces, delivery timelines, metrics, and bus statistics are
byte-identical between ``lockstep`` and ``adaptive`` -- by
construction, not by luck.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import itemgetter
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.kernel.kernel import Kernel
from repro.net.fieldbus import Fieldbus
from repro.net.node import DEFAULT_RX_CAPACITY, NetInterface

__all__ = ["Cluster", "SYNC_MODES"]

#: Valid cluster synchronization modes.
SYNC_MODES = ("lockstep", "adaptive")

_EFFECT_ORDER = itemgetter(0, 1, 2)


class Cluster:
    """A set of kernels joined by one fieldbus.

    Args:
        bus: The shared fieldbus (a fresh 1 Mbit/s one by default).
        sync: ``"adaptive"`` (default) skips provably silent quantum
            windows; ``"lockstep"`` steps every window -- the reference
            the differential tests compare against.  Both produce
            byte-identical traces.
    """

    def __init__(self, bus: Optional[Fieldbus] = None, sync: str = "adaptive"):
        if sync not in SYNC_MODES:
            raise ValueError(
                f"unknown sync mode {sync!r} (expected one of {SYNC_MODES})"
            )
        self.bus = bus if bus is not None else Fieldbus()
        self.sync = sync
        self.nodes: Dict[str, Kernel] = {}
        self.interfaces: Dict[str, NetInterface] = {}
        self._now = 0
        self._ifaces: List[NetInterface] = []
        #: Per-node effect logs (cross-kernel side effects staged for
        #: the barrier merge); aliased by each node's interface.
        self._effect_logs: List[list] = []
        # statistics
        #: Quantum windows actually processed (kernels stepped + bus
        #: arbitrated).  Lockstep processes ceil(horizon / quantum) of
        #: them; adaptive only the ones containing activity.
        self.sync_rounds = 0
        #: Silent windows the adaptive rule jumped over.
        self.windows_skipped = 0
        #: Deliveries not scheduled because the receiver's acceptance
        #: filter could never match (the interface's ``frames_filtered``
        #: is bumped when the delivery instant passes instead of paying
        #: a kernel event + closure for a guaranteed no-op).
        self.deliveries_suppressed = 0
        # Suppressed deliveries whose delivery instant has not passed
        # yet: ``(delivery_time, node_indices_to_bump)``, in delivery
        # order.  The lockstep reference bumps ``frames_filtered``
        # inside the no-op ``deliver`` event at delivery time; deferring
        # the suppressed bump the same way keeps the stats
        # byte-identical at every cluster boundary, including frames
        # still in flight at t_end.
        self._deferred_filter_stats: Deque[Tuple[int, Tuple[int, ...]]] = deque()
        # Pre-filtered delivery routes of the current ``run_until``
        # call: ``(sender, can_id) -> (receiving interfaces, indices of
        # the filtered ones)``.  Dropped at every ``run_until`` entry,
        # because acceptance filters may change between runs (a
        # ``HeartbeatMonitor`` adds its identifier when built).
        self._routes: Dict[Tuple[Optional[str], int], Tuple[tuple, tuple]] = {}
        # ``net-delivery:<id>`` event labels, built once per identifier.
        self._delivery_labels: Dict[int, str] = {}

    @property
    def now(self) -> int:
        """Global virtual time (all nodes are at this time between
        :meth:`run_until` calls)."""
        return self._now

    def add_node(
        self,
        name: str,
        kernel: Kernel,
        accept: Optional[Iterable[int]] = None,
        vector: int = 15,
        rx_capacity: Optional[int] = DEFAULT_RX_CAPACITY,
    ) -> NetInterface:
        """Attach a kernel to the bus; returns its network interface."""
        if name in self.nodes:
            raise ValueError(f"node {name} already exists")
        if kernel.now != self._now:
            raise ValueError(
                f"node {name} joins at local time {kernel.now}, cluster is at {self._now}"
            )
        log: list = []
        interface = NetInterface(
            name, kernel, self.bus, log, accept=accept, vector=vector,
            rx_capacity=rx_capacity,
        )
        self.nodes[name] = kernel
        self.interfaces[name] = interface
        self._ifaces.append(interface)
        self._effect_logs.append(log)
        return interface

    def enable_dependability(self, max_retransmits: int = 8) -> "Cluster":
        """Arm the bus's error confinement + retransmission layer."""
        self.bus.enable_dependability(max_retransmits)
        return self

    # ------------------------------------------------------------------
    # effect logs: the single cross-kernel channel
    # ------------------------------------------------------------------
    def log_effect(self, node: str, record: tuple) -> None:
        """Stage a cross-kernel effect on ``node``'s log.

        ``record[0]`` is the kind tag, ``record[1]`` the virtual time;
        the barrier merge orders records by ``(time, node_index,
        append_seq)`` before applying them.
        """
        self.interfaces[node]._effect_log.append(record)

    def _flush_effects(self) -> None:
        """Window barrier: merge the per-node effect logs and apply them.

        The merge key is ``(time, node_index, seq)``.  Applying
        transmissions in merged order assigns the bus's arbitration
        tie-breaking sequence numbers deterministically -- independent
        of the order in which the window loop ran the nodes.
        """
        logs = self._effect_logs
        if not any(logs):
            return
        merged = []
        for index, log in enumerate(logs):
            if log:
                merged.extend(
                    (record[1], index, seq, record)
                    for seq, record in enumerate(log)
                )
                log.clear()
        merged.sort(key=_EFFECT_ORDER)
        bus = self.bus
        for time, _index, _seq, record in merged:
            kind = record[0]
            if kind == "tx":
                # (kind, time, frame, sender)
                bus.queue(time, record[2], record[3])
            elif kind == "ms":
                # (kind, time, monitor, observer, peer, up)
                record[2]._apply_transition(
                    time, record[3], record[4], record[5]
                )
            else:
                raise ValueError(f"unknown effect record kind {kind!r}")

    # ------------------------------------------------------------------
    # the window loops
    # ------------------------------------------------------------------
    def run_until(self, t_end: int) -> None:
        """Advance every node (and the bus) to ``t_end``."""
        if t_end < self._now:
            raise ValueError("cannot run into the past")
        if t_end == self._now:
            # Re-running to the same instant is a no-op: every node and
            # the bus are already there (re-entering the window loop
            # would cost a barrier round for nothing).
            return
        if not self.nodes:
            self._now = t_end
            return
        quantum = self.bus.min_frame_time_ns
        if not quantum or quantum <= 0:
            # A zero (or undefined) minimum frame time gives the
            # conservative synchronization no lookahead: the window
            # loop would never make progress.
            raise ValueError(
                f"bus.min_frame_time_ns must be a positive lookahead "
                f"(got {quantum!r}); a bus whose smallest frame takes "
                "no wire time cannot bound conservative synchronization"
            )
        # Acceptance filters may have changed since the last run.
        self._routes.clear()
        # Effects staged *outside* the window loops (e.g. a test
        # calling ``interface.transmit`` directly between runs) must
        # reach the bus before the first round's bound computation.
        self._flush_effects()
        if self.sync == "adaptive":
            self._run_adaptive(t_end, quantum)
        else:
            self._run_lockstep(t_end, quantum)

    def _run_lockstep(self, t_end: int, quantum: int) -> None:
        """The reference loop: every window, every node, every time."""
        kernels = list(self.nodes.values())
        process = self.bus.process
        now = self._now
        while now < t_end:
            boundary = now + quantum
            if boundary > t_end:
                boundary = t_end
            self.sync_rounds += 1
            for kernel in kernels:
                # A node may have overshot the previous boundary while
                # charging kernel costs (kernel code is not preempted
                # by quantum edges); never ask it to run backwards.
                if kernel.clock.now < boundary:
                    kernel.run_until(boundary)
            self._flush_effects()
            # Bus work that *starts* by the boundary completes at
            # boundary + >= one frame time, i.e. in every node's local
            # future; deliveries are scheduled into the kernels now.
            deliveries = process(boundary)
            if deliveries:
                self._dispatch_deliveries(deliveries, prefilter=False)
            self._now = now = boundary

    def _run_adaptive(self, t_end: int, quantum: int) -> None:
        """The event-driven loop: jump over provably silent windows.

        One pass per round computes each kernel's conservative
        next-activity bound, inline because this loop runs once per node
        per round and a call's overhead is measurable.  The bound is the
        kernel's clock time while a thread is mid-execution or a
        reschedule is pending (the kernel is busy *now*; its future
        actions -- transmits, syscalls -- are not in the event queue),
        else its next pending event's time, or ``None`` when it is fully
        quiescent: such a node cannot act again until outside work -- a
        delivery, an interrupt -- is scheduled into it.  The raw heap
        head is used without trimming cancelled entries -- a cancelled
        head's time is a lower bound on the true next event, so the
        worst case is processing a window lockstep would also have
        processed, never skipping an active one.  The same bounds then
        drive per-node laziness: a kernel with nothing due by the
        boundary would only idle-jump its clock, and its trace's
        adjacent-IDLE merging makes deferring that jump invisible, so it
        is left alone until it has actual work (the final boundary runs
        everyone, returning all clocks at ``t_end``).
        """
        kernels = list(self.nodes.values())
        n = len(kernels)
        next_times = [0] * n
        bus = self.bus
        process = bus.process
        bus_next = bus.next_event_time
        rounds = 0
        skipped = 0
        now = self._now
        try:
            while now < t_end:
                boundary = now + quantum
                earliest = None
                for i in range(n):
                    kernel = kernels[i]
                    if kernel.running is not None or kernel._need_resched:
                        t = kernel.clock.now
                    else:
                        heap = kernel.events._heap
                        t = heap[0][0] if heap else None
                    next_times[i] = t
                    if t is not None and (earliest is None or t < earliest):
                        earliest = t
                t = bus_next()
                if t is not None and (earliest is None or t < earliest):
                    earliest = t
                if earliest is None:
                    # Fully quiescent: no pending kernel events anywhere
                    # and nothing queued on the bus.  Nothing can happen
                    # before t_end.
                    boundary = t_end
                elif earliest > boundary:
                    # First possible activity lies in a later window:
                    # jump to that window's boundary.  Staying on the
                    # lockstep lattice keeps every *active* window's
                    # boundaries identical to lockstep's.
                    boundary = now + quantum * (
                        (earliest - now + quantum - 1) // quantum
                    )
                if boundary >= t_end:
                    boundary = t_end
                    for kernel in kernels:
                        if kernel.clock.now < boundary:
                            kernel.run_until(boundary)
                else:
                    for i in range(n):
                        kernel = kernels[i]
                        t = next_times[i]
                        if (
                            t is not None
                            and t <= boundary
                            and kernel.clock.now < boundary
                        ):
                            kernel.run_until(boundary)
                rounds += 1
                skipped += (boundary - now - 1) // quantum
                self._flush_effects()
                if self._deferred_filter_stats:
                    self._flush_filter_stats(boundary)
                deliveries = process(boundary)
                if deliveries:
                    self._dispatch_deliveries(deliveries, prefilter=True)
                self._now = now = boundary
        finally:
            self.sync_rounds += rounds
            self.windows_skipped += skipped

    # ------------------------------------------------------------------
    # delivery dispatch
    # ------------------------------------------------------------------
    def _dispatch_deliveries(self, deliveries, prefilter: bool) -> None:
        """Schedule completed bus deliveries into the receiving kernels.

        With ``prefilter`` (the adaptive mode's delivery batching) each
        delivery is routed only to interfaces that can actually consume
        it: the sender never hears its own frame (``deliver`` returns
        immediately, touching nothing), and -- while the dependability
        layer is disarmed -- a receiver whose acceptance filter rejects
        the identifier gets its ``frames_filtered`` bumped here instead
        of paying a scheduled kernel event plus a closure for a
        guaranteed no-op ``deliver`` call.  Such a route depends only
        on the sender and the identifier, so it is computed once per
        ``run_until`` call (:meth:`_route`).  Corrupted frames always
        ship (the CRC check runs *before* the acceptance filter and must
        count at every receiver), and with error confinement armed
        filtered frames ship too -- ``deliver`` feeds the receive error
        counters before filtering, exactly like a real CAN controller.
        Without ``prefilter`` (the lockstep reference) every delivery is
        scheduled into every node, the seed behaviour the differential
        tests compare against.
        """
        suppressed = 0
        routed = prefilter and self.bus.error_states is None
        interfaces = self._ifaces
        routes = self._routes
        labels = self._delivery_labels
        for delivery in deliveries:
            frame = delivery.frame
            time = delivery.time
            sender = frame.sender
            can_id = frame.can_id
            label = labels.get(can_id)
            if label is None:
                label = labels[can_id] = f"net-delivery:{can_id:#x}"
            if routed and not frame.corrupted:
                route = routes.get((sender, can_id))
                if route is None:
                    route = routes[sender, can_id] = self._route(sender, can_id)
                receivers, filtered = route
                if filtered:
                    # ``frames_filtered`` moves when the frame would
                    # have been heard, not when the bus completed it --
                    # exactly like the reference's no-op deliver events.
                    self._deferred_filter_stats.append((time, filtered))
                    suppressed += len(filtered)
            elif prefilter:
                receivers = [i for i in interfaces if i.name != sender]
            else:
                receivers = interfaces
            for interface in receivers:
                kernel = interface.kernel
                kernel_now = kernel.clock.now
                kernel.events.schedule(
                    time if time > kernel_now else kernel_now,
                    partial(interface.deliver, frame),
                    label,
                )
        self.deliveries_suppressed += suppressed

    def _route(self, sender: Optional[str], can_id: int) -> Tuple[tuple, tuple]:
        """``(receiving interfaces, indices of the filtered ones)`` of a
        pre-filtered ``can_id`` frame from ``sender``."""
        receivers = []
        filtered = []
        for index, interface in enumerate(self._ifaces):
            if interface.name == sender:
                continue
            accept = interface.accept
            if accept is not None and can_id not in accept:
                filtered.append(index)
            else:
                receivers.append(interface)
        return tuple(receivers), tuple(filtered)

    def _flush_filter_stats(self, up_to: int) -> None:
        """Apply suppressed-delivery stats whose instant has passed.

        Deliveries complete in time order, so the due entries are the
        deque's leftmost ones.
        """
        deferred = self._deferred_filter_stats
        ifaces = self._ifaces
        while deferred and deferred[0][0] <= up_to:
            for i in deferred.popleft()[1]:
                ifaces[i].frames_filtered += 1

    # ------------------------------------------------------------------
    # per-node queries
    # ------------------------------------------------------------------
    def trace_signatures(self, include_segments: bool = True) -> Dict[str, str]:
        """Per-node full-trace signatures (sha256)."""
        return {
            name: kernel.trace.signature(include_segments=include_segments)
            for name, kernel in self.nodes.items()
        }

    def interface_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-node interface counters."""
        return {
            name: {
                "frames_sent": iface.frames_sent,
                "frames_received": iface.frames_received,
                "frames_filtered": iface.frames_filtered,
                "frames_crc_dropped": iface.frames_crc_dropped,
                "rx_overflowed": iface.rx_overflowed,
            }
            for name, iface in self.interfaces.items()
        }

    def rx_timelines(self) -> Dict[str, list]:
        """Per-node ``rx_timeline`` lists (for workloads that attach
        received-frame timelines to their interfaces)."""
        return {
            name: list(getattr(iface, "rx_timeline", ()))
            for name, iface in self.interfaces.items()
        }

    def node_traces(self) -> Dict[str, Any]:
        """Per-node :class:`~repro.sim.trace.Trace` objects."""
        return {name: kernel.trace for name, kernel in self.nodes.items()}

    def total_events_popped(self) -> int:
        """Kernel events popped across every node."""
        return sum(kernel.events_popped for kernel in self.nodes.values())

    def total_deadline_violations(self) -> int:
        """Deadline violations across every node."""
        return sum(
            len(kernel.trace.deadline_violations(kernel.now))
            for kernel in self.nodes.values()
        )

    def close(self) -> None:
        """Release the cluster.  A no-op: a cluster holds no processes,
        pipes or files, only in-process state."""
