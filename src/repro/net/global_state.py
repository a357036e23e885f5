"""Global state messages: state channels replicated over the fieldbus.

The state-message idea (single writer, readers always see the latest
value, nobody blocks) extends naturally to the paper's distributed
targets: the writing node broadcasts each update as a high-priority
fieldbus frame, and every other node's network driver deposits it into
a *local replica* of the channel.  Readers on any node then use the
ordinary lock-free local read path -- remote communication costs are
paid only by the writer and the per-node driver, never by readers.

:class:`GlobalStateChannel` wires this pattern up on a
:class:`~repro.net.cluster.Cluster`:

* on the writer node it creates the authoritative local channel and
  provides :meth:`publish_op` -- an op that writes locally *and*
  queues the broadcast frame;
* on every other node it creates a replica channel plus a small
  user-level driver thread (the Figure 1 pattern) that drains the
  node's rx queue into the replica.

Replicas lag the authoritative copy by the bus latency (one frame
time plus arbitration), which is exactly the semantics periodic
sensor data wants: the freshest value that has physically arrived.

Freshness guarantees (opt-in): a *sequenced* channel stamps every
broadcast with ``(sequence, publish_time, value)``.  Replica drivers
then detect lost updates (sequence gaps), discard stale duplicates,
and -- when ``freshness_ns`` is set -- bound how old a replica may
grow before the node must degrade: the driver checks the replica's
age every period, and past the bound it either *holds* the last value
(``stale_policy="hold"``) or *invalidates* the replica by writing
``None`` (``stale_policy="invalidate"``), in both cases marking the
:class:`ReplicaStatus` stale, tracing the episode, and invoking the
``on_stale`` degradation callback.  The first update after a stale
episode is a *resync*.  :meth:`attach_membership` additionally
re-broadcasts the latest value whenever the writer node observes a
peer rejoin, so recovered nodes refresh without waiting for the next
periodic publish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.ipc.state_message import StateChannel
from repro.kernel.program import Call, Op, Program
from repro.net.frame import Frame
from repro.timeunits import ms

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.net.cluster import Cluster
    from repro.net.membership import HeartbeatMonitor
    from repro.net.node import NetInterface

__all__ = ["GlobalStateChannel", "ReplicaStatus", "STALE_POLICIES"]


#: How a replica degrades when its age exceeds ``freshness_ns``.
STALE_POLICIES = ("hold", "invalidate")


@dataclass
class ReplicaStatus:
    """Per-reader health of one replicated channel (sequenced mode).

    Attributes:
        node: Reader node this status describes.
        last_seq: Highest sequence number applied to the replica.
        last_publish_ns: Publish timestamp of that update (writer's
            clock; all nodes share virtual time).
        last_update_ns: Local time the replica last changed.
        updates: Updates applied (including resyncs).
        gaps: Total updates lost to sequence gaps.
        duplicates: Frames discarded as already-seen (``seq <=
            last_seq`` -- e.g. rejoin re-broadcasts that raced the
            periodic publish).
        stale: True while the replica is older than ``freshness_ns``.
        stale_count: Stale episodes entered.
        resyncs: Updates that ended a stale episode.
        latency_sum_ns / latency_max_ns: Publish-to-apply latency.
        staleness_max_ns: Worst replica age observed at any check.
    """

    node: str
    last_seq: int = 0
    last_publish_ns: int = -1
    last_update_ns: int = -1
    updates: int = 0
    gaps: int = 0
    duplicates: int = 0
    stale: bool = False
    stale_count: int = 0
    resyncs: int = 0
    latency_sum_ns: int = 0
    latency_max_ns: int = 0
    staleness_max_ns: int = 0


class GlobalStateChannel:
    """A state-message channel replicated across cluster nodes.

    ``readers`` restricts the replica set: only the named nodes get a
    local replica and driver (default: every node).  Nodes whose
    interface has an acceptance filter get the channel's identifier
    added to it automatically.

    ``sequenced`` (implied by setting ``freshness_ns``) turns on wire
    sequence numbers and the :class:`ReplicaStatus` bookkeeping;
    ``freshness_ns`` additionally bounds replica age, degrading per
    ``stale_policy`` and notifying ``on_stale(node, status)``.
    """

    def __init__(
        self,
        cluster: "Cluster",
        name: str,
        can_id: int,
        writer_node: str,
        slots: int = 4,
        frame_size: int = 8,
        driver_period: Optional[int] = None,
        driver_queue: Optional[int] = None,
        readers: Optional[list] = None,
        sequenced: bool = False,
        freshness_ns: Optional[int] = None,
        stale_policy: str = "hold",
        on_stale: Optional[Callable[[str, ReplicaStatus], None]] = None,
    ):
        if writer_node not in cluster.nodes:
            raise ValueError(f"unknown writer node {writer_node}")
        if readers is not None:
            unknown = set(readers) - set(cluster.nodes)
            if unknown:
                raise ValueError(f"unknown reader nodes {sorted(unknown)}")
        if freshness_ns is not None and freshness_ns <= 0:
            raise ValueError("freshness_ns must be positive (or None)")
        if stale_policy not in STALE_POLICIES:
            raise ValueError(
                f"stale_policy {stale_policy!r}; expected one of {STALE_POLICIES}"
            )
        self.cluster = cluster
        self.name = name
        self.can_id = can_id
        self.writer_node = writer_node
        self.frame_size = frame_size
        self.sequenced = sequenced or freshness_ns is not None
        self.freshness_ns = freshness_ns
        self.stale_policy = stale_policy
        self.on_stale = on_stale
        #: Local channel per node (the writer's is authoritative).
        self.replicas: Dict[str, StateChannel] = {}
        #: Replica health per reader node (sequenced mode only).
        self.status_by_node: Dict[str, ReplicaStatus] = {}
        # writer-side state
        self._seq = 0
        self._last_value = None
        self.published = 0
        self.resync_broadcasts = 0
        period = driver_period if driver_period is not None else ms(10)

        for node_name, kernel in cluster.nodes.items():
            if (
                readers is not None
                and node_name != writer_node
                and node_name not in readers
            ):
                continue
            channel = kernel.create_channel(f"gs:{name}@{node_name}", slots=slots)
            self.replicas[node_name] = channel
            if node_name == writer_node:
                continue
            interface = cluster.interfaces[node_name]
            if interface.accept is not None:
                interface.accept.add(can_id)
            if self.sequenced:
                self.status_by_node[node_name] = ReplicaStatus(node_name)
            self._spawn_replica_driver(
                kernel, interface, channel, period, driver_queue, node_name
            )

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def publish(self, kernel: "Kernel", thread, value) -> None:
        """Write the authoritative channel and broadcast the update.

        Charged to the calling thread (use from a ``Call`` op on the
        writer node; :meth:`publish_op` wraps exactly this).
        """
        channel = self.replicas[self.writer_node]
        interface = self.cluster.interfaces[self.writer_node]
        kernel.charge(kernel.model.state_msg_write_ns, "state-msg")
        writer_name = thread.name if thread is not None else f"gs:{self.name}"
        channel.write(value, writer_name=writer_name)
        if self.sequenced:
            self._seq += 1
            self._last_value = value
            payload = (self._seq, kernel.now, value)
        else:
            payload = value
        self.published += 1
        interface.transmit(
            Frame(can_id=self.can_id, payload=payload, size=self.frame_size)
        )

    def publish_op(self, value_fn=None, value=None) -> Op:
        """An op for the writer's program: update the local channel and
        broadcast the new value.

        Pass either a constant ``value`` or a ``value_fn(kernel,
        thread)`` producing the value at publish time.
        """

        def call(kernel: "Kernel", thread) -> None:
            payload = value_fn(kernel, thread) if value_fn is not None else value
            self.publish(kernel, thread, payload)

        return Call(call, label=f"gs-publish:{self.name}")

    def attach_membership(self, monitor: "HeartbeatMonitor") -> None:
        """Re-broadcast the latest value when a peer rejoins.

        Registers on the writer node's membership view: the moment the
        writer's watchdog sees a previously-down peer alive again, the
        current value goes out with a fresh sequence number, so the
        rejoined node resynchronizes without waiting for the next
        periodic publish (duplicates are discarded by ``last_seq`` on
        nodes that never went stale).
        """
        writer = self.writer_node
        kernel = self.cluster.nodes[writer]
        interface = self.cluster.interfaces[writer]

        def on_change(time: int, peer: str, alive: bool) -> None:
            if not alive or not (self.sequenced and self.published):
                return
            self._seq += 1
            self.resync_broadcasts += 1
            kernel.trace.note(
                kernel.now,
                "gs-rebroadcast",
                f"{self.name} seq={self._seq} for {peer}",
            )
            interface.transmit(
                Frame(
                    can_id=self.can_id,
                    payload=(self._seq, kernel.now, self._last_value),
                    size=self.frame_size,
                )
            )

        monitor.on_change(writer, on_change)

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def local_channel(self, node: str) -> StateChannel:
        """The replica on ``node`` (read it with StateRead ops)."""
        return self.replicas[node]

    def channel_name(self, node: str) -> str:
        """The kernel-registered name of ``node``'s replica."""
        return self.replicas[node].name

    def status(self, node: str) -> ReplicaStatus:
        """Replica health of reader ``node`` (sequenced mode only)."""
        return self.status_by_node[node]

    def statuses(self) -> Dict[str, ReplicaStatus]:
        """All replica statuses, keyed by reader node (node order)."""
        return dict(self.status_by_node)

    def writer_stats(self) -> Dict[str, int]:
        """Writer-side counters (``published``, ``resync_broadcasts``,
        ``seq``)."""
        return {
            "published": self.published,
            "resync_broadcasts": self.resync_broadcasts,
            "seq": self._seq,
        }

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _spawn_replica_driver(
        self,
        kernel: "Kernel",
        interface: "NetInterface",
        channel: StateChannel,
        period: int,
        driver_queue: Optional[int],
        node_name: str,
    ) -> None:
        can_id = self.can_id
        channel_gs_name = self.name
        sequenced = self.sequenced
        status = self.status_by_node.get(node_name)

        def apply_update(kern: "Kernel", thread, payload) -> None:
            if not sequenced:
                kern.charge(kern.model.state_msg_write_ns, "state-msg")
                channel.write(payload, writer_name=thread.name)
                return
            seq, t_pub, value = payload
            if seq <= status.last_seq:
                status.duplicates += 1
                return
            if seq > status.last_seq + 1:
                lost = seq - status.last_seq - 1
                status.gaps += lost
                kern.trace.note(
                    kern.now,
                    "gs-seq-gap",
                    f"{channel_gs_name}@{node_name} lost {lost} "
                    f"(seq {status.last_seq} -> {seq})",
                )
            kern.charge(kern.model.state_msg_write_ns, "state-msg")
            channel.write(value, writer_name=thread.name)
            latency = kern.now - t_pub
            status.last_seq = seq
            status.last_publish_ns = t_pub
            status.last_update_ns = kern.now
            status.updates += 1
            status.latency_sum_ns += latency
            if latency > status.latency_max_ns:
                status.latency_max_ns = latency
            if status.stale:
                status.stale = False
                status.resyncs += 1
                kern.trace.note(
                    kern.now,
                    "gs-resync",
                    f"{channel_gs_name}@{node_name} seq={seq}",
                )

        def drain(kern: "Kernel", thread) -> None:
            # Drain everything; frames for other channels go back to
            # the interface queue untouched.
            passthrough = []
            while True:
                frame = interface.receive()
                if frame is None:
                    break
                if frame.can_id == can_id:
                    apply_update(kern, thread, frame.payload)
                else:
                    passthrough.append(frame)
            interface.rx_queue.extend(passthrough)
            self._check_freshness(kern, thread, channel, node_name, status)

        # The driver *polls* rather than blocking on the rx event:
        # "for periodic events, polling is usually used to interact
        # with the environment" (Section 6.3.2) -- state updates are
        # periodic, and a blocking driver would trip its own deadline
        # whenever the writer publishes slower than the driver runs.
        # Replica staleness is bounded by bus latency + driver period.
        kernel.create_thread(
            f"gs-driver:{channel_gs_name}",
            Program([Call(drain)]),
            period=period,
            deadline=period,
            csd_queue=driver_queue,
        )

    def _check_freshness(
        self,
        kern: "Kernel",
        thread,
        channel: StateChannel,
        node_name: str,
        status: Optional[ReplicaStatus],
    ) -> None:
        """Per-period replica age check (the freshness watchdog)."""
        if self.freshness_ns is None or status is None or not status.updates:
            return
        age = kern.now - status.last_publish_ns
        if age > status.staleness_max_ns:
            status.staleness_max_ns = age
        if age <= self.freshness_ns or status.stale:
            return
        status.stale = True
        status.stale_count += 1
        kern.trace.note(
            kern.now,
            "gs-stale",
            f"{self.name}@{node_name} age={age} bound={self.freshness_ns} "
            f"policy={self.stale_policy}",
        )
        if self.stale_policy == "invalidate":
            # Readers observe the degradation: the replica now holds
            # None until the next genuine update (which also resyncs).
            kern.charge(kern.model.state_msg_write_ns, "state-msg")
            channel.write(None, writer_name=thread.name)
        if self.on_stale is not None:
            self.on_stale(node_name, status)
