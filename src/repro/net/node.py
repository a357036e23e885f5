"""Per-node network interface: the fieldbus "device" of Figure 1.

EMERALDS has no in-kernel protocol stack: "nodes in embedded
applications typically exchange short, simple messages over
fieldbuses.  Threads can do so by talking directly to network device
drivers" (Section 3).  The interface mirrors that split:

* :meth:`NetInterface.transmit` is the device-driver send path a
  thread calls directly (via a ``Call`` op or the
  :func:`net_send` helper), charged like a device access; the frame
  is staged on the cluster's effect log for its barrier merge;
* received frames raise the node's network interrupt; a first-level
  handler queues the frame and signals the per-node rx event, on
  which a *user-level driver thread* waits (the Figure 1 pattern).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Iterable, Optional, Set

from repro.kernel.program import Call, Op
from repro.net.frame import Frame

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.net.fieldbus import Fieldbus

__all__ = ["NetInterface", "net_send"]

#: Default interrupt vector for network devices.
NET_VECTOR = 15

#: Device-access cost of handing a frame to the bus controller (ns).
TX_ACCESS_NS = 3_000

#: Default receive buffer depth.  Real CAN controllers hold a handful
#: of frames; drivers that stall must overflow, not grow kernel
#: memory without bound (this is a small-memory kernel).
DEFAULT_RX_CAPACITY = 64


class NetInterface:
    """A node's attachment to the fieldbus, built by
    :meth:`~repro.net.cluster.Cluster.add_node`.

    ``effect_log`` is the node's cluster effect log: cross-kernel side
    effects are staged there and applied at the window barrier in
    deterministic merge order instead of touching the bus inline.
    ``rx_capacity`` bounds the total frames buffered between the
    controller (``_incoming``) and the driver queue (``rx_queue``);
    further deliveries are dropped and counted in ``rx_overflowed``.
    ``None`` means unbounded (the pre-dependability behaviour).
    """

    def __init__(
        self,
        name: str,
        kernel: "Kernel",
        bus: "Fieldbus",
        effect_log: list,
        accept: Optional[Iterable[int]] = None,
        vector: int = NET_VECTOR,
        rx_capacity: Optional[int] = DEFAULT_RX_CAPACITY,
    ):
        if rx_capacity is not None and rx_capacity <= 0:
            raise ValueError("rx_capacity must be positive (or None)")
        self.name = name
        self.kernel = kernel
        self.bus = bus
        #: Acceptance filter: deliver only these identifiers
        #: (``None`` = promiscuous).  Fixed while the cluster runs: each
        #: :meth:`~repro.net.cluster.Cluster.run_until` call routes a
        #: ``(sender, can_id)`` pair once and reuses that route, so add
        #: or remove identifiers only between runs.
        self.accept: Optional[Set[int]] = set(accept) if accept is not None else None
        self.vector = vector
        self.rx_capacity = rx_capacity
        self.rx_queue: Deque[Frame] = deque()
        self.rx_event_name = f"net-rx:{name}"
        kernel.create_event(self.rx_event_name)
        kernel.interrupts.register(vector, self._isr)
        self._incoming: Deque[Frame] = deque()
        self._effect_log = effect_log
        #: Opt-in receive log (``None`` = disabled): one
        #: ``(time, flow, can_id, sender)`` tuple per *accepted*
        #: delivery, i.e. frames that passed CRC, acceptance filter and
        #: capacity checks and raised the rx interrupt.  Only accepted
        #: deliveries are recorded because the cluster's adaptive mode
        #: legitimately suppresses filtered deliveries before they
        #: reach the node -- accepted ones are identical in every sync
        #: mode.  The cluster trace exporter uses it to end the bus
        #: flow arrows on the receiving node's timeline.
        self.rx_log: Optional[list] = None
        # statistics
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_filtered = 0
        self.frames_crc_dropped = 0
        self.rx_overflowed = 0

    # ------------------------------------------------------------------
    # transmit path (thread -> driver -> bus)
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> None:
        """Queue a frame for bus arbitration (device-driver send).

        ``frame`` is staged as given, beside this node's name, and never
        copied: at the barrier merge the bus builds the one frame it
        carries, sent by this node, uncorrupted and with its own flow id
        (:meth:`~repro.net.fieldbus.Fieldbus.queue`), so a sender may
        hand in the same frame on every send.
        """
        kernel = self.kernel
        kernel.charge(TX_ACCESS_NS, "net")
        # Staged for the barrier merge: the bus's arbitration sequence
        # numbers are assigned there, in global (time, node, seq) order
        # -- identical in every sync mode.
        self._effect_log.append(("tx", kernel.now, frame, self.name))
        self.frames_sent += 1

    # ------------------------------------------------------------------
    # receive path (bus -> IRQ -> driver thread)
    # ------------------------------------------------------------------
    def deliver(self, frame: Frame) -> None:
        """Called by the cluster when a frame completes on the wire.

        Applies the acceptance filter, then raises the rx interrupt on
        this node (scheduled at the current bus delivery time, which is
        in this node's future by construction).
        """
        if frame.sender == self.name:
            return  # a node does not receive its own transmission
        error_state = self.error_state
        if frame.corrupted:
            # The controller's CRC check fails; the frame never reaches
            # the driver (no interrupt -- CAN controllers drop bad
            # frames in hardware).  The CRC check runs *before* the
            # acceptance filter, so a corrupted frame bumps the REC
            # even when its identifier would have been filtered.
            self.frames_crc_dropped += 1
            if error_state is not None:
                error_state.on_rx_error(self.kernel.now)
            self.kernel.trace.note(
                self.kernel.now, "frame-crc-dropped", f"{self.name} id={frame.can_id:#x}"
            )
            return
        if error_state is not None:
            error_state.on_rx_success(self.kernel.now)
        if self.accept is not None and frame.can_id not in self.accept:
            self.frames_filtered += 1
            return
        if (
            self.rx_capacity is not None
            and len(self._incoming) + len(self.rx_queue) >= self.rx_capacity
        ):
            # The controller FIFO is full (the driver stalled): the
            # frame is lost at this node, bounded memory preserved.
            self.rx_overflowed += 1
            self.kernel.trace.note(
                self.kernel.now, "rx-overflow", f"{self.name} id={frame.can_id:#x}"
            )
            return
        if self.rx_log is not None:
            self.rx_log.append(
                (self.kernel.now, frame.flow, frame.can_id, frame.sender)
            )
        self._incoming.append(frame)
        self.kernel.interrupts.raise_interrupt(self.vector)

    def _isr(self, kernel: "Kernel", vector: int) -> None:
        """First-level rx handler: move the frame to the driver queue
        and wake the driver thread."""
        if self._incoming:
            self.rx_queue.append(self._incoming.popleft())
            self.frames_received += 1
        kernel.events_by_name[self.rx_event_name].signal(kernel)

    def receive(self) -> Optional[Frame]:
        """Pop the next received frame (driver-thread side)."""
        if self.rx_queue:
            return self.rx_queue.popleft()
        return None

    @property
    def error_state(self):
        """This node's CAN error state machine, or ``None`` while the
        bus's dependability layer is disarmed."""
        states = self.bus.error_states
        if states is None:
            return None
        return self.bus.error_state(self.name)


def net_send(
    interface: NetInterface, can_id: int, size: int = 8, payload=None
) -> Op:
    """A ``Call`` op that transmits a frame when executed.

    Lets declarative thread programs send on the bus::

        Program([Compute(us(100)), net_send(iface, can_id=0x10, size=4)])

    The frame is built once, here, and every execution hands that same
    frame to :meth:`NetInterface.transmit`; so an invalid ``can_id`` or
    ``size`` raises ``ValueError`` when the op is built.
    """
    frame = Frame(can_id=can_id, payload=payload, size=size)

    def call(kernel, thread) -> None:
        interface.transmit(frame)

    return Call(call, label=f"net-send:{can_id:#x}")
