"""Heartbeat membership: crash detection over the fieldbus.

The paper's distributed targets have no global failure detector; EMERALDS
gives each node only the bus.  The classic fieldbus answer is a
heartbeat protocol: every node broadcasts a tiny high-priority frame
each period, and every node runs a watchdog that marks peers *down*
after ``timeout_factor`` periods of silence and *up* again the moment
a heartbeat reappears.  Both sides are ordinary user-level threads
(the Figure 1 driver pattern), so detection latency is bounded by the
watchdog's period and is fully deterministic in virtual time.

:class:`HeartbeatMonitor` spawns per node:

* ``hb-tx:<node>`` -- a periodic sender thread.  Crashing it (e.g. via
  :func:`repro.faults.injector` plans or ``kernel.crash_thread``)
  silences the node; giving it a restart policy models rejoin.
* ``hb-watch:<node>`` -- a polling watchdog (period / ``watch_divisor``)
  that drains heartbeat frames (passing other traffic back to the rx
  queue), refreshes per-peer last-heard stamps, and flips membership.

Each node keeps its *own* view -- there is no consensus round -- but
because the bus broadcasts and virtual time is global, all live nodes
converge on identical views deterministically.  Transitions land in
``events``, in the kernel trace (``membership-down`` /
``membership-up``), and in per-node ``on_change`` callbacks (used by
:meth:`repro.net.global_state.GlobalStateChannel.attach_membership`
to re-sync replicas on rejoin).

Worst-case detection: a node silenced right after its last heartbeat
is marked down within ``timeout_factor`` periods plus one watchdog
period -- with the defaults (1.5, divisor 2) inside two heartbeat
periods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.kernel.program import Call, Program
from repro.net.frame import Frame
from repro.timeunits import ms

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.net.cluster import Cluster
    from repro.net.node import NetInterface

__all__ = ["HeartbeatMonitor", "HEARTBEAT_CAN_ID"]

#: Default arbitration identifier for heartbeats -- nearly the highest
#: priority on the bus, so liveness survives data-traffic congestion.
HEARTBEAT_CAN_ID = 0x01

#: Type of one membership transition: (time, observer, peer, "down"/"up").
MembershipEvent = Tuple[int, str, str, str]


class HeartbeatMonitor:
    """Heartbeat broadcast + per-node liveness watchdogs on a cluster.

    Create it *after* every node has been added.  ``timeout_factor``
    scales the heartbeat period into the silence threshold;
    ``watch_divisor`` sets how many times per period each watchdog
    re-checks.
    """

    def __init__(
        self,
        cluster: "Cluster",
        can_id: int = HEARTBEAT_CAN_ID,
        period: int = ms(50),
        timeout_factor: float = 1.5,
        watch_divisor: int = 2,
        hb_size: int = 1,
    ):
        if period <= 0:
            raise ValueError("heartbeat period must be positive")
        if timeout_factor < 1.0:
            raise ValueError("timeout_factor must be >= 1")
        if watch_divisor < 1:
            raise ValueError("watch_divisor must be >= 1")
        if not cluster.nodes:
            raise ValueError("cluster has no nodes to monitor")
        self.cluster = cluster
        self.can_id = can_id
        self.period = period
        self.hb_size = hb_size
        self.timeout_ns = int(period * timeout_factor)
        self.watch_period = max(1, period // watch_divisor)
        #: observer -> peer -> local time a heartbeat was last heard
        #: (nodes start trusted: stamp 0 at cluster start).
        self.last_heard: Dict[str, Dict[str, int]] = {}
        #: observer -> peer -> currently considered alive
        self._alive: Dict[str, Dict[str, bool]] = {}
        #: Every transition, in global detection order.
        self.events: List[MembershipEvent] = []
        self._callbacks: Dict[str, List[Callable[[int, str, bool], None]]] = {}

        for node_name, kernel in cluster.nodes.items():
            interface = cluster.interfaces[node_name]
            if interface.accept is not None:
                interface.accept.add(can_id)
            peers = [p for p in cluster.nodes if p != node_name]
            self.last_heard[node_name] = {p: 0 for p in peers}
            self._alive[node_name] = {p: True for p in peers}
            self._spawn_sender(kernel, interface, node_name)
            self._spawn_watchdog(kernel, interface, node_name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def view(self, node: str) -> Dict[str, bool]:
        """``node``'s current membership view (peer -> alive)."""
        return dict(self._alive[node])

    def alive(self, observer: str, peer: str) -> bool:
        """Whether ``observer`` currently believes ``peer`` is alive."""
        return self._alive[observer][peer]

    def on_change(
        self, node: str, fn: Callable[[int, str, bool], None]
    ) -> None:
        """Call ``fn(time, peer, alive)`` when ``node``'s view flips."""
        if node not in self._alive:
            raise ValueError(f"unknown node {node}")
        self._callbacks.setdefault(node, []).append(fn)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _spawn_sender(
        self, kernel: "Kernel", interface: "NetInterface", node_name: str
    ) -> None:
        frame = Frame(can_id=self.can_id, payload=("hb", node_name), size=self.hb_size)

        def beat(kern: "Kernel", thread) -> None:
            interface.transmit(frame)

        kernel.create_thread(
            f"hb-tx:{node_name}",
            Program([Call(beat, label="hb-beat")]),
            period=self.period,
            deadline=self.period,
        )

    def _spawn_watchdog(
        self, kernel: "Kernel", interface: "NetInterface", node_name: str
    ) -> None:
        can_id = self.can_id
        heard = self.last_heard[node_name]
        alive = self._alive[node_name]

        def watch(kern: "Kernel", thread) -> None:
            passthrough = []
            while True:
                frame = interface.receive()
                if frame is None:
                    break
                if frame.can_id == can_id and frame.sender in heard:
                    heard[frame.sender] = kern.now
                    if not alive[frame.sender]:
                        self._transition(kern, node_name, frame.sender, True)
                else:
                    passthrough.append(frame)
            interface.rx_queue.extend(passthrough)
            now = kern.now
            for peer in heard:
                if alive[peer] and now - heard[peer] > self.timeout_ns:
                    self._transition(kern, node_name, peer, False)

        kernel.create_thread(
            f"hb-watch:{node_name}",
            Program([Call(watch, label="hb-watch")]),
            period=self.watch_period,
            deadline=self.watch_period,
        )

    def _transition(
        self, kern: "Kernel", observer: str, peer: str, up: bool
    ) -> None:
        # Node-local consequences happen immediately (the observer's
        # view, its trace, its callbacks -- all same-node state); the
        # *global* transition record is cross-kernel state, so it is
        # staged on the effect log and lands via ``_apply_transition``
        # at the window barrier, merged across nodes by (time, node,
        # seq) -- ``events`` thus comes out in the same global order in
        # every sync mode.
        self._alive[observer][peer] = up
        status = "up" if up else "down"
        self.cluster.log_effect(
            observer, ("ms", kern.now, self, observer, peer, up)
        )
        kern.trace.note(
            kern.now, f"membership-{status}", f"{observer} sees {peer} {status}"
        )
        for fn in self._callbacks.get(observer, ()):
            fn(kern.now, peer, up)

    def _apply_transition(
        self, time: int, observer: str, peer: str, up: bool
    ) -> None:
        """Barrier-side effect application: record the transition in
        the global, merge-ordered ``events`` list (the observer's own
        view already flipped in :meth:`_transition`)."""
        self.events.append((time, observer, peer, "up" if up else "down"))
