"""The shared fieldbus medium: priority arbitration over 1-2 Mbit/s.

Models the CAN-style bus of the paper's distributed targets: a single
broadcast medium; when the bus frees, all nodes with pending frames
arbitrate and the lowest identifier wins; a frame of b bits occupies
the bus for ``b / bit_rate`` seconds; every node hears every frame
(receivers filter by acceptance set).

The bus is simulated *between* cluster quanta (see
:mod:`repro.net.cluster`): transmit requests are stamped with the
sender's local virtual time, and :meth:`Fieldbus.process` replays
arbitration up to a horizon, producing `(delivery_time, frame)` pairs.
Because a frame needs at least one frame-time on the wire, deliveries
always land at or after the next quantum boundary, which is exactly
the lookahead that makes the conservative node synchronization sound.

Dependability (opt-in via :meth:`Fieldbus.enable_dependability`):
real CAN controllers retransmit automatically on error and confine
failing nodes through TEC/REC error counters (see
:mod:`repro.net.errorstate`).  When armed, every ``fault_hook``
verdict feeds the sender's error state machine, failed frames burn an
error frame's wire time and re-enter arbitration (bounded by
``max_retransmits``, with the error-passive suspend-transmission
backoff), and bus-off senders have their traffic deferred to the
deterministic recovery instant.  With the layer disarmed (the
default) every code path is identical to the seed implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.net.errorstate import (
    BUS_OFF,
    ERROR_PASSIVE,
    SUSPEND_TRANSMISSION_BITS,
    CanErrorState,
)
from repro.net.frame import ERROR_FRAME_BITS, Frame, frame_bits

__all__ = ["Fieldbus", "TransmitRequest", "Delivery", "BusEvent", "VERDICTS"]

NS_PER_S = 1_000_000_000

#: The verdicts a ``fault_hook`` may return.
VERDICTS = ("ok", "drop", "corrupt")


@dataclass(frozen=True)
class TransmitRequest:
    """A frame queued for transmission at the sender's local time."""

    time: int
    frame: Frame
    sequence: int
    #: The sender's original transmit stamp.  ``time`` moves on
    #: retransmission / bus-off deferral; ``origin`` does not, so
    #: latency accounting can always reach back to the application's
    #: send instant.
    origin: int
    #: Retransmission attempts already consumed (0 = first try).
    attempts: int = 0


@dataclass(frozen=True)
class Delivery:
    """A frame fully received by every node at ``time``."""

    time: int
    frame: Frame


class BusEvent(NamedTuple):
    """One entry of the bus activity log (``Fieldbus.enable_trace``).

    ``kind``:

    * ``"tx"`` -- a transmission occupied the wire ``[start, end)``
      (``verdict`` says how it ended; ``attempts > 0`` marks a
      retransmission attempt);
    * ``"error-frame"`` -- an error flag + delimiter occupied the wire
      ``[start, end)`` after a failed transmission;
    * ``"retransmit"`` -- the failed frame re-entered arbitration,
      becoming available at ``start`` (``attempts`` = the retry count
      just consumed);
    * ``"retransmit-exhausted"`` -- the retry bound was hit and the
      frame was abandoned at ``start``;
    * ``"bus-off-defer"`` -- the sender was bus-off; its traffic was
      deferred to the recovery instant ``end``.

    ``queued`` is the sender's original transmit stamp (the request's
    availability time for the *current* attempt), so end-to-end
    latency chains start from the application's send instant.
    """

    kind: str
    start: int
    end: int
    can_id: int
    sender: Optional[str]
    flow: Optional[int]
    attempts: int
    verdict: str
    queued: int


class Fieldbus:
    """A single shared bus with priority (lowest-id-first) arbitration."""

    def __init__(self, bit_rate_bps: int = 1_000_000):
        if bit_rate_bps <= 0:
            raise ValueError("bit rate must be positive")
        self.bit_rate_bps = bit_rate_bps
        self.bit_time_ns = NS_PER_S // bit_rate_bps
        # Arbitration state: requests not yet available at the bus
        # (keyed by availability time) and requests already contending
        # (keyed by CAN priority).  ``sequence`` breaks every tie
        # deterministically.
        self._future: List[Tuple[int, int, TransmitRequest]] = []
        self._ready: List[Tuple[int, int, TransmitRequest]] = []
        self._sequence = 0
        #: Virtual time at which the bus next becomes idle.
        self.busy_until = 0
        #: Fault hook (set by ``FaultInjector.install``): called with
        #: ``(start_time, frame)`` for every frame that wins
        #: arbitration; returns ``"ok"``, ``"drop"`` (the frame is lost
        #: on the wire), or ``"corrupt"`` (delivered with a bad CRC).
        self.fault_hook: Optional[Callable[[int, Frame], str]] = None
        # dependability layer (disarmed by default)
        self.max_retransmits = 0
        #: Per-node error state machines; ``None`` until
        #: :meth:`enable_dependability` arms the layer.
        self.error_states: Optional[Dict[str, CanErrorState]] = None
        #: Bus activity log (``None`` = disabled).  Armed by
        #: :meth:`enable_trace`; consumed post-hoc by the cluster
        #: trace exporter.  Appending to it never influences
        #: arbitration, so traces stay byte-identical with the log on.
        self.bus_log: Optional[List[BusEvent]] = None
        # statistics
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_retransmitted = 0
        self.retransmits_exhausted = 0
        self.frames_deferred_bus_off = 0
        self.error_frames = 0
        self.bits_carried = 0
        self.total_arbitration_wait_ns = 0

    def frame_time_ns(self, size_bytes: int = 8) -> int:
        """Wire time of one frame with the given payload size."""
        return frame_bits(size_bytes) * NS_PER_S // self.bit_rate_bps

    @property
    def min_frame_time_ns(self) -> int:
        """Wire time of the smallest (0-byte) frame -- the cluster's
        synchronization lookahead."""
        return self.frame_time_ns(0)

    @property
    def error_frame_time_ns(self) -> int:
        """Wire time of one error flag + delimiter + intermission."""
        return ERROR_FRAME_BITS * NS_PER_S // self.bit_rate_bps

    # ------------------------------------------------------------------
    # dependability layer
    # ------------------------------------------------------------------
    def enable_dependability(self, max_retransmits: int = 8) -> "Fieldbus":
        """Arm error confinement and bounded automatic retransmission.

        ``max_retransmits`` bounds the retries *per frame* (0 keeps
        the error state machines ticking but never retries).  Returns
        the bus for chaining.
        """
        if max_retransmits < 0:
            raise ValueError("max_retransmits must be non-negative")
        self.max_retransmits = max_retransmits
        if self.error_states is None:
            self.error_states = {}
        return self

    # ------------------------------------------------------------------
    # activity trace
    # ------------------------------------------------------------------
    def enable_trace(self) -> "Fieldbus":
        """Arm the bus activity log (see :class:`BusEvent`).

        Purely observational: the log records what arbitration decided
        but never feeds back into it.  Returns the bus for chaining.
        """
        if self.bus_log is None:
            self.bus_log = []
        return self

    def _log(
        self, kind: str, start: int, end: int, request: TransmitRequest, verdict: str
    ) -> None:
        """Append one :class:`BusEvent` for ``request`` if the log is
        armed; a disarmed log builds nothing."""
        log = self.bus_log
        if log is not None:
            frame = request.frame
            log.append(BusEvent(
                kind,
                start,
                end,
                frame.can_id,
                frame.sender,
                frame.flow,
                request.attempts,
                verdict,
                request.origin,
            ))

    def error_state(self, node: str) -> CanErrorState:
        """Get or create the error state machine of ``node``.

        Requires the dependability layer to be armed.
        """
        states = self.error_states
        if states is None:
            raise ValueError(
                "dependability layer is not armed (call enable_dependability)"
            )
        state = states.get(node)
        if state is None:
            state = states[node] = CanErrorState(node, self.bit_time_ns)
        return state

    # ------------------------------------------------------------------
    # transmit queue
    # ------------------------------------------------------------------
    def queue(self, time: int, frame: Frame, sender: Optional[str] = None) -> None:
        """Register a transmit request stamped with the sender's time.

        The request carries one frame, built here in a single
        construction.  With a ``sender`` (the cluster's barrier merge
        passes the transmitting node) it is ``frame``'s identifier,
        payload and size, sent by ``sender``, not corrupted, and with
        the request's arbitration sequence number as its stable flow id,
        whatever ``frame`` held in those fields.  Without one ``frame``
        is queued as given, with the sequence number as its flow id
        unless it already has one.  The cluster merges transmissions
        into the bus in deterministic ``(time, node_index, seq)`` order
        in every sync mode, so flow ids are identical under lockstep and
        adaptive.
        """
        self._sequence += 1
        sequence = self._sequence
        if sender is not None:
            frame = Frame(frame.can_id, frame.payload, frame.size, sender, False, sequence)
        elif frame.flow is None:
            frame = Frame(
                frame.can_id, frame.payload, frame.size, frame.sender,
                frame.corrupted, sequence,
            )
        request = TransmitRequest(time, frame, sequence, time)
        heappush(self._future, (time, sequence, request))

    @property
    def pending_count(self) -> int:
        return len(self._future) + len(self._ready)

    def next_event_time(self) -> Optional[int]:
        """Earliest instant at which the bus can start (or resume)
        transmitting, or ``None`` when nothing is queued.

        A conservative lower bound on the bus's next observable action:
        no delivery, error frame, or error-state transition can happen
        before the next transmission *starts*, and a start needs a
        request (``_ready``/``_future``) and a free bus
        (``busy_until``).  The cluster's adaptive synchronization skips
        quanta wholesale up to this instant: :meth:`process` calls on
        earlier horizons are provably no-ops (bus-off deferrals and
        suspend-transmission retries re-enter ``_future`` with their
        recovery instants as availability times, so they are covered).
        """
        if self._ready:
            return self.busy_until
        if self._future:
            available = self._future[0][0]
            busy = self.busy_until
            return available if available > busy else busy
        return None

    def process(self, horizon: int) -> List[Delivery]:
        """Arbitrate and transmit everything that *starts* by ``horizon``.

        Returns deliveries in completion order.  Requests that cannot
        start by the horizon stay queued for the next round.

        Arbitration is a pair of heaps: requests flow from ``_future``
        (keyed by availability time) into ``_ready`` (keyed by
        ``(can_id, sequence)``, i.e. CAN priority) as the bus clock
        passes their stamps, so each transmission costs O(log n)
        instead of the former O(n) min-scan + list.remove.  Delivery
        order is byte-identical to the reference implementation
        (verified by tests against the old algorithm).
        """
        deliveries: List[Delivery] = []
        future, ready = self._future, self._ready
        while future or ready:
            if ready:
                # Everything already contending became available at or
                # before a previous start <= busy_until, so the next
                # transmission starts as soon as the bus frees.
                start = self.busy_until
            else:
                start = max(future[0][0], self.busy_until)
            if start > horizon:
                break
            # CAN arbitration: among requests present at `start`, the
            # lowest identifier wins (sequence breaks ties determinist-
            # ically for same-id frames from different nodes).
            while future and future[0][0] <= start:
                _, seq, request = heappop(future)
                heappush(ready, (request.frame.can_id, seq, request))
            _, _, winner = heappop(ready)
            sender_state = self._sender_state(winner.frame.sender)
            if sender_state is not None:
                sender_state.maybe_recover(start)
                if sender_state.state == BUS_OFF:
                    # The controller is off the bus: its traffic waits
                    # for the deterministic recovery instant.
                    self.frames_deferred_bus_off += 1
                    deferred = replace(winner, time=sender_state.bus_off_until)
                    heappush(
                        future,
                        (deferred.time, deferred.sequence, deferred),
                    )
                    self._log("bus-off-defer", start, deferred.time, winner, "deferred")
                    continue
            duration = self.frame_time_ns(winner.frame.size)
            completion = start + duration
            self.busy_until = completion
            self.bits_carried += winner.frame.bits
            self.total_arbitration_wait_ns += start - winner.time
            frame = winner.frame
            verdict = self.fault_hook(start, frame) if self.fault_hook else "ok"
            if verdict not in VERDICTS:
                raise ValueError(
                    f"fault_hook returned {verdict!r}; expected one of "
                    f"{VERDICTS}"
                )
            self._log("tx", start, completion, winner, verdict)
            if verdict == "drop":
                # The frame occupied the wire but no node hears it.
                self.frames_dropped += 1
                self._on_tx_error(winner, completion, sender_state)
                continue
            if verdict == "corrupt":
                self.frames_corrupted += 1
                frame = replace(frame, corrupted=True)
                self._on_tx_error(winner, completion, sender_state)
            elif sender_state is not None:
                sender_state.on_tx_success(completion)
            self.frames_delivered += 1
            deliveries.append(Delivery(completion, frame))
        return deliveries

    def _sender_state(self, sender: Optional[str]) -> Optional[CanErrorState]:
        if self.error_states is None or sender is None:
            return None
        return self.error_state(sender)

    def _on_tx_error(
        self,
        request: TransmitRequest,
        completion: int,
        sender_state: Optional[CanErrorState],
    ) -> None:
        """Account a failed transmission: error frame, TEC, retry."""
        if self.error_states is not None:
            # Signalling the error occupies the wire too.
            self.error_frames += 1
            self.bits_carried += ERROR_FRAME_BITS
            self.busy_until = completion + self.error_frame_time_ns
            self._log("error-frame", completion, self.busy_until, request, "error")
        if sender_state is not None:
            sender_state.on_tx_error(completion)
        if self.max_retransmits <= 0:
            return
        if request.attempts >= self.max_retransmits:
            self.retransmits_exhausted += 1
            self._log(
                "retransmit-exhausted",
                self.busy_until,
                self.busy_until,
                request,
                "abandoned",
            )
            return
        retry = self.busy_until
        if sender_state is not None and sender_state.state == ERROR_PASSIVE:
            # Suspend transmission: an error-passive transmitter yields
            # 8 bit times before competing again, so healthy senders
            # overtake it in arbitration.
            retry += SUSPEND_TRANSMISSION_BITS * self.bit_time_ns
        self.frames_retransmitted += 1
        self._sequence += 1
        retransmit = replace(
            request,
            time=retry,
            sequence=self._sequence,
            attempts=request.attempts + 1,
        )
        heappush(self._future, (retry, retransmit.sequence, retransmit))
        self._log("retransmit", retry, retry, retransmit, "retry")

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the bus spent carrying bits."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.bits_carried * NS_PER_S / self.bit_rate_bps / elapsed_ns)
