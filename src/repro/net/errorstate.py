"""CAN error confinement: TEC/REC counters and the three-state machine.

Real CAN controllers implement *error confinement* (ISO 11898-1
section 12): every node keeps a transmit error counter (TEC) and a
receive error counter (REC).  A failed transmission (no ACK, bit
error, stuffed-bit error) adds 8 to the TEC; a successful one
subtracts 1.  A reception error (CRC failure, form error) adds 1 to
the REC; a clean reception subtracts 1.  The counters drive a
three-state machine:

* **error-active** (TEC < 128 and REC < 128): normal operation, the
  node signals errors with dominant error flags;
* **error-passive** (TEC >= 128 or REC >= 128): the node may still
  transmit but must wait an extra *suspend transmission* time (8 bit
  times) after being a transmitter before competing again -- a
  misbehaving node backs off so healthy traffic gets through;
* **bus-off** (TEC >= 256): the controller disconnects.  It may
  rejoin after observing 128 occurrences of 11 consecutive recessive
  bits (i.e. 128 * 11 bit times of bus idle/activity), after which
  both counters reset and the node is error-active again.

The simulation reproduces this deterministically in virtual time: the
bus feeds transmit verdicts (from ``Fieldbus.fault_hook``) into the
sender's :class:`CanErrorState`, receiving interfaces feed CRC
results into their own, and bus-off recovery lands at the exact
virtual instant ``bus_off_until`` with no randomness anywhere.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "CanErrorState",
    "ERROR_ACTIVE",
    "ERROR_PASSIVE",
    "BUS_OFF",
    "TX_ERROR_INCREMENT",
    "RX_ERROR_INCREMENT",
    "ERROR_PASSIVE_THRESHOLD",
    "BUS_OFF_THRESHOLD",
    "BUS_OFF_RECOVERY_BITS",
    "SUSPEND_TRANSMISSION_BITS",
]

ERROR_ACTIVE = "error-active"
ERROR_PASSIVE = "error-passive"
BUS_OFF = "bus-off"

#: Numeric severity used by metrics gauges (export-friendly).
STATE_SEVERITY = {ERROR_ACTIVE: 0, ERROR_PASSIVE: 1, BUS_OFF: 2}

#: TEC increment on a failed transmission (CAN: +8).
TX_ERROR_INCREMENT = 8
#: REC increment on a reception error (CAN: +1).
RX_ERROR_INCREMENT = 1
#: Counter decrement on success (CAN: -1, floored at 0).
ERROR_DECREMENT = 1
#: Either counter at or above this makes the node error-passive.
ERROR_PASSIVE_THRESHOLD = 128
#: TEC at or above this takes the node off the bus.
BUS_OFF_THRESHOLD = 256
#: Bus-off recovery: 128 occurrences of 11 recessive bits.
BUS_OFF_RECOVERY_BITS = 128 * 11
#: Suspend-transmission penalty of an error-passive transmitter.
SUSPEND_TRANSMISSION_BITS = 8


class CanErrorState:
    """One node's error-confinement state (see module docstring).

    All transitions are logged with their virtual timestamps in
    :attr:`transitions`, which doubles as the deterministic "error
    trace" the chaos tests fingerprint.
    """

    __slots__ = (
        "node", "bit_time_ns", "tec", "rec", "state", "bus_off_until",
        "bus_off_events", "tx_errors", "rx_errors", "transitions",
    )

    def __init__(self, node: str, bit_time_ns: int):
        if bit_time_ns <= 0:
            raise ValueError("bit time must be positive")
        self.node = node
        self.bit_time_ns = bit_time_ns
        self.tec = 0
        self.rec = 0
        self.state = ERROR_ACTIVE
        #: While bus-off: the virtual instant the controller rejoins.
        self.bus_off_until = 0
        self.bus_off_events = 0
        self.tx_errors = 0
        self.rx_errors = 0
        #: ``(time, state)`` log of every transition, in time order.
        self.transitions: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # events fed by the bus (transmit side) and interfaces (receive side)
    # ------------------------------------------------------------------
    def on_tx_error(self, now: int) -> None:
        """The node's transmission failed on the wire (no clean ACK)."""
        self.tx_errors += 1
        self.tec += TX_ERROR_INCREMENT
        self._update(now)

    def on_tx_success(self, now: int) -> None:
        """The node's transmission completed cleanly."""
        if self.tec > 0:
            self.tec = max(0, self.tec - ERROR_DECREMENT)
            self._update(now)

    def on_rx_error(self, now: int) -> None:
        """The node's controller saw a frame fail its CRC check."""
        self.rx_errors += 1
        self.rec += RX_ERROR_INCREMENT
        self._update(now)

    def on_rx_success(self, now: int) -> None:
        """The node's controller received a clean frame."""
        if self.rec > 0:
            self.rec = max(0, self.rec - ERROR_DECREMENT)
            self._update(now)

    def maybe_recover(self, now: int) -> bool:
        """Leave bus-off once the recovery sequence has elapsed.

        Returns True when a recovery happened at this call.  Both
        counters reset, per the standard.
        """
        if self.state == BUS_OFF and now >= self.bus_off_until:
            self.tec = 0
            self.rec = 0
            self._transition(now, ERROR_ACTIVE)
            return True
        return False

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _update(self, now: int) -> None:
        if self.state == BUS_OFF:
            # Only maybe_recover() leaves bus-off.
            return
        if self.tec >= BUS_OFF_THRESHOLD:
            self.bus_off_events += 1
            self.bus_off_until = now + BUS_OFF_RECOVERY_BITS * self.bit_time_ns
            self._transition(now, BUS_OFF)
        elif (
            self.tec >= ERROR_PASSIVE_THRESHOLD
            or self.rec >= ERROR_PASSIVE_THRESHOLD
        ):
            if self.state != ERROR_PASSIVE:
                self._transition(now, ERROR_PASSIVE)
        elif self.state != ERROR_ACTIVE:
            self._transition(now, ERROR_ACTIVE)

    def _transition(self, now: int, state: str) -> None:
        self.state = state
        self.transitions.append((now, state))

    @property
    def bus_off(self) -> bool:
        return self.state == BUS_OFF

    @property
    def severity(self) -> int:
        """0 = error-active, 1 = error-passive, 2 = bus-off."""
        return STATE_SEVERITY[self.state]

    def __repr__(self) -> str:
        return (
            f"<CanErrorState {self.node}: {self.state} "
            f"tec={self.tec} rec={self.rec}>"
        )
