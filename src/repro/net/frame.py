"""Fieldbus frames.

The paper's distributed targets exchange "short, simple messages over
fieldbuses" (Section 3) -- the protocol family the authors' companion
work [37, 40] targets is CAN-like: small frames carrying an
arbitration identifier whose numeric value doubles as the bus
priority (lower id wins arbitration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Frame", "frame_bits", "ERROR_FRAME_BITS"]

#: Protocol overhead per frame in bits (CAN 2.0A: SOF, arbitration,
#: control, CRC, ACK, EOF, interframe space -- 47 bits + stuffing;
#: we use the nominal 47).
FRAME_OVERHEAD_BITS = 47

#: Largest payload a fieldbus frame carries (CAN: 8 bytes).
MAX_PAYLOAD_BYTES = 8

#: Wire cost of signalling one error (bits): a 6-bit error flag, the
#: 8-bit error delimiter, and the 3-bit intermission before the bus
#: frees again.  Charged by the bus after a failed transmission when
#: the dependability layer is armed (matching the error-frame term of
#: the classic CAN response-time analysis with faults).
ERROR_FRAME_BITS = 17


def frame_bits(payload_bytes: int) -> int:
    """Wire size of a frame with ``payload_bytes`` of data."""
    if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"fieldbus payload must be 0..{MAX_PAYLOAD_BYTES} bytes"
        )
    return FRAME_OVERHEAD_BITS + 8 * payload_bytes


@dataclass(frozen=True)
class Frame:
    """One fieldbus frame.

    Attributes:
        can_id: Arbitration identifier; lower value = higher priority.
        payload: Application data (opaque to the bus).
        size: Payload size in bytes (0..8).
        sender: Name of the sending node (set by the bus when the
            cluster queues a node's transmission).
    """

    can_id: int
    payload: Any = None
    size: int = 8
    sender: Optional[str] = None
    #: Set by fault injection: the frame arrives with a failing CRC and
    #: every receiving interface discards it.
    corrupted: bool = False
    #: Stable per-frame flow identifier, stamped by
    #: :meth:`~repro.net.fieldbus.Fieldbus.queue` from the bus's
    #: arbitration sequence counter (assigned at the cluster's barrier
    #: merge, so it is identical across sync modes and worker counts).
    #: Retransmissions keep the original flow id; the cluster trace
    #: exporter uses it to bind a transmit slice to its receive-side
    #: delivery events.  Excluded from equality/hash: two frames with
    #: the same wire content stay equal regardless of when they were
    #: queued.
    flow: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.can_id < 0:
            raise ValueError("can_id must be non-negative")
        if not 0 <= self.size <= MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload size must be 0..{MAX_PAYLOAD_BYTES} bytes"
            )

    @property
    def bits(self) -> int:
        """Wire size in bits."""
        return frame_bits(self.size)
