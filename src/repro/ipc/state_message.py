"""State messages: lock-free single-writer many-reader channels.

EMERALDS' intra-node communication optimization (Section 7 of the
paper; the section's evaluation is truncated in our copy, so the
mechanism is reconstructed from the design described in the journal
version of EMERALDS).  Periodic sensor-style data has *state*
semantics: readers only ever want the latest value, so a kernel
mailbox -- with its trap, queueing, and copying -- is overkill.  A
state message is a small circular buffer of N slots in shared memory:

* the single writer writes the next slot, then publishes it by
  updating the latest-slot index (one store, atomic on any CPU);
* readers fetch the index, then copy that slot without any locking.

A reader can be preempted mid-copy.  The slot it is copying is only
overwritten once the writer has cycled through all other slots, so
torn reads are impossible when::

    N >= ceil(max_read_time / writer_period) + 2

(the +2 covers the slot being written concurrently and the publish
fetched just before a write).  :func:`required_slots` computes this
bound; the simulation detects actual torn reads, which is how the
property is validated empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

__all__ = [
    "StateChannel",
    "ReadToken",
    "TornRead",
    "required_slots",
    "StateMessageError",
]


class StateMessageError(Exception):
    """Misuse of a state-message channel (e.g. a second writer)."""


def required_slots(writer_period_ns: int, max_read_ns: int) -> int:
    """Minimum slot count guaranteeing tear-free reads.

    Args:
        writer_period_ns: Minimum interval between writes.
        max_read_ns: Worst-case duration of a reader's copy loop
            (including any preemption it can suffer).

    Returns:
        ``ceil(max_read / period) + 2``.
    """
    if writer_period_ns <= 0:
        raise ValueError("writer period must be positive")
    if max_read_ns < 0:
        raise ValueError("read time must be non-negative")
    return -(-max_read_ns // writer_period_ns) + 2


@dataclass(frozen=True)
class ReadToken:
    """Snapshot taken at the start of a read (index + version)."""

    index: int
    version: int


class StateChannel:
    """An N-slot single-writer multi-reader state message."""

    def __init__(self, name: str, slots: int = 4):
        if slots < 2:
            raise ValueError("state channels need at least 2 slots")
        self.name = name
        self.slots = slots
        #: Per-slot (version, value); version counts writes to the slot.
        self._buffer: List[List[Any]] = [[0, None] for _ in range(slots)]
        self._latest = 0
        self.writer_name: Optional[str] = None
        # statistics
        self.writes = 0
        self.reads = 0
        self.torn_reads = 0

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def write(self, value: Any, writer_name: Optional[str] = None) -> int:
        """Publish a new value.  Returns the slot index used.

        Enforces the single-writer rule when ``writer_name`` is given.
        """
        if writer_name is not None:
            if self.writer_name is None:
                self.writer_name = writer_name
            elif self.writer_name != writer_name:
                raise StateMessageError(
                    f"channel {self.name}: second writer {writer_name} "
                    f"(writer is {self.writer_name})"
                )
        index = (self._latest + 1) % self.slots
        slot = self._buffer[index]
        slot[0] += 1
        slot[1] = value
        self._latest = index
        self.writes += 1
        return index

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def read(self) -> Any:
        """Instantaneous (un-preemptible) read of the latest value."""
        self.reads += 1
        return self._buffer[self._latest][1]

    def begin_read(self) -> ReadToken:
        """Start a timed read: capture the published index + version."""
        index = self._latest
        return ReadToken(index=index, version=self._buffer[index][0])

    def end_read(self, token: ReadToken) -> Any:
        """Finish a timed read.

        Raises :class:`TornRead` when the slot was overwritten during
        the copy (the writer lapped the reader), which the caller
        handles by retrying.
        """
        self.reads += 1
        slot = self._buffer[token.index]
        if slot[0] != token.version:
            self.torn_reads += 1
            raise TornRead(
                f"channel {self.name}: slot {token.index} overwritten during read"
            )
        return slot[1]

    def __repr__(self) -> str:
        return (
            f"<StateChannel {self.name}: {self.slots} slots, "
            f"{self.writes} writes, {self.torn_reads} torn reads>"
        )


class TornRead(StateMessageError):
    """A timed read observed a slot overwritten mid-copy."""
