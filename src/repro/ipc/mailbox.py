"""Mailbox message passing (Section 3, Figure 1).

EMERALDS' IPC is "based on message-passing, mailboxes, and
shared-memory".  A mailbox is a bounded kernel queue of messages:
``send`` copies the message into the kernel (blocking when the mailbox
is full), ``recv`` copies it out (blocking when empty).  Both copies
are charged per byte plus a fixed kernel-entry cost, which is exactly
why the state-message channels of :mod:`repro.ipc.state_message` beat
mailboxes for periodic sensor-style data: they trade the trap and the
queue management for a lock-free shared-memory slot protocol.

When the sender or receiver names a buffer region, the kernel validates
it against the process's memory map (readable for sends, writable for
receives), reproducing the protection checks of the microkernel path.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = ["Mailbox", "MailboxError"]


class MailboxError(Exception):
    """Semantic misuse of a mailbox."""


class Mailbox:
    """A bounded queue of messages."""

    def __init__(self, name: str, capacity: int = 8, max_message_size: int = 64):
        if capacity < 1:
            raise ValueError("mailbox capacity must be >= 1")
        if max_message_size < 1:
            raise ValueError("max message size must be >= 1")
        self.name = name
        self.capacity = capacity
        self.max_message_size = max_message_size
        self._messages: Deque[Tuple[object, int]] = deque()
        #: Threads blocked in recv (served in priority order).
        self.receivers: List["Thread"] = []
        #: Threads blocked in send because the mailbox was full.
        self.senders: List["Thread"] = []
        # statistics
        self.blocked_sends = 0

    def __len__(self) -> int:
        return len(self._messages)

    @property
    def full(self) -> bool:
        return len(self._messages) >= self.capacity

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def send(
        self,
        kernel: "Kernel",
        thread: "Thread",
        payload: object,
        size: int,
        buffer: Optional[str] = None,
    ) -> bool:
        """Copy a message in.  Returns False if the sender blocked
        (the send op re-executes when the mailbox drains)."""
        if size > self.max_message_size:
            raise MailboxError(
                f"mailbox {self.name}: message of {size} bytes exceeds "
                f"max {self.max_message_size}"
            )
        if buffer is not None and thread.process is not None:
            thread.process.memory.check_readable(buffer, size)
        if self.receivers:
            # Direct hand-off: copy straight to the waiting receiver.
            kernel.charge(self._copy_cost(kernel, size), "ipc")
            receiver = min(self.receivers, key=kernel.priority_rank)
            self.receivers.remove(receiver)
            receiver.last_received = payload
            kernel.deliver_unblock(receiver)
            return True
        if self.full:
            self.blocked_sends += 1
            self.senders.append(thread)
            kernel.block_thread(thread, "mbox-send", self)
            return False
        kernel.charge(self._copy_cost(kernel, size), "ipc")
        self._messages.append((payload, size))
        return True

    def recv(
        self,
        kernel: "Kernel",
        thread: "Thread",
        buffer: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> bool:
        """Copy a message out into ``thread.last_received``.

        Returns False when the receiver blocked; the message will be
        delivered (and the thread woken) by a future send.  ``hint`` is
        the parser-inserted semaphore identifier (recv is a blocking
        call, so it participates in the Section 6.2 scheme).
        """
        if buffer is not None and thread.process is not None:
            thread.process.memory.check_writable(buffer, self.max_message_size)
        if self._messages:
            payload, size = self._messages.popleft()
            kernel.charge(self._copy_cost(kernel, size), "ipc")
            thread.last_received = payload
            self._wake_sender(kernel)
            return True
        thread.pending_hint = hint
        self.receivers.append(thread)
        kernel.block_thread(thread, "mbox-recv", self)
        return False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _wake_sender(self, kernel: "Kernel") -> None:
        """A slot freed up: let the best blocked sender retry."""
        if not self.senders:
            return
        best = min(self.senders, key=kernel.priority_rank)
        self.senders.remove(best)
        kernel.unblock_thread(best)

    def _copy_cost(self, kernel: "Kernel", size: int) -> int:
        return kernel.model.ipc_fixed_ns + size * kernel.model.ipc_copy_per_byte_ns

    def __repr__(self) -> str:
        return (
            f"<Mailbox {self.name}: {len(self._messages)}/{self.capacity} "
            f"messages, {len(self.receivers)} recv waiting>"
        )
