"""Kernel events: the primitive blocking/wake-up mechanism.

Threads block on events (``Wait``) and other threads or interrupt
handlers signal them (``Signal``).  This is the "event E" of the
Section 6 scenarios: the completion of some unrelated blocking call
that wakes a thread shortly before it locks a semaphore.

Semantics: ``signal`` wakes every current waiter; with no waiters the
signal is latched, and the next ``wait`` consumes the latch without
blocking (binary-event semantics, the common RTOS flavour).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = ["KernelEvent"]


class KernelEvent:
    """A latching broadcast event."""

    def __init__(self, name: str):
        self.name = name
        self.pending = False
        self.waiters: List["Thread"] = []

    def wait(self, kernel: "Kernel", thread: "Thread", hint=None) -> bool:
        """Block ``thread`` until signalled.

        Returns True when the wait was satisfied immediately (latched
        signal); False when the thread blocked.  ``hint`` is the
        parser-inserted semaphore identifier carried by this blocking
        call (Section 6.2.1).
        """
        if self.pending:
            self.pending = False
            return True
        thread.pending_hint = hint
        self.waiters.append(thread)
        kernel.block_thread(thread, "event", self)
        return False

    def signal(self, kernel: "Kernel") -> int:
        """Wake all waiters (or latch).  Returns the number woken."""
        waiters = self.waiters
        if not waiters:
            self.pending = True
            return 0
        if len(waiters) == 1:
            # A lone waiter needs no priority order.
            kernel.deliver_unblock(waiters.pop())
            return 1
        woken = 0
        for waiter in sorted(waiters, key=kernel.priority_rank):
            waiters.remove(waiter)
            kernel.deliver_unblock(waiter)
            woken += 1
        return woken

    def __repr__(self) -> str:
        latch = " latched" if self.pending else ""
        return f"<KernelEvent {self.name}{latch}, {len(self.waiters)} waiting>"
