"""Condition variables with priority-ordered wake-up (Section 3).

EMERALDS offers condition variables alongside semaphores, with
priority inheritance supplied by the underlying mutex.  ``wait``
atomically releases the mutex and blocks; ``signal`` moves the
highest-priority waiter to re-acquire the mutex (it wakes already
holding it, or queues on the mutex with priority inheritance if
another thread grabbed it first); ``broadcast`` does the same for
every waiter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = ["ConditionVariable", "CondVarError"]


class CondVarError(Exception):
    """Semantic misuse of a condition variable."""


class ConditionVariable:
    """A kernel condition variable bound to no particular mutex."""

    def __init__(self, name: str):
        self.name = name
        #: Blocked waiters, each mapped to the mutex it must re-acquire.
        self.waiters: Dict["Thread", str] = {}

    def wait(self, kernel: "Kernel", thread: "Thread", mutex_name: str) -> None:
        """Release ``mutex_name`` and block until signalled."""
        mutex = kernel.semaphores.get(mutex_name)
        if mutex is None:
            raise CondVarError(f"cv {self.name}: unknown mutex {mutex_name}")
        if mutex.holder is not thread:
            raise CondVarError(
                f"cv {self.name}: {thread.name} waits without holding {mutex_name}"
            )
        self.waiters[thread] = mutex_name
        # Release wakes the next mutex waiter (if any) and hands off.
        mutex.release(kernel, thread)
        kernel.block_thread(thread, "cv", self)

    def signal(self, kernel: "Kernel", thread: "Thread") -> None:
        """Wake the highest-priority waiter."""
        if not self.waiters:
            return
        best = min(self.waiters, key=kernel.priority_rank)
        self._wake(kernel, best, self.waiters.pop(best))

    def broadcast(self, kernel: "Kernel", thread: "Thread") -> None:
        """Wake every waiter (in priority order)."""
        for waiter in sorted(self.waiters, key=kernel.priority_rank):
            self._wake(kernel, waiter, self.waiters.pop(waiter))

    def _wake(self, kernel: "Kernel", waiter: "Thread", mutex_name: str) -> None:
        """Transition a waiter from the CV to mutex re-acquisition."""
        mutex = kernel.semaphores[mutex_name]
        if mutex.available > 0:
            mutex._grant(waiter)
            kernel.unblock_thread(waiter)
        else:
            # Stay blocked, but now on the mutex, donating down its
            # holder chain and reported like any other waiter.
            mutex._inherit_chain(kernel, waiter)
            mutex.waiters.append(waiter)
            kernel.requeue_thread(waiter, "sem", mutex)

    def __repr__(self) -> str:
        return f"<ConditionVariable {self.name}, {len(self.waiters)} waiting>"
