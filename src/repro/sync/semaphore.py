"""Standard semaphores with priority inheritance (Section 6.1).

This is the baseline the paper improves upon::

    if (sem locked) {
        do priority inheritance;
        add caller thread to wait queue;
        block;                      /* wait for sem to be released */
    }
    lock sem;

Priority inheritance uses the standard queue manipulation: the holder
is removed from its fixed-priority queue and reinserted at the donor's
priority (O(n) per step), or -- for dynamic-priority tasks -- its
deadline field is overwritten (O(1), the EDF queue is unsorted).
Inheritance is transitive: if the holder is itself waiting for another
semaphore (in its queue, or parked on it by the EMERALDS hint check),
the donation is propagated down the chain.

This walk is the one donation path of both schemes and of condition
variables.  Each hop calls its semaphore's ``_donate`` (this scheme
raises; the EMERALDS scheme swaps where Section 6.2 applies), a release
undoes inheritance through ``_disinherit``, and :func:`pi_step` charges
and reports every step.

The contended acquire/release pair costs *two* context switches
(Figure 7): one into the holder when the caller blocks, one back when
the lock is released.  Those switches are charged by the kernel's
dispatcher; this module charges the fixed semaphore-path cost and the
PI queue operations.

Semaphores are binary mutexes by default (the paper's primary use:
object method synchronization under OO design); a ``capacity`` above 1
gives counting semantics, for which holder tracking and PI are
disabled (no single holder exists to inherit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = [
    "LOCK_WAITS", "StandardSemaphore", "SemaphoreError", "pi_step", "recompute_inheritance"
]

#: Maximum priority-inheritance chain length walked on a block.
_MAX_PI_CHAIN = 32

#: The wait kinds of a thread that waits for a semaphore's lock: in its
#: queue, or parked on it by the hint check.
LOCK_WAITS = ("sem", "sem-parked")


class SemaphoreError(Exception):
    """Semantic misuse: releasing an unheld semaphore, etc."""


def pi_step(
    kernel: "Kernel", cost: int, holder: "Thread", donor: Optional["Thread"] = None,
    sem: str = "", kind: str = "raise", transitive: bool = False,
) -> None:
    """Charge one priority-inheritance step and report it.

    With a ``donor`` (waiting for ``sem``) the step gave ``holder`` the
    donor's priority by a ``"raise"`` or a ``"swap"``; without one it
    restored ``holder``'s own priority.
    """
    kernel.charge(cost, "pi")
    obs = kernel.obs
    if obs is not None:
        if donor is None:
            obs.on_pi_restore(kernel.now, holder.name)
        else:
            obs.on_pi_donation(
                kernel.now, sem, donor.name, holder.name, kind, transitive
            )


def recompute_inheritance(kernel: "Kernel", thread: "Thread") -> None:
    """Re-derive ``thread``'s inherited priority from current donors.

    Donors are the waiters of every semaphore the thread still holds.
    Called after a release or whenever the donor set changes; restores
    the base priority when no donors remain.
    """
    rank = kernel.priority_rank
    best: Optional["Thread"] = None
    best_sem = ""
    for sem_name in thread.held_sems:
        for donor in kernel.semaphores[sem_name].donor_threads():
            if best is None or rank(donor) < rank(best):
                best, best_sem = donor, sem_name
    scheduler = kernel.scheduler
    # Restore first: the comparison below must be against the thread's
    # *base* priority, not a previously inherited one (otherwise a
    # donation equal to the current inherited level is dropped).
    if thread.effective_key != thread.base_key or thread.pi_deadline is not None:
        pi_step(kernel, scheduler.restore_priority(thread), thread)
    if best is not None and rank(best) < rank(thread):
        pi_step(kernel, scheduler.raise_priority(thread, best), thread, best, best_sem)


class StandardSemaphore:
    """Binary/counting semaphore, standard implementation."""

    def __init__(self, name: str, capacity: int = 1):
        if capacity < 1:
            raise ValueError("semaphore capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.available = capacity
        #: Current holder (binary semaphores only).
        self.holder: Optional["Thread"] = None
        #: Threads blocked in ``acquire_sem`` (lock granted on release).
        self.waiters: List["Thread"] = []
        # statistics
        self.acquires = 0
        self.contended_acquires = 0
        self.releases = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def locked(self) -> bool:
        return self.available == 0

    def donor_threads(self) -> List["Thread"]:
        """Threads whose priority the holder should inherit."""
        return list(self.waiters)

    # ------------------------------------------------------------------
    # operations (invoked by the kernel's op interpreter)
    # ------------------------------------------------------------------
    def acquire(self, kernel: "Kernel", thread: "Thread") -> bool:
        """Lock the semaphore for ``thread``.

        Returns True when acquired immediately; False when the thread
        was blocked (the lock is transferred at release time, so on
        wake-up the thread already holds it).
        """
        self.acquires += 1
        kernel.charge(kernel.model.sem_fixed_standard_ns // 2, "sem")
        if self.available > 0:
            self._grant(thread)
            return True
        self._wait(kernel, thread)
        return False

    def release(self, kernel: "Kernel", thread: "Thread") -> None:
        """Unlock; transfers ownership to the best waiter, if any."""
        kernel.charge(kernel.model.sem_fixed_standard_ns // 2, "sem")
        self._unlock(kernel, thread)

    # ------------------------------------------------------------------
    # the paths both schemes share
    # ------------------------------------------------------------------
    def _grant(self, thread: "Thread") -> None:
        self.available -= 1
        if self.capacity == 1:
            self.holder = thread
        thread.held_sems.append(self.name)

    def _wait(self, kernel: "Kernel", thread: "Thread") -> None:
        """Contended acquire: donate down the holder chain, then queue
        and block until the lock is handed over."""
        self.contended_acquires += 1
        self._inherit_chain(kernel, thread)
        self.waiters.append(thread)
        kernel.block_thread(thread, "sem", self)

    def _unlock(self, kernel: "Kernel", thread: "Thread") -> None:
        """Release body: undo inheritance, hand the lock over."""
        self.releases += 1
        if self.capacity == 1 and self.holder is not thread:
            raise SemaphoreError(
                f"{thread.name} released {self.name} held by "
                f"{self.holder.name if self.holder else 'nobody'}"
            )
        if self.name in thread.held_sems:
            thread.held_sems.remove(self.name)
        self.holder = None
        self.available += 1
        self._disinherit(kernel, thread)
        self._hand_off(kernel)

    def _hand_off(self, kernel: "Kernel") -> None:
        """Grant the lock to the highest-priority waiter and wake it."""
        if not self.waiters or self.available == 0:
            return
        best = min(self.waiters, key=kernel.priority_rank)
        self.waiters.remove(best)
        self._grant(best)
        kernel.unblock_thread(best)

    # ------------------------------------------------------------------
    # priority inheritance
    # ------------------------------------------------------------------
    def _inherit_chain(self, kernel: "Kernel", donor: "Thread") -> None:
        """Propagate ``donor``'s priority down the holder chain.

        ``donor`` waits for this semaphore (or is about to).  Every hop
        whose holder ranks below the donor is a donation through the
        hop's semaphore, made by its ``_donate``; the walk goes on while
        the holder itself waits for a semaphore, in its queue or parked
        on it by the hint check.
        """
        if self.capacity != 1:
            return  # counting semaphores have no single holder
        rank = kernel.priority_rank
        sem = self
        for _ in range(_MAX_PI_CHAIN):
            holder = sem.holder
            if holder is None:
                return
            awaited = holder.wait_on if holder.wait_kind in LOCK_WAITS else None
            if rank(donor) < rank(holder):
                direct = sem is self
                cost, kind = sem._donate(
                    kernel, donor, holder, direct and awaited is None
                )
                pi_step(kernel, cost, holder, donor, sem.name, kind, not direct)
            if awaited is None or awaited is sem:
                return
            sem = awaited

    def _donate(
        self, kernel: "Kernel", donor: "Thread", holder: "Thread", only_hop: bool
    ) -> Tuple[int, str]:
        """Give ``holder`` the ``donor``'s priority; returns the cost and
        the step's kind.  ``only_hop`` is true when the walk ends here:
        the donor waits for this semaphore and the holder for none."""
        return kernel.scheduler.raise_priority(holder, donor), "raise"

    def _disinherit(self, kernel: "Kernel", thread: "Thread") -> None:
        """Undo ``thread``'s inheritance after it released this semaphore."""
        recompute_inheritance(kernel, thread)

    def _disinherit_chain(self, kernel: "Kernel") -> None:
        """A donor left this semaphore (it was killed or restarted):
        re-derive each holder down the chain, which inherited through the
        hop before."""
        sem = self
        for _ in range(_MAX_PI_CHAIN):
            holder = sem.holder
            if holder is None:
                return
            sem._disinherit(kernel, holder)
            if holder.wait_kind not in LOCK_WAITS:
                return
            sem = holder.wait_on

    def __repr__(self) -> str:
        state = f"held by {self.holder.name}" if self.holder else "free"
        return f"<{type(self).__name__} {self.name} {state}, {len(self.waiters)} waiting>"
