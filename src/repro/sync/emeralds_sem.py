"""The EMERALDS semaphore scheme (Sections 6.2 and 6.3).

Two optimizations over :class:`~repro.sync.semaphore.StandardSemaphore`:

**Context-switch elimination.**  Every blocking call carries an extra
parameter -- the identifier of the semaphore the thread will lock next
(inserted by the code parser, Section 6.2.1).  When the event that
would unblock thread T2 occurs, the kernel first checks that
semaphore: if it is locked, priority inheritance to the holder T1
happens *right there*, T2 is parked on the semaphore, and the unblock
is suppressed.  T1 keeps running, releases the semaphore, and only
then is T2 made ready -- eliminating context switch C2 of Figure 7.

**O(1) priority inheritance on the FP queue.**  Because EMERALDS keeps
blocked tasks in the same sorted queue as ready ones, the holder can
simply *swap positions* (and effective keys) with the blocked donor:
the holder lands exactly where its inherited priority puts it (just
ahead of the donor) and the donor becomes a place-holder remembering
the holder's original position.  Undoing inheritance is the reverse
swap.  If a second, higher-priority donor T3 arrives, T3 becomes the
place-holder and T2 is swapped back to its own position (one extra
O(1) step, end of Section 6.2).

The transitive walk of :mod:`repro.sync.semaphore` applies under this
scheme too; the swap is one of its hops, made only where Section 6.2
applies: a donor that holds no lock, waiting directly on a holder that
waits for none.  Such a donor stays blocked, and lock-free, until the
reverse swap, so no thread is ever both a place-holder and a holder.
Every other hop raises as the standard scheme does.  A release whose
place-holder has left the queue (it was killed) re-derives the
holder's priority instead of swapping back.

**The pre-lock registry queue (Section 6.3.1).**  If the semaphore is
*free* when T2's wake-up event fires, T2 is unblocked normally but
recorded in a registry of threads that have completed their
hint-carrying blocking call without yet reaching ``acquire_sem()``.
When any thread locks the semaphore, every other registry member is
put to sleep (preventing the wasted wake-up of Figure 9); they are all
released again when the semaphore is unlocked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sync.semaphore import StandardSemaphore, pi_step, recompute_inheritance

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = ["EmeraldsSemaphore"]


class EmeraldsSemaphore(StandardSemaphore):
    """Semaphore with the Section 6 optimizations.

    ``use_swap_pi`` and ``use_hint_parking`` allow the two
    optimizations to be ablated independently (both default on).
    """

    def __init__(
        self,
        name: str,
        capacity: int = 1,
        use_swap_pi: bool = True,
        use_hint_parking: bool = True,
    ):
        super().__init__(name, capacity)
        self.use_swap_pi = use_swap_pi
        self.use_hint_parking = use_hint_parking
        #: The Section 6.3.1 registry is only armed when the code
        #: parser found a thread that may block while holding this
        #: semaphore (see repro.sync.parser.held_across_blocking);
        #: otherwise its bookkeeping would be pure overhead.
        self.registry_enabled = False
        #: Threads parked by the hint check: blocked *before* reaching
        #: their acquire call.  Unblocked (not granted) on release.
        self.parked: List["Thread"] = []
        #: Registry: threads past their hint-carrying blocking call but
        #: not yet at ``acquire_sem`` (Section 6.3.1).
        self.registry: List["Thread"] = []
        # statistics
        #: Hint parks; each one saves the context switch a premature
        #: wake-up would have cost (Section 6.2).
        self.parks = 0
        self.registry_blocks = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def donor_threads(self) -> List["Thread"]:
        return list(self.waiters) + list(self.parked)

    # ------------------------------------------------------------------
    # the hint check (called from the kernel's unblock path)
    # ------------------------------------------------------------------
    def on_hint_unblock(self, kernel: "Kernel", thread: "Thread") -> bool:
        """Unblock-time check of the parser-inserted hint.

        Returns True when the thread was parked (the caller must *not*
        unblock it); False when the thread should wake normally (it is
        then tracked in the registry).
        """
        if not self.use_hint_parking or self.capacity != 1:
            return False
        kernel.charge(kernel.model.sem_hint_check_ns, "sem")
        if self.locked:
            # Priority inheritance happens here, earlier than the
            # standard scheme would do it (safe: Section 6.2.3).
            self._inherit_chain(kernel, thread)
            self.parked.append(thread)
            self.parks += 1
            return True
        if self.registry_enabled:
            self.registry.append(thread)
        return False

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def acquire(self, kernel: "Kernel", thread: "Thread") -> bool:
        self.acquires += 1
        self._registry_discard(thread)
        kernel.charge(self._path_cost(kernel, contended=self.available == 0), "sem")
        if self.available > 0:
            self._grant(thread)
            # Section 6.3.1: freeze every other registry member so a
            # wasted wake-up (Figure 9) cannot happen.
            self._registry_freeze(kernel, thread)
            return True
        self._wait(kernel, thread)
        return False

    def release(self, kernel: "Kernel", thread: "Thread") -> None:
        contended = bool(self.waiters or self.parked or self.registry)
        kernel.charge(self._path_cost(kernel, contended), "sem")
        self._unlock(kernel, thread)
        # Wake the parked threads (they resume after their original
        # blocking call and will reach acquire_sem on their own) and
        # the registry members frozen by the lock.
        for parked in list(self.parked):
            self.parked.remove(parked)
            kernel.unblock_thread(parked)
        self._registry_thaw(kernel)

    def _path_cost(self, kernel: "Kernel", contended: bool) -> int:
        """Per-call fixed cost: the uncontended fast path costs the
        same as the standard implementation; the contended path (a lock
        to wait for, or parked/registry threads to manage) pays the
        larger EMERALDS fixed cost."""
        if contended:
            return kernel.model.sem_fixed_emeralds_ns // 2
        return kernel.model.sem_fixed_standard_ns // 2

    # ------------------------------------------------------------------
    # priority inheritance, O(1) flavour
    # ------------------------------------------------------------------
    def _donate(
        self, kernel: "Kernel", donor: "Thread", holder: "Thread", only_hop: bool
    ) -> Tuple[int, str]:
        scheduler = kernel.scheduler
        cost = 0
        if holder.pi_donor_of is not None:
            # A previous donor is acting as place-holder; put it back
            # first (the "T3 becomes T1's place-holder" case).
            cost = _put_back(kernel, holder) or 0
        if self.use_swap_pi and only_hop and not donor.held_sems:
            swap = scheduler.swap_with_placeholder(holder, donor)
            if swap is not None:
                holder.pi_donor_of = donor.name
                return cost + swap, "swap"
        # DP-queue tasks, cross-queue donations, nested or transitive
        # hops, or swap disabled: the standard raise (O(1) for DP tasks).
        return cost + scheduler.raise_priority(holder, donor), "raise"

    def _disinherit(self, kernel: "Kernel", thread: "Thread") -> None:
        if thread.pi_donor_of is not None:
            cost = _put_back(kernel, thread)
            if cost is not None:
                pi_step(kernel, cost, thread)
        # Re-derive what the swap could not undo: a killed place-holder,
        # a raise from before the swap, or donors still waiting on other
        # semaphores the thread holds.
        recompute_inheritance(kernel, thread)

    # ------------------------------------------------------------------
    # registry mechanics (Section 6.3.1)
    # ------------------------------------------------------------------
    def _registry_discard(self, thread: "Thread") -> None:
        if thread in self.registry:
            self.registry.remove(thread)

    def _registry_freeze(self, kernel: "Kernel", locker: "Thread") -> None:
        for member in list(self.registry):
            if member is locker:
                continue
            if member.wait_kind is None and member is not kernel.running:
                kernel.block_thread(member, "sem-registry", self)
                self.registry_blocks += 1

    def _registry_thaw(self, kernel: "Kernel") -> None:
        for member in list(self.registry):
            if member.wait_kind == "sem-registry" and member.wait_on is self:
                kernel.unblock_thread(member)


def _put_back(kernel: "Kernel", holder: "Thread") -> Optional[int]:
    """Reverse ``holder``'s place-holder swap; returns its cost, or
    ``None`` when the place-holder has left the queue (it was killed)."""
    placeholder = kernel.threads[holder.pi_donor_of]
    holder.pi_donor_of = None
    return kernel.scheduler.swap_with_placeholder(holder, placeholder)
