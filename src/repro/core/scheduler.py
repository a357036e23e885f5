"""Abstract scheduler interface shared by EDF, RM, and CSD.

The kernel (``repro.kernel.kernel``) drives a scheduler through this
interface.  Every mutating call returns the *charged cost* in integer
nanoseconds, computed from the :class:`~repro.core.overhead.OverheadModel`
exactly as Section 5.1 accounts it: ``t_b`` when a task blocks, ``t_u``
when a task unblocks, and ``t_s`` each time the next task to run is
selected (which the kernel does after every block and unblock).

Priority inheritance is exposed as three primitives used by the
semaphore implementations of Section 6:

* :meth:`Scheduler.raise_priority` / :meth:`Scheduler.restore_priority`
  -- the standard remove-and-reinsert path, O(n) on fixed-priority
  queues, O(1) for dynamic-priority tasks (the deadline field in the
  TCB is simply overwritten, since the EDF queue is unsorted);
* :meth:`Scheduler.swap_with_placeholder` -- the O(1) place-holder swap
  of Section 6.2, available when both tasks sit on the same
  fixed-priority queue.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.overhead import OverheadModel
from repro.core.queues import Schedulable

__all__ = ["Scheduler", "SchedulerStats"]


@dataclass(slots=True)
class SchedulerStats:
    """Operation counts and charged virtual time, per category.

    Slotted: these counters are bumped on every scheduler invocation,
    and slot stores are measurably cheaper than ``__dict__`` writes.
    """

    blocks: int = 0
    unblocks: int = 0
    selects: int = 0
    charged_block_ns: int = 0
    charged_unblock_ns: int = 0
    charged_select_ns: int = 0
    charged_pi_ns: int = 0

    @property
    def charged_total_ns(self) -> int:
        """All virtual time charged to scheduler activity."""
        return (
            self.charged_block_ns
            + self.charged_unblock_ns
            + self.charged_select_ns
            + self.charged_pi_ns
        )


class Scheduler(ABC):
    """Base class for the three scheduling policies of Section 5."""

    def __init__(self, model: Optional[OverheadModel] = None):
        self.model = model if model is not None else OverheadModel()
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @abstractmethod
    def add_task(self, task: Schedulable) -> None:
        """Register a task with the scheduler (initially blocked or ready
        according to ``task.ready``)."""

    @abstractmethod
    def remove_task(self, task: Schedulable) -> None:
        """Withdraw a task from scheduling."""

    @abstractmethod
    def tasks(self) -> List[Schedulable]:
        """All registered tasks."""

    # ------------------------------------------------------------------
    # the three paper primitives
    #
    # NOTE: the kernel's per-job hot paths (_on_release, _retire_job,
    # _dispatch in repro.kernel.kernel) inline these wrappers -- they
    # call the _block/_unblock/_select hooks directly and bump the same
    # stats fields themselves to save a call frame per invocation.  Any
    # bookkeeping added here must be mirrored there.
    # ------------------------------------------------------------------
    def on_block(self, task: Schedulable) -> int:
        """Record that ``task`` blocked; return the charged ``t_b``."""
        cost = self._block(task)
        self.stats.blocks += 1
        self.stats.charged_block_ns += cost
        return cost

    def on_unblock(self, task: Schedulable) -> int:
        """Record that ``task`` unblocked; return the charged ``t_u``."""
        cost = self._unblock(task)
        self.stats.unblocks += 1
        self.stats.charged_unblock_ns += cost
        return cost

    def select(self) -> Tuple[Optional[Schedulable], int]:
        """Pick the next task to run; return ``(task, charged t_s)``."""
        task, cost = self._select()
        self.stats.selects += 1
        self.stats.charged_select_ns += cost
        return task, cost

    # ------------------------------------------------------------------
    # priority inheritance
    # ------------------------------------------------------------------
    def raise_priority(self, task: Schedulable, donor: Schedulable) -> int:
        """Standard PI step: give ``task`` the ``donor``'s priority.

        The scheduler takes whatever it needs from the donor: its
        effective fixed-priority key, its effective deadline, and (for
        CSD) the queue it lives on.  Returns the charged cost.
        """
        cost = self._raise_priority(task, donor)
        task.rank_cache = None
        donor.rank_cache = None
        self.stats.charged_pi_ns += cost
        return cost

    def restore_priority(self, task: Schedulable) -> int:
        """Standard PI step: return ``task`` to its base priority."""
        cost = self._restore_priority(task)
        task.rank_cache = None
        self.stats.charged_pi_ns += cost
        return cost

    def swap_with_placeholder(
        self, holder: Schedulable, placeholder: Schedulable
    ) -> Optional[int]:
        """O(1) PI via the place-holder trick, if applicable.

        Returns the charged cost, or ``None`` when the two tasks are not
        on the same fixed-priority queue (the caller then falls back to
        :meth:`raise_priority`).
        """
        cost = self._swap_with_placeholder(holder, placeholder)
        if cost is not None:
            holder.rank_cache = None
            placeholder.rank_cache = None
            self.stats.charged_pi_ns += cost
        return cost

    # ------------------------------------------------------------------
    # overload shedding
    # ------------------------------------------------------------------
    def admit_release(self, task: Schedulable, now: int) -> bool:
        """Admission check the kernel runs at every job release.

        The default policy admits everything (the paper's kernel never
        refuses work).  A scheduler implementing graceful degradation
        replaces it on the instance (``CSDScheduler(shed_overload=True)``
        binds its shedding policy) to skip releases of low-criticality
        tasks while their band overruns.  The kernel looks once, at
        construction, at the instance's bound method, and never calls
        this default.
        """
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def priority_rank(self, task: Schedulable) -> Tuple:
        """Total order on urgency: smaller = more urgent.

        Used for tie-breaking outside the queues proper (semaphore
        wait-queue pops, PI donor choice).  Fixed-priority schedulers
        compare effective keys; EDF compares effective deadlines; CSD
        compares (queue, deadline-or-key).
        """
        return (0, 0, task.effective_key)

    @abstractmethod
    def queue_lengths(self) -> List[int]:
        """Length of each queue, highest-priority queue first."""

    def queue_index_of(self, task: Schedulable) -> int:
        """Index of the queue holding ``task`` (0 = highest priority)."""
        raise NotImplementedError

    def check_invariants(self) -> None:
        """Verify internal structural invariants (used by tests)."""

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _block(self, task: Schedulable) -> int: ...

    @abstractmethod
    def _unblock(self, task: Schedulable) -> int: ...

    @abstractmethod
    def _select(self) -> Tuple[Optional[Schedulable], int]: ...

    @abstractmethod
    def _raise_priority(self, task: Schedulable, donor: Schedulable) -> int: ...

    @abstractmethod
    def _restore_priority(self, task: Schedulable) -> int: ...

    def _swap_with_placeholder(
        self, holder: Schedulable, placeholder: Schedulable
    ) -> Optional[int]:
        return None
