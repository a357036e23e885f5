"""Rate-monotonic / fixed-priority scheduler (Section 5.1).

Two implementations, matching Table 1:

* :class:`RMScheduler` -- EMERALDS' own: one sorted queue holding *all*
  tasks (blocked and ready) with a ``highestp`` pointer.  Selection and
  unblocking are O(1); blocking is O(n) worst case.  Keeping blocked
  tasks in the queue enables the Section 6 semaphore optimizations.
* :class:`RMHeapScheduler` -- the conventional ready-heap variant the
  paper measures for comparison; O(log n) block/unblock but larger
  constants, so it only wins for very large n (58 on their hardware).

Any fixed-priority assignment works (the paper notes deadline-monotonic
as an alternative); the priority is whatever ``task.base_key`` encodes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.overhead import OverheadModel
from repro.core.queues import ReadyHeap, Schedulable, SortedQueue
from repro.core.scheduler import Scheduler

__all__ = ["RMScheduler", "RMHeapScheduler"]


class RMScheduler(Scheduler):
    """Fixed-priority scheduling over one sorted all-task queue."""

    def __init__(self, model: Optional[OverheadModel] = None):
        super().__init__(model)
        self.queue = SortedQueue("FP")
        self._price(self.queue)

    def add_task(self, task: Schedulable) -> None:
        self.queue.add(task)
        self._price(self.queue)

    def remove_task(self, task: Schedulable) -> None:
        self.queue.remove(task)
        self._price(self.queue)

    def tasks(self) -> List[Schedulable]:
        return list(self.queue)

    def queue_lengths(self) -> List[int]:
        return [len(self.queue)]

    def queue_index_of(self, task: Schedulable) -> int:
        if task not in self.queue:
            raise ValueError(f"{task.name} is not scheduled by this RM scheduler")
        return 0

    def check_invariants(self) -> None:
        self.queue.check_invariants()

    def _price(self, queue: SortedQueue) -> None:
        n = len(queue)
        model = self.model
        queue.t_b = model.rm_block(n)
        queue.t_u = model.rm_unblock(n)
        queue.t_s = model.rm_select(n)

    def _block(self, task: Schedulable) -> int:
        queue = self.queue
        queue.block(task)
        return queue.t_b

    def _unblock(self, task: Schedulable) -> int:
        queue = self.queue
        queue.unblock(task)
        return queue.t_u

    def _select(self) -> Tuple[Optional[Schedulable], int]:
        queue = self.queue
        return queue.select(), queue.t_s

    def _raise_priority(self, task: Schedulable, donor: Schedulable) -> int:
        task.effective_key = donor.effective_key
        self.queue.reposition(task)
        return self.model.pi_standard_step(len(self.queue))

    def _restore_priority(self, task: Schedulable) -> int:
        task.effective_key = task.base_key
        self.queue.reposition(task)
        return self.model.pi_standard_step(len(self.queue))

    def _swap_with_placeholder(
        self, holder: Schedulable, placeholder: Schedulable
    ) -> Optional[int]:
        if holder not in self.queue or placeholder not in self.queue:
            return None
        self.queue.swap_positions(holder, placeholder)
        return self.model.pi_o1_step()


class RMHeapScheduler(Scheduler):
    """Fixed-priority scheduling over a binary heap of ready tasks.

    The O(1) place-holder PI trick is *not* available here: the heap
    holds only ready tasks, so there is nowhere to park a place-holder
    (the paper makes exactly this point at the end of Section 6.2).
    """

    def __init__(self, model: Optional[OverheadModel] = None):
        super().__init__(model)
        self.queue = ReadyHeap("HEAP")

    def add_task(self, task: Schedulable) -> None:
        self.queue.add(task)

    def remove_task(self, task: Schedulable) -> None:
        self.queue.remove(task)

    def tasks(self) -> List[Schedulable]:
        return list(self.queue)

    def queue_lengths(self) -> List[int]:
        return [len(self.queue)]

    def queue_index_of(self, task: Schedulable) -> int:
        if task not in self.queue:
            raise ValueError(f"{task.name} is not scheduled by this scheduler")
        return 0

    def _block(self, task: Schedulable) -> int:
        self.queue.block(task)
        return self.model.heap_block(len(self.queue))

    def _unblock(self, task: Schedulable) -> int:
        self.queue.unblock(task)
        return self.model.heap_unblock(len(self.queue))

    def _select(self) -> Tuple[Optional[Schedulable], int]:
        task = self.queue.select()
        return task, self.model.heap_select(len(self.queue))

    def _raise_priority(self, task: Schedulable, donor: Schedulable) -> int:
        # Re-keying a heap entry: invalidate + reinsert when ready.
        task.effective_key = donor.effective_key
        if task.ready:
            self.queue.block(task)
            self.queue.unblock(task)
        return self.model.heap_block(len(self.queue)) + self.model.heap_unblock(
            len(self.queue)
        )

    def _restore_priority(self, task: Schedulable) -> int:
        task.effective_key = task.base_key
        if task.ready:
            self.queue.block(task)
            self.queue.unblock(task)
        return self.model.heap_block(len(self.queue)) + self.model.heap_unblock(
            len(self.queue)
        )
