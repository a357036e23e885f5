"""Earliest-deadline-first scheduler (Section 5.1).

EMERALDS implements EDF with a *single unsorted queue* holding both
blocked and ready tasks: blocking and unblocking are O(1) TCB flag
updates; selection is an O(n) scan for the earliest-deadline ready
task.  The paper prefers this over a sorted queue (O(n) insert/delete
that "performs poorly as priorities change often due to semaphore use")
and over a heap (large constants; see Table 1's third column).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.overhead import OverheadModel
from repro.core.queues import Schedulable, UnsortedQueue
from repro.core.scheduler import Scheduler

__all__ = ["EDFScheduler"]


class EDFScheduler(Scheduler):
    """EDF over one unsorted queue, with Table 1's EDF cost column."""

    def __init__(self, model: Optional[OverheadModel] = None):
        super().__init__(model)
        self.queue = UnsortedQueue("EDF")
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
            raise ValueError(f"{task.name} is not scheduled by this EDF scheduler")
        return 0

    def priority_rank(self, task: Schedulable):
        deadline, key = task.edf_rank()
        return (0, deadline, key)

    def _price(self, queue: UnsortedQueue) -> None:
        n = len(queue)
        model = self.model
        queue.t_b = model.edf_block(n)
        queue.t_u = model.edf_unblock(n)
        queue.t_s = model.edf_select(n)

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
        # DP tasks are not kept sorted, so inheritance is an O(1)
        # overwrite of the deadline AND the tie-break key (Section 6.1).
        # Without the key, a donation from an equal-deadline donor would
        # leave the holder losing every tie and change nothing.
        deadline, key = donor.edf_rank()
        if deadline == float("inf"):
            task.pi_deadline = None
            task.pi_key = None
        else:
            task.pi_deadline = int(deadline)
            task.pi_key = key
        return self.model.pi_dp_step()

    def _restore_priority(self, task: Schedulable) -> int:
        task.pi_deadline = None
        task.pi_key = None
        return self.model.pi_dp_step()
