"""The Combined Static/Dynamic (CSD) scheduler (Sections 5.3-5.6).

CSD-x maintains ``x`` queues: ``x - 1`` dynamic-priority (DP) queues
scheduled internally by EDF, followed by one fixed-priority (FP) queue
scheduled by RM (or any fixed-priority assignment).  Queues are
strictly prioritized: DP1 tasks always beat DP2 tasks, which always
beat FP tasks.  A per-DP-queue counter of ready tasks lets the selector
skip empty queues at the cost of one list-parse step (0.55 us each,
Section 5.7) without scanning them.

The degenerate configurations behave as the paper says: every task on
the single FP queue is plain RM; every task on one DP queue is plain
EDF (plus the queue-parse cost).

Tasks carry their queue assignment in ``Schedulable.csd_queue``
(0-based; the FP queue is index ``x - 1``).  Assignments normally come
from :mod:`repro.core.allocation`, which reproduces the paper's
offline search.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.overhead import OverheadModel
from repro.core.queues import Schedulable, SortedQueue, UnsortedQueue
from repro.core.scheduler import Scheduler

__all__ = ["CSDScheduler"]


class CSDScheduler(Scheduler):
    """CSD-x: ``dp_queue_count`` EDF queues over one RM queue."""

    def __init__(
        self,
        model: Optional[OverheadModel] = None,
        dp_queue_count: int = 1,
        shed_overload: bool = False,
    ):
        super().__init__(model)
        if dp_queue_count < 0:
            raise ValueError("dp_queue_count must be >= 0")
        self.dp_queues: List[UnsortedQueue] = [
            UnsortedQueue(f"DP{i + 1}") for i in range(dp_queue_count)
        ]
        self.fp_queue = SortedQueue("FP")
        # Graceful degradation: while a band overruns, releases of its
        # lowest-criticality tasks are shed (see :meth:`_shed_release`).
        # The policy is bound on the instance only when shedding, so the
        # kernel sees the base admit-everything method otherwise and
        # never calls it.
        if shed_overload:
            self.admit_release = self._shed_release
        #: Releases refused by the shedding policy, by task name.
        self.shed_counts: Dict[str, int] = {}
        # PI bookkeeping: tasks temporarily migrated to a higher queue,
        # mapped to their home queue index.
        self._pi_home: Dict[Schedulable, int] = {}
        # Per-length charged-cost memos; see EDFScheduler.__init__.
        self._block_costs: Dict[Tuple[bool, int], int] = {}
        self._unblock_costs: Dict[Tuple[bool, int], int] = {}
        self._select_costs: Dict[Tuple[bool, int], int] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def queue_count(self) -> int:
        """Total number of queues (the x in CSD-x)."""
        return len(self.dp_queues) + 1

    @property
    def fp_index(self) -> int:
        """Queue index of the FP queue (always the last one)."""
        return len(self.dp_queues)

    def queue_lengths(self) -> List[int]:
        return [len(q) for q in self.dp_queues] + [len(self.fp_queue)]

    def queue_index_of(self, task: Schedulable) -> int:
        # O(1) in the common case: membership is an identity check on
        # the task's queue back-pointer, and ``task.csd_queue`` tracks
        # the index through PI migrations.
        queue = task._queue
        if queue is self.fp_queue:
            return self.fp_index
        dp_queues = self.dp_queues
        index = task.csd_queue
        if index is not None and index < len(dp_queues) and queue is dp_queues[index]:
            return index
        for i, candidate in enumerate(dp_queues):
            if queue is candidate:
                return i
        raise ValueError(f"{task.name} is not scheduled by this CSD scheduler")

    def _queue_at(self, index: int):
        if index == self.fp_index:
            return self.fp_queue
        return self.dp_queues[index]

    def priority_rank(self, task: Schedulable):
        index = self.queue_index_of(task)
        if index == self.fp_index:
            return (index, 0, task.effective_key)
        deadline, key = task.edf_rank()
        return (index, deadline, key)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_task(self, task: Schedulable) -> None:
        """Place ``task`` on the queue named by ``task.csd_queue``.

        Unassigned tasks default to the FP queue, mirroring the paper's
        default of scheduling unproblematic tasks with cheap RM.
        """
        index = task.csd_queue if task.csd_queue is not None else self.fp_index
        if not 0 <= index <= self.fp_index:
            raise ValueError(
                f"{task.name}: csd_queue {index} out of range for CSD-{self.queue_count}"
            )
        task.csd_queue = index
        self._queue_at(index).add(task)

    def remove_task(self, task: Schedulable) -> None:
        index = self.queue_index_of(task)
        self._queue_at(index).remove(task)
        self._pi_home.pop(task, None)

    def tasks(self) -> List[Schedulable]:
        found: List[Schedulable] = []
        for queue in self.dp_queues:
            found.extend(queue)
        found.extend(self.fp_queue)
        return found

    def check_invariants(self) -> None:
        self.fp_queue.check_invariants()

    # ------------------------------------------------------------------
    # overload shedding (graceful degradation, beyond the paper)
    # ------------------------------------------------------------------
    def _shed_release(self, task: Schedulable, now: int) -> bool:
        """``admit_release`` under ``shed_overload=True``: shed releases
        of low-criticality tasks in an overrunning band.

        A band is *overrunning* when some other task in it is ready
        with an expired deadline, or is so far behind that releases
        have queued up behind its unfinished job.  While that holds,
        releases of tasks strictly less critical than the worst
        overrunner are skipped, turning the band-isolation observations
        of ``tests/test_overload.py`` into enforced guarantees: the
        most critical tasks of the band keep their slack instead of
        queueing behind overload-inflated EDF backlogs.
        """
        queue = self._queue_at(self.queue_index_of(task))
        overrun_criticality: Optional[int] = None
        for other in queue:
            if other is task or not other.ready:
                continue
            late = other.abs_deadline is not None and other.abs_deadline < now
            backlog = getattr(other, "pending_releases", 0) > 0
            if late or backlog:
                criticality = getattr(other, "criticality", 0)
                if overrun_criticality is None or criticality > overrun_criticality:
                    overrun_criticality = criticality
        if overrun_criticality is None:
            return True
        if getattr(task, "criticality", 0) >= overrun_criticality:
            return True
        self.shed_counts[task.name] = self.shed_counts.get(task.name, 0) + 1
        return False

    # ------------------------------------------------------------------
    # scheduling primitives (cost cases of Section 5.4 / Table 3)
    # ------------------------------------------------------------------
    def _block(self, task: Schedulable) -> int:
        # Per-job path: the task's back-pointer names its queue, and
        # the ``in`` (identity compares) only proves the queue is ours.
        queue = task._queue
        if queue is self.fp_queue:
            # FP task blocks: t_b = O(n - r), advance highestp.
            queue.block(task)
            key = (True, queue._size)
        elif queue in self.dp_queues:
            # DP task blocks: t_b = O(1), a TCB flag update.
            queue.block(task)
            key = (False, len(queue._tasks))
        else:
            raise ValueError(f"{task.name} is not scheduled by this CSD scheduler")
        cost = self._block_costs.get(key)
        if cost is None:
            fn = self.model.rm_block if key[0] else self.model.edf_block
            cost = self._block_costs[key] = fn(key[1])
        return cost

    def _unblock(self, task: Schedulable) -> int:
        queue = task._queue  # as in _block
        if queue is self.fp_queue:
            queue.unblock(task)
            key = (True, queue._size)
        elif queue in self.dp_queues:
            queue.unblock(task)
            key = (False, len(queue._tasks))
        else:
            raise ValueError(f"{task.name} is not scheduled by this CSD scheduler")
        cost = self._unblock_costs.get(key)
        if cost is None:
            fn = self.model.rm_unblock if key[0] else self.model.edf_unblock
            cost = self._unblock_costs[key] = fn(key[1])
        return cost

    def _select(self) -> Tuple[Optional[Schedulable], int]:
        """Walk the prioritized queue list; parse the first live queue.

        Charges the flat ``x * 0.55 us`` queue-list parse of Section 5.7
        plus the selection cost of the queue actually parsed: an O(len)
        EDF scan for a DP queue with ready tasks, or the O(1)
        ``highestp`` dereference for the FP queue.
        """
        dp_queues = self.dp_queues
        parse = (len(dp_queues) + 1) * self.model.queue_parse_ns
        for queue in dp_queues:
            if queue.ready_count > 0:
                task = queue.select()
                key = (False, len(queue._tasks))
                cost = self._select_costs.get(key)
                if cost is None:
                    cost = self._select_costs[key] = self.model.edf_select(key[1])
                return task, parse + cost
        fp_queue = self.fp_queue
        task = fp_queue.select()
        key = (True, fp_queue._size)
        cost = self._select_costs.get(key)
        if cost is None:
            cost = self._select_costs[key] = self.model.rm_select(key[1])
        return task, parse + cost

    # ------------------------------------------------------------------
    # priority inheritance
    # ------------------------------------------------------------------
    def _raise_priority(self, task: Schedulable, donor: Schedulable) -> int:
        """Give ``task`` the donor's priority, migrating across queues
        when the donor lives on a higher-priority queue.

        Within a DP queue this is the O(1) deadline overwrite; within
        the FP queue it is the standard O(n) remove-and-reinsert (the
        O(1) place-holder swap is offered separately via
        :meth:`swap_with_placeholder`).  Cross-queue inheritance
        (not detailed in the paper; needed for full nested-locking
        generality) temporarily moves the holder to the donor's queue.
        """
        holder_index = self.queue_index_of(task)
        donor_index = self.queue_index_of(donor)
        donor_deadline, donor_key = donor.edf_rank()
        if donor_deadline == float("inf"):
            inherited = None
            donor_key = None
        else:
            inherited = int(donor_deadline)
        if donor_index > holder_index:
            # Donor is on a lower-priority queue; within the same queue
            # semantics below still apply, across queues nothing to do.
            if holder_index != donor_index:
                return self.model.pi_dp_step()
        if donor_index == holder_index:
            if holder_index == self.fp_index:
                task.effective_key = donor.effective_key
                self.fp_queue.reposition(task)
                return self.model.pi_standard_step(len(self.fp_queue))
            task.pi_deadline = inherited
            task.pi_key = donor_key
            return self.model.pi_dp_step()
        # donor_index < holder_index: migrate the holder up.
        self._pi_home.setdefault(task, holder_index)
        self._queue_at(holder_index).remove(task)
        task.csd_queue = donor_index
        if donor_index == self.fp_index:
            task.effective_key = donor.effective_key
            self.fp_queue.add(task)
        else:
            task.pi_deadline = inherited
            task.pi_key = donor_key
            self.dp_queues[donor_index].add(task)
        return self.model.pi_standard_step(
            max(len(self._queue_at(donor_index)), len(self._queue_at(holder_index)))
        )

    def _restore_priority(self, task: Schedulable) -> int:
        current = self.queue_index_of(task)
        home = self._pi_home.pop(task, current)
        if home != current:
            self._queue_at(current).remove(task)
            task.csd_queue = home
            task.pi_deadline = None
            task.pi_key = None
            task.effective_key = task.base_key
            self._queue_at(home).add(task)
            return self.model.pi_standard_step(
                max(len(self._queue_at(home)), len(self._queue_at(current)))
            )
        if current == self.fp_index:
            task.effective_key = task.base_key
            self.fp_queue.reposition(task)
            return self.model.pi_standard_step(len(self.fp_queue))
        task.pi_deadline = None
        task.pi_key = None
        return self.model.pi_dp_step()

    def _swap_with_placeholder(
        self, holder: Schedulable, placeholder: Schedulable
    ) -> Optional[int]:
        if holder not in self.fp_queue or placeholder not in self.fp_queue:
            return None
        self.fp_queue.swap_positions(holder, placeholder)
        return self.model.pi_o1_step()
