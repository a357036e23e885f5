"""Scheduler queue structures (Section 5.1).

Three queue disciplines are implemented, matching the three columns of
Table 1:

* :class:`UnsortedQueue` -- the EDF implementation: one unsorted list
  holding *all* tasks, blocked and ready.  Blocking and unblocking flip
  a TCB flag in O(1); selection scans the whole list for the
  earliest-deadline ready task in O(n).
* :class:`SortedQueue` -- the RM/fixed-priority implementation: one
  doubly-linked list of *all* tasks sorted by priority with a
  ``highestp`` pointer to the first ready task.  Selection is O(1);
  unblocking is O(1) (compare against ``highestp``); blocking is O(n)
  worst case (advance ``highestp`` to the next ready task).  Keeping
  blocked tasks in the queue is what enables the O(1)
  priority-inheritance place-holder swap of Section 6.2.
* :class:`ReadyHeap` -- the conventional alternative the paper measures
  for comparison: a binary heap of ready tasks with O(log n)
  insert/delete.

Each structure counts the work its last operation performed
(``last_scan_steps``), so tests can verify the claimed asymptotics
structurally rather than by wall-clock timing.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["Schedulable", "UnsortedQueue", "SortedQueue", "ReadyHeap"]

#: Effective-priority keys are tuples ordered lexicographically; smaller
#: sorts first (= higher priority).
PriorityKey = Tuple[Any, ...]

_INFINITY = float("inf")


class Schedulable:
    """Minimal TCB fields the scheduler queues operate on.

    Both the live kernel threads and the lightweight tasks used by the
    analytic machinery derive from this class.

    Attributes:
        name: Identifier used in traces and error messages.
        ready: True when the task is runnable.
        base_key: Static fixed-priority key (rate-monotonic: the
            period); smaller = higher priority.
        effective_key: Current fixed-priority key, possibly altered by
            priority inheritance.
        abs_deadline: Absolute deadline of the current job (ns), used by
            EDF queues.  ``None`` means "no active job".
        pi_deadline: Inherited absolute deadline (ns) or ``None``; EDF
            selection uses ``min(abs_deadline, pi_deadline)``.
        pi_key: Tie-break key inherited alongside ``pi_deadline``.
            Inheriting only the deadline is not enough: on a deadline
            tie the holder must also win the donor's tie-break, or
            equal-deadline tasks keep running ahead of it and the
            donation is a no-op.
    """

    __slots__ = (
        "name",
        "ready",
        "base_key",
        "effective_key",
        "abs_deadline",
        "pi_deadline",
        "pi_key",
        "csd_queue",
        "rank_cache",
        "_queue",
        "_node",
        "_heap_entry",
    )

    def __init__(self, name: str, base_key: PriorityKey):
        self.name = name
        self.ready = False
        self.base_key: PriorityKey = base_key
        self.effective_key: PriorityKey = base_key
        self.abs_deadline: Optional[int] = None
        self.pi_deadline: Optional[int] = None
        self.pi_key: Optional[PriorityKey] = None
        #: Memoized ``Kernel.priority_rank`` tuple; ``None`` = stale.
        #: Every site that mutates the fields the rank derives from
        #: (``effective_key``, ``abs_deadline``, ``pi_deadline``,
        #: ``csd_queue``) must reset this to ``None``.
        self.rank_cache: Optional[Tuple] = None
        #: CSD queue assignment (0-based; the FP queue is the last
        #: index).  ``None`` means "unassigned": CSD places the task on
        #: its FP queue.
        self.csd_queue: Optional[int] = None
        self._queue: Optional[object] = None
        self._node: Optional["_Node"] = None
        self._heap_entry: Optional[List[object]] = None

    @property
    def effective_deadline(self) -> float:
        """The deadline EDF selection sees, accounting for inheritance."""
        own = self.abs_deadline if self.abs_deadline is not None else _INFINITY
        inherited = self.pi_deadline if self.pi_deadline is not None else _INFINITY
        return min(own, inherited)

    def edf_rank(self) -> Tuple[float, PriorityKey]:
        """``(deadline, tie-break key)`` pair EDF selection orders by,
        accounting for inheritance of both components."""
        own = self.abs_deadline
        own_rank = (
            _INFINITY if own is None else own,
            self.effective_key,
        )
        inherited = self.pi_deadline
        if inherited is not None:
            pi_rank = (
                inherited,
                self.pi_key if self.pi_key is not None else self.effective_key,
            )
            if pi_rank < own_rank:
                return pi_rank
        return own_rank

    def __repr__(self) -> str:
        state = "ready" if self.ready else "blocked"
        return f"<{type(self).__name__} {self.name} {state}>"


class UnsortedQueue:
    """The EDF queue: one unsorted list of all (blocked and ready) tasks.

    Per Section 5.1, ``t_b`` and ``t_u`` are O(1) (a TCB flag flip) and
    ``t_s`` is O(n) (scan for the earliest effective deadline among
    ready tasks).
    """

    def __init__(self, name: str = "DP"):
        self.name = name
        self._tasks: List[Schedulable] = []
        self.ready_count = 0
        self.last_scan_steps = 0

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Schedulable]:
        return iter(self._tasks)

    def __contains__(self, task: Schedulable) -> bool:
        return task._queue is self

    def add(self, task: Schedulable) -> None:
        """Add a task (initially in whatever ready state it carries)."""
        if task._queue is not None:
            raise ValueError(f"{task.name} is already on a queue")
        task._queue = self
        self._tasks.append(task)
        if task.ready:
            self.ready_count += 1

    def remove(self, task: Schedulable) -> None:
        """Remove a task from the queue entirely."""
        self._check_membership(task)
        self._tasks.remove(task)
        task._queue = None
        if task.ready:
            self.ready_count -= 1

    def block(self, task: Schedulable) -> None:
        """Mark a ready task blocked.  O(1)."""
        if task._queue is not self:  # _check_membership, inlined
            raise ValueError(f"{task.name} is not on queue {self.name}")
        if not task.ready:
            raise ValueError(f"{task.name} is already blocked")
        task.ready = False
        self.ready_count -= 1
        self.last_scan_steps = 1

    def unblock(self, task: Schedulable) -> None:
        """Mark a blocked task ready.  O(1)."""
        if task._queue is not self:  # _check_membership, inlined
            raise ValueError(f"{task.name} is not on queue {self.name}")
        if task.ready:
            raise ValueError(f"{task.name} is already ready")
        task.ready = True
        self.ready_count += 1
        self.last_scan_steps = 1

    def select(self) -> Optional[Schedulable]:
        """Scan for the earliest-effective-deadline ready task.  O(n).

        ``effective_deadline`` is inlined: this loop runs once per
        dispatch over every task, and the property call dominated the
        EDF profile.
        """
        best: Optional[Schedulable] = None
        best_deadline = _INFINITY
        best_key = None
        tasks = self._tasks
        for task in tasks:
            if not task.ready:
                continue
            own = task.abs_deadline
            inherited = task.pi_deadline
            key = task.effective_key
            if own is None:
                deadline = _INFINITY if inherited is None else inherited
                if inherited is not None and task.pi_key is not None:
                    key = task.pi_key
            elif inherited is None or own < inherited:
                deadline = own
            else:
                # Inherited deadline wins or ties: the tie-break key is
                # inherited with it (a donation that only matched the
                # deadline would otherwise change nothing).
                deadline = inherited
                pk = task.pi_key
                if pk is not None and (inherited < own or pk < key):
                    key = pk
            # Tie-break on the effective key, then name, for determinism.
            if best is None or deadline < best_deadline or (
                deadline == best_deadline
                and (key, task.name) < (best_key, best.name)
            ):
                best = task
                best_deadline = deadline
                best_key = key
        self.last_scan_steps = len(tasks)
        return best

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if counters or back-pointers broke."""
        ready = 0
        for task in self._tasks:
            assert task._queue is self, f"{task.name}: queue back-pointer broken"
            if task.ready:
                ready += 1
        assert ready == self.ready_count, "ready_count mismatch"

    def _check_membership(self, task: Schedulable) -> None:
        if task._queue is not self:
            raise ValueError(f"{task.name} is not on queue {self.name}")


class _Node:
    """Doubly-linked list node for :class:`SortedQueue`."""

    __slots__ = ("task", "prev", "next")

    def __init__(self, task: Schedulable):
        self.task = task
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class SortedQueue:
    """The RM/FP queue: all tasks in one priority-sorted linked list.

    A ``highestp`` pointer tracks the first (highest-priority) *ready*
    task, making selection O(1).  Blocking must advance ``highestp``
    past blocked tasks, O(n) worst case.  Unblocking compares the
    task's effective key against ``highestp`` in O(1).

    The structure also provides the two O(1) priority-inheritance
    primitives of Section 6.2: :meth:`swap_positions` (the place-holder
    trick) and :meth:`move_before` (insert the inheriting holder
    directly ahead of the donor).
    """

    def __init__(self, name: str = "FP"):
        self.name = name
        self._head: Optional[_Node] = None
        self._tail: Optional[_Node] = None
        self._highestp: Optional[_Node] = None
        self._size = 0
        self.ready_count = 0
        self.last_scan_steps = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Schedulable]:
        node = self._head
        while node is not None:
            yield node.task
            node = node.next

    def __contains__(self, task: Schedulable) -> bool:
        return task._queue is self

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(self, task: Schedulable) -> None:
        """Insert a task at the position given by its effective key. O(n)."""
        if task._queue is not None:
            raise ValueError(f"{task.name} is already on a queue")
        node = _Node(task)
        task._queue = self
        task._node = node
        self._insert_sorted(node)
        self._size += 1
        if task.ready:
            self.ready_count += 1
            self._maybe_promote_highestp(node)

    def remove(self, task: Schedulable) -> None:
        """Unlink a task from the queue entirely."""
        self._check_membership(task)
        node = task._node
        assert node is not None
        if self._highestp is node:
            self._highestp = self._next_ready(node.next)
        self._unlink(node)
        self._size -= 1
        if task.ready:
            self.ready_count -= 1
        task._queue = None
        task._node = None

    # ------------------------------------------------------------------
    # scheduling operations
    # ------------------------------------------------------------------
    def block(self, task: Schedulable) -> None:
        """Mark ready task blocked; advance ``highestp`` if needed. O(n)."""
        if task._queue is not self:  # _check_membership, inlined
            raise ValueError(f"{task.name} is not on queue {self.name}")
        if not task.ready:
            raise ValueError(f"{task.name} is already blocked")
        task.ready = False
        self.ready_count -= 1
        node = task._node
        assert node is not None
        if self._highestp is node:
            self._highestp = self._next_ready(node.next)
        else:
            self.last_scan_steps = 1

    def unblock(self, task: Schedulable) -> None:
        """Mark blocked task ready; O(1) compare against ``highestp``."""
        if task._queue is not self:  # _check_membership, inlined
            raise ValueError(f"{task.name} is not on queue {self.name}")
        if task.ready:
            raise ValueError(f"{task.name} is already ready")
        task.ready = True
        self.ready_count += 1
        node = task._node
        assert node is not None
        self._maybe_promote_highestp(node)
        self.last_scan_steps = 1

    def select(self) -> Optional[Schedulable]:
        """Return the task under ``highestp``.  O(1)."""
        self.last_scan_steps = 1
        return self._highestp.task if self._highestp is not None else None

    # ------------------------------------------------------------------
    # priority inheritance primitives (Section 6.2)
    # ------------------------------------------------------------------
    def reposition(self, task: Schedulable) -> int:
        """Standard PI step: remove and reinsert by effective key.

        Returns the number of list steps performed (O(n)), so callers
        can verify the cost structurally.
        """
        self._check_membership(task)
        node = task._node
        assert node is not None
        if self._highestp is node:
            self._highestp = self._next_ready(node.next)
        self._unlink(node)
        steps = self._insert_sorted(node)
        if task.ready:
            self._maybe_promote_highestp(node)
        return steps

    def swap_positions(self, a: Schedulable, b: Schedulable) -> None:
        """The O(1) place-holder trick: exchange the queue positions and
        effective keys of two tasks.

        Used when a lock holder inherits a donor's priority: the holder
        takes the donor's position/key and the (blocked) donor becomes a
        place-holder remembering the holder's original position.  The
        list stays key-sorted because the keys move with the positions.
        """
        self._check_membership(a)
        self._check_membership(b)
        if a is b:
            return
        node_a, node_b = a._node, b._node
        assert node_a is not None and node_b is not None
        node_a.task, node_b.task = b, a
        a._node, b._node = node_b, node_a
        a.effective_key, b.effective_key = b.effective_key, a.effective_key
        # highestp pointed at a *node*; the tasks under the nodes moved,
        # so re-derive it from the earlier of the two nodes.
        if self._highestp in (node_a, node_b):
            earlier = node_a if self._is_before(node_a, node_b) else node_b
            self._highestp = self._next_ready(earlier)
        else:
            for node in (node_a, node_b):
                if node.task.ready:
                    self._maybe_promote_highestp(node)
        self.last_scan_steps = 1

    def move_before(self, task: Schedulable, anchor: Schedulable) -> None:
        """O(1) PI step: unlink ``task`` and relink it directly ahead of
        ``anchor``, adopting ``anchor``'s effective key."""
        self._check_membership(task)
        self._check_membership(anchor)
        if task is anchor:
            return
        node = task._node
        anchor_node = anchor._node
        assert node is not None and anchor_node is not None
        if self._highestp is node:
            self._highestp = self._next_ready(node.next)
        self._unlink(node)
        self._link_before(node, anchor_node)
        task.effective_key = anchor.effective_key
        if task.ready:
            self._maybe_promote_highestp(node)

    # ------------------------------------------------------------------
    # invariants and helpers
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any structural invariant is broken.

        Invariants: the list is non-decreasing in effective key;
        ``highestp`` points at the first ready task; ``ready_count``
        matches the number of ready tasks; node back-pointers agree.
        """
        prev_key = None
        first_ready = None
        count_ready = 0
        count = 0
        node = self._head
        while node is not None:
            count += 1
            task = node.task
            assert task._node is node, f"{task.name}: node back-pointer broken"
            assert task._queue is self, f"{task.name}: queue back-pointer broken"
            if prev_key is not None:
                assert prev_key <= task.effective_key, (
                    f"queue {self.name} not sorted at {task.name}"
                )
            prev_key = task.effective_key
            if task.ready:
                count_ready += 1
                if first_ready is None:
                    first_ready = node
            node = node.next
        assert count == self._size, "size mismatch"
        assert count_ready == self.ready_count, "ready_count mismatch"
        assert self._highestp is first_ready, "highestp not at first ready task"

    def tasks(self) -> List[Schedulable]:
        """Snapshot of the queue order, head (highest priority) first."""
        return list(self)

    def _check_membership(self, task: Schedulable) -> None:
        if task._queue is not self:
            raise ValueError(f"{task.name} is not on queue {self.name}")

    def _insert_sorted(self, node: _Node) -> int:
        """Link ``node`` at its sorted position; return steps walked."""
        key = (node.task.effective_key, node.task.name)
        steps = 0
        cursor = self._head
        while cursor is not None and (cursor.task.effective_key, cursor.task.name) <= key:
            cursor = cursor.next
            steps += 1
        self.last_scan_steps = steps + 1
        if cursor is None:
            # append at tail
            node.prev = self._tail
            node.next = None
            if self._tail is not None:
                self._tail.next = node
            self._tail = node
            if self._head is None:
                self._head = node
        else:
            self._link_before(node, cursor)
        return steps

    def _link_before(self, node: _Node, anchor: _Node) -> None:
        node.prev = anchor.prev
        node.next = anchor
        if anchor.prev is not None:
            anchor.prev.next = node
        else:
            self._head = node
        anchor.prev = node
        if node.next is None:
            self._tail = node

    def _unlink(self, node: _Node) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = None
        node.next = None

    def _next_ready(self, node: Optional[_Node]) -> Optional[_Node]:
        steps = 0
        while node is not None and not node.task.ready:
            node = node.next
            steps += 1
        self.last_scan_steps = steps + 1
        return node

    def _maybe_promote_highestp(self, node: _Node) -> None:
        if self._highestp is None or self._is_before(node, self._highestp):
            self._highestp = node

    def _is_before(self, a: _Node, b: _Node) -> bool:
        """True if node ``a`` precedes ``b`` (or is ``b``) in list order.

        Comparison is by key (the list is sorted), falling back to a
        forward walk on exact ties, which only happens between a task
        and its place-holder during PI.
        """
        if a is b:
            return True
        ka = a.task.effective_key
        kb = b.task.effective_key
        if ka != kb:
            return ka < kb
        node = a.next
        while node is not None:
            if node is b:
                return True
            node = node.next
        return False


class ReadyHeap:
    """The conventional alternative: a binary heap of *ready* tasks.

    Table 1's third column.  Blocking removes from the heap (lazy
    invalidation), unblocking pushes, selection peeks the root.
    """

    def __init__(self, name: str = "HEAP"):
        self.name = name
        self._members: List[Schedulable] = []
        self._heap: List[List[object]] = []
        self._counter = 0
        self.ready_count = 0
        self.last_scan_steps = 0

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Schedulable]:
        return iter(self._members)

    def __contains__(self, task: Schedulable) -> bool:
        return task._queue is self

    def add(self, task: Schedulable) -> None:
        """Register a task; ready tasks enter the heap immediately."""
        if task._queue is not None:
            raise ValueError(f"{task.name} is already on a queue")
        task._queue = self
        self._members.append(task)
        if task.ready:
            self._push(task)
            self.ready_count += 1

    def remove(self, task: Schedulable) -> None:
        """Withdraw a task from the structure entirely."""
        self._check_membership(task)
        self._members.remove(task)
        if task.ready:
            self._invalidate(task)
            self.ready_count -= 1
        task._queue = None

    def block(self, task: Schedulable) -> None:
        """O(log n): invalidate the heap entry."""
        self._check_membership(task)
        if not task.ready:
            raise ValueError(f"{task.name} is already blocked")
        task.ready = False
        self.ready_count -= 1
        self._invalidate(task)

    def unblock(self, task: Schedulable) -> None:
        """O(log n): push onto the heap."""
        self._check_membership(task)
        if task.ready:
            raise ValueError(f"{task.name} is already ready")
        task.ready = True
        self.ready_count += 1
        self._push(task)

    def select(self) -> Optional[Schedulable]:
        """O(1) amortized: peek the first valid root."""
        steps = 0
        while self._heap:
            steps += 1
            entry = self._heap[0]
            if entry[2] is None:
                heapq.heappop(self._heap)
                continue
            self.last_scan_steps = steps
            task = entry[2]
            assert isinstance(task, Schedulable)
            return task
        self.last_scan_steps = steps
        return None

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the heap bookkeeping broke.

        Invariants: counters match membership; every ready member has a
        live heap entry pointing back at it; every live heap entry's
        task is a ready member; the heap property holds on keys.
        """
        ready = 0
        for task in self._members:
            assert task._queue is self, f"{task.name}: queue back-pointer broken"
            if task.ready:
                ready += 1
                entry = task._heap_entry
                assert entry is not None, f"{task.name}: ready but no heap entry"
                assert entry[2] is task, f"{task.name}: heap entry points elsewhere"
        assert ready == self.ready_count, "ready_count mismatch"
        members = set(id(t) for t in self._members)
        heap = self._heap
        for i, entry in enumerate(heap):
            task = entry[2]
            if task is not None:
                assert isinstance(task, Schedulable)
                assert id(task) in members, f"{task.name}: heap entry for non-member"
                assert task.ready, f"{task.name}: live heap entry while blocked"
            for child in (2 * i + 1, 2 * i + 2):
                if child < len(heap):
                    assert heap[i][:2] <= heap[child][:2], "heap property broken"

    def _push(self, task: Schedulable) -> None:
        self._counter += 1
        entry: List[object] = [task.effective_key, self._counter, task]
        task._heap_entry = entry
        heapq.heappush(self._heap, entry)

    def _invalidate(self, task: Schedulable) -> None:
        entry = task._heap_entry
        if entry is not None:
            entry[2] = None
            task._heap_entry = None

    def _check_membership(self, task: Schedulable) -> None:
        if task._queue is not self:
            raise ValueError(f"{task.name} is not on queue {self.name}")
