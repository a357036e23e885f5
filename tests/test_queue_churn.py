"""Randomized churn property tests for the scheduler queues.

Each queue discipline (:class:`UnsortedQueue`, :class:`SortedQueue`,
:class:`ReadyHeap`) is driven through long random sequences of
add/remove/block/unblock (plus discipline-specific mutations:
deadline retargeting and priority inheritance for EDF, ``reposition``
for the sorted list) while a brute-force reference model tracks the
same population.  After **every** operation the structure's own
``check_invariants`` must hold and ``select()`` must agree with the
reference answer.

Keys and deadlines are globally unique, so the reference selection is
a total order and the comparison is exact -- no tie-break ambiguity.

The schedulers price each queue once per length, so a second churn
drives EDF, RM, CSD-2 and CSD-3 through joins, leaves and CSD's
cross-queue PI migrations, and checks every ``_block``/``_unblock``/
``_select`` charge against the model at the queue's current length.
"""

import random

import pytest

from repro.core.csd import CSDScheduler
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel
from repro.core.queues import ReadyHeap, Schedulable, SortedQueue, UnsortedQueue
from repro.core.rm import RMScheduler

SEEDS = [0, 1, 2, 3, 4]
OPS = 400


class _Churn:
    """Shared scaffolding: unique value generation + reference model."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._counter = 0
        self.members = []  # reference population, insertion order

    def unique(self) -> int:
        """A fresh value, random in the high bits, unique in the low."""
        self._counter += 1
        return self.rng.randrange(1_000_000) * 10_000 + self._counter

    def new_task(self) -> Schedulable:
        task = Schedulable(f"t{self._counter}", (self.unique(),))
        task.abs_deadline = self.unique()
        task.ready = self.rng.random() < 0.6
        return task

    def ready_members(self):
        return [t for t in self.members if t.ready]

    def blocked_members(self):
        return [t for t in self.members if not t.ready]


def _check(queue, churn, expected_select):
    queue.check_invariants()
    assert len(queue) == len(churn.members)
    assert queue.ready_count == len(churn.ready_members())
    assert queue.select() is expected_select(churn)


def _edf_expected(churn):
    ready = churn.ready_members()
    if not ready:
        return None
    return min(ready, key=lambda t: t.effective_deadline)


def _fp_expected(churn):
    ready = churn.ready_members()
    if not ready:
        return None
    return min(ready, key=lambda t: (t.effective_key, t.name))


def _drive(queue, churn, mutate, expected_select):
    """The churn loop: weighted random ops, full validation each step."""
    rng = churn.rng
    for _ in range(OPS):
        roll = rng.random()
        if roll < 0.30 or not churn.members:
            task = churn.new_task()
            queue.add(task)
            churn.members.append(task)
        elif roll < 0.40:
            task = rng.choice(churn.members)
            queue.remove(task)
            churn.members.remove(task)
        elif roll < 0.60 and churn.ready_members():
            queue.block(rng.choice(churn.ready_members()))
        elif roll < 0.80 and churn.blocked_members():
            queue.unblock(rng.choice(churn.blocked_members()))
        else:
            mutate(queue, churn)
        _check(queue, churn, expected_select)
    # Drain: every remaining task must come back out cleanly.
    while churn.members:
        task = churn.rng.choice(churn.members)
        queue.remove(task)
        churn.members.remove(task)
        _check(queue, churn, expected_select)


@pytest.mark.parametrize("seed", SEEDS)
def test_unsorted_queue_churn(seed):
    """EDF queue: O(1) flag flips + deadline/PI mutations stay exact."""

    def mutate(queue, churn):
        task = churn.rng.choice(churn.members)
        if churn.rng.random() < 0.5:
            task.abs_deadline = churn.unique()
        elif task.pi_deadline is None:
            task.pi_deadline = churn.unique()
        else:
            task.pi_deadline = None

    churn = _Churn(seed)
    _drive(UnsortedQueue(), churn, mutate, _edf_expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_sorted_queue_churn(seed):
    """FP linked list: highestp tracking survives reposition churn."""

    def mutate(queue, churn):
        task = churn.rng.choice(churn.members)
        task.effective_key = (churn.unique(),)
        queue.reposition(task)

    churn = _Churn(seed)
    _drive(SortedQueue(), churn, mutate, _fp_expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_ready_heap_churn(seed):
    """Binary heap with lazy invalidation: stale entries never win.

    Keys only change while a task is *blocked* (its heap entry, if
    any, is already invalidated); changing the key of a live entry is
    outside the structure's contract.
    """

    def mutate(queue, churn):
        blocked = churn.blocked_members()
        if blocked:
            churn.rng.choice(blocked).effective_key = (churn.unique(),)

    churn = _Churn(seed)
    _drive(ReadyHeap(), churn, mutate, _fp_expected)


def test_sorted_queue_swap_and_move_keep_invariants():
    """The O(1) PI primitives preserve every structural invariant."""
    rng = random.Random(99)
    queue = SortedQueue()
    tasks = []
    for i in range(8):
        task = Schedulable(f"p{i}", (i * 10,))
        task.ready = i % 2 == 0
        queue.add(task)
        tasks.append(task)
    queue.check_invariants()
    for _ in range(100):
        a, b = rng.sample(tasks, 2)
        if rng.random() < 0.5:
            queue.swap_positions(a, b)
        else:
            queue.move_before(a, b)
        queue.check_invariants()
        # Selection still returns the first ready task in list order.
        order = queue.tasks()
        first_ready = next((t for t in order if t.ready), None)
        assert queue.select() is first_ready


class _SlopedModel(OverheadModel):
    """Table 1 with every block, unblock and select charge growing with
    the queue length, so a charge priced at a stale length shows."""

    def edf_block(self, n: int) -> int:
        return 1_000 + 3 * n

    def edf_unblock(self, n: int) -> int:
        return 2_000 + 5 * n

    def rm_unblock(self, n: int) -> int:
        return 3_000 + 7 * n

    def rm_select(self, n: int) -> int:
        return 4_000 + 11 * n


#: Policy -> (scheduler factory, queue kinds highest first).
POLICIES = {
    "edf": (EDFScheduler, ["dp"]),
    "rm": (RMScheduler, ["fp"]),
    "csd-2": (lambda model: CSDScheduler(model, dp_queue_count=1), ["dp", "fp"]),
    "csd-3": (lambda model: CSDScheduler(model, dp_queue_count=2), ["dp", "dp", "fp"]),
}


def _charges(model, kind, n, parse):
    """The model's ``(t_b, t_u, t_s)`` on a ``kind`` queue of length n."""
    if kind == "dp":
        return model.edf_block(n), model.edf_unblock(n), parse + model.edf_select(n)
    return model.rm_block(n), model.rm_unblock(n), parse + model.rm_select(n)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_charges_follow_queue_length_through_churn(policy, seed):
    factory, kinds = POLICIES[policy]
    model = _SlopedModel()
    sched = factory(model)
    parse = len(kinds) * model.queue_parse_ns if policy.startswith("csd") else 0
    churn = _Churn(seed)
    rng = churn.rng
    home = {}  # task -> queue it was added to
    at = {}  # task -> queue it is on now (a PI migration moves it)

    def charges(queue):
        n = sum(1 for q in at.values() if q == queue)
        return _charges(model, kinds[queue], n, parse)

    for _ in range(OPS):
        roll = rng.random()
        members = list(at)
        if roll < 0.25 or not members:
            task = churn.new_task()
            task.csd_queue = rng.randrange(len(kinds))
            sched.add_task(task)
            home[task] = at[task] = task.csd_queue
        elif roll < 0.35:
            task = rng.choice(members)
            sched.remove_task(task)
            del home[task], at[task]
        elif roll < 0.55 and any(t.ready for t in members):
            task = rng.choice([t for t in members if t.ready])
            assert sched._block(task) == charges(at[task])[0]
        elif roll < 0.75 and not all(t.ready for t in members):
            task = rng.choice([t for t in members if not t.ready])
            assert sched._unblock(task) == charges(at[task])[1]
        elif roll < 0.9:
            # Cross-queue PI: the holder migrates up to the donor's queue.
            pairs = [(h, d) for h in members for d in members if at[d] < at[h]]
            if pairs:
                holder, donor = rng.choice(pairs)
                sched.raise_priority(holder, donor)
                at[holder] = at[donor]
        else:
            migrated = [t for t in members if at[t] != home[t]]
            if migrated:
                holder = rng.choice(migrated)
                sched.restore_priority(holder)
                at[holder] = home[holder]
        live = [at[t] for t in at if t.ready and kinds[at[t]] == "dp"]
        parsed = min(live) if live else len(kinds) - 1
        _, cost = sched._select()
        assert cost == charges(parsed)[2]
        for task, queue in at.items():
            assert sched.queue_index_of(task) == queue
        sched.check_invariants()
