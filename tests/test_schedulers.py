"""Unit tests for the EDF, RM, and CSD scheduler classes."""

import pytest

from repro.core.csd import CSDScheduler
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.queues import Schedulable
from repro.core.rm import RMHeapScheduler, RMScheduler


def ent(name, key, ready=False, deadline=None, queue=None):
    e = Schedulable(name, (key, name))
    e.ready = ready
    e.abs_deadline = deadline
    e.csd_queue = queue
    return e


class TestEDFScheduler:
    def test_select_earliest_deadline(self):
        s = EDFScheduler(ZERO_OVERHEAD)
        a = ent("a", 1, ready=True, deadline=200)
        b = ent("b", 2, ready=True, deadline=100)
        s.add_task(a)
        s.add_task(b)
        task, _ = s.select()
        assert task is b

    def test_costs_match_table1(self):
        model = OverheadModel()
        s = EDFScheduler(model)
        tasks = [ent(f"t{i}", i, ready=True, deadline=100 + i) for i in range(5)]
        for t in tasks:
            s.add_task(t)
        assert s.on_block(tasks[0]) == model.edf_block(5)
        assert s.on_unblock(tasks[0]) == model.edf_unblock(5)
        _, cost = s.select()
        assert cost == model.edf_select(5)

    def test_stats_accumulate(self):
        s = EDFScheduler(OverheadModel())
        a = ent("a", 1, ready=True, deadline=10)
        s.add_task(a)
        s.on_block(a)
        s.on_unblock(a)
        s.select()
        assert s.stats.blocks == 1
        assert s.stats.unblocks == 1
        assert s.stats.selects == 1
        assert s.stats.charged_total_ns > 0

    def test_pi_is_deadline_overwrite(self):
        s = EDFScheduler(OverheadModel())
        holder = ent("h", 2, ready=True, deadline=500)
        donor = ent("d", 1, ready=False, deadline=100)
        s.add_task(holder)
        s.add_task(donor)
        s.raise_priority(holder, donor)
        assert holder.pi_deadline == 100
        task, _ = s.select()
        assert task is holder
        s.restore_priority(holder)
        assert holder.pi_deadline is None
        assert holder.pi_key is None

    def test_pi_inherits_tie_break_key(self):
        """A donation from an equal-deadline donor must still be
        effective: the holder inherits the donor's tie-break key, so it
        beats third parties that tie on the deadline but rank between
        donor and holder."""
        s = EDFScheduler(ZERO_OVERHEAD)
        holder = ent("h", 9, ready=True, deadline=100)
        middle = ent("m", 5, ready=True, deadline=100)
        donor = ent("d", 1, ready=False, deadline=100)
        for t in (holder, middle, donor):
            s.add_task(t)
        task, _ = s.select()
        assert task is middle  # key 5 beats key 9 on the tie
        s.raise_priority(holder, donor)
        assert holder.pi_key == donor.effective_key
        task, _ = s.select()
        assert task is holder  # donor's key 1 now wins the tie
        assert s.priority_rank(holder) < s.priority_rank(middle)
        s.restore_priority(holder)
        task, _ = s.select()
        assert task is middle

    def test_pi_key_is_transitive(self):
        """Chained donations propagate the strongest (deadline, key)
        rank, not just the deadline."""
        s = EDFScheduler(ZERO_OVERHEAD)
        top = ent("t", 1, ready=False, deadline=100)
        mid = ent("m", 5, ready=False, deadline=100)
        bottom = ent("b", 9, ready=True, deadline=100)
        for t in (top, mid, bottom):
            s.add_task(t)
        s.raise_priority(mid, top)
        s.raise_priority(bottom, mid)
        assert bottom.pi_key == top.effective_key

    def test_remove_task(self):
        s = EDFScheduler(ZERO_OVERHEAD)
        a = ent("a", 1, ready=True, deadline=10)
        s.add_task(a)
        s.remove_task(a)
        assert s.tasks() == []

    def test_priority_rank_uses_deadline(self):
        s = EDFScheduler(ZERO_OVERHEAD)
        a = ent("a", 1, ready=True, deadline=200)
        b = ent("b", 2, ready=True, deadline=100)
        s.add_task(a)
        s.add_task(b)
        assert s.priority_rank(b) < s.priority_rank(a)


class TestRMScheduler:
    def test_select_highest_priority(self):
        s = RMScheduler(ZERO_OVERHEAD)
        a = ent("a", 10, ready=True)
        b = ent("b", 5, ready=True)
        s.add_task(a)
        s.add_task(b)
        task, _ = s.select()
        assert task is b

    def test_costs_match_table1(self):
        model = OverheadModel()
        s = RMScheduler(model)
        tasks = [ent(f"t{i}", i, ready=True) for i in range(8)]
        for t in tasks:
            s.add_task(t)
        assert s.on_block(tasks[0]) == model.rm_block(8)
        assert s.on_unblock(tasks[0]) == model.rm_unblock(8)
        _, cost = s.select()
        assert cost == model.rm_select(8)

    def test_standard_pi_repositions(self):
        s = RMScheduler(OverheadModel())
        holder = ent("h", 10, ready=True)
        donor = ent("d", 1, ready=False)
        s.add_task(holder)
        s.add_task(donor)
        s.raise_priority(holder, donor)
        assert holder.effective_key == donor.effective_key
        task, _ = s.select()
        assert task is holder
        s.restore_priority(holder)
        assert holder.effective_key == holder.base_key
        s.check_invariants()

    def test_swap_with_placeholder(self):
        s = RMScheduler(OverheadModel())
        holder = ent("h", 10, ready=True)
        donor = ent("d", 1, ready=False)
        middle = ent("m", 5, ready=True)
        for t in (holder, donor, middle):
            s.add_task(t)
        cost = s.swap_with_placeholder(holder, donor)
        assert cost == s.model.pi_o1_step()
        task, _ = s.select()
        assert task is holder
        s.check_invariants()
        s.swap_with_placeholder(holder, donor)
        task, _ = s.select()
        assert task is middle or task is holder
        s.check_invariants()

    def test_swap_foreign_task_returns_none(self):
        s = RMScheduler(OverheadModel())
        a = ent("a", 1, ready=True)
        s.add_task(a)
        assert s.swap_with_placeholder(a, ent("x", 2)) is None


class TestRMHeapScheduler:
    def test_select_and_costs(self):
        model = OverheadModel()
        s = RMHeapScheduler(model)
        a = ent("a", 2, ready=True)
        b = ent("b", 1, ready=True)
        s.add_task(a)
        s.add_task(b)
        task, cost = s.select()
        assert task is b
        assert cost == model.heap_select(2)
        assert s.on_block(b) == model.heap_block(2)
        task, _ = s.select()
        assert task is a

    def test_pi_rekeys(self):
        s = RMHeapScheduler(OverheadModel())
        holder = ent("h", 9, ready=True)
        donor = ent("d", 1, ready=True)
        s.add_task(holder)
        s.add_task(donor)
        s.on_block(donor)
        s.raise_priority(holder, donor)
        task, _ = s.select()
        assert task is holder


class TestCSDScheduler:
    def make(self, dp=2, model=None):
        return CSDScheduler(model if model else ZERO_OVERHEAD, dp_queue_count=dp)

    def test_queue_count(self):
        assert self.make(dp=2).queue_count == 3  # CSD-3

    def test_add_task_to_assigned_queue(self):
        s = self.make()
        a = ent("a", 1, ready=True, deadline=10, queue=0)
        b = ent("b", 2, ready=True, deadline=20, queue=1)
        c = ent("c", 3, ready=True, queue=2)
        for t in (a, b, c):
            s.add_task(t)
        assert s.queue_index_of(a) == 0
        assert s.queue_index_of(b) == 1
        assert s.queue_index_of(c) == 2
        assert s.queue_lengths() == [1, 1, 1]

    def test_unassigned_defaults_to_fp(self):
        s = self.make()
        t = ent("t", 1, ready=True)
        s.add_task(t)
        assert s.queue_index_of(t) == s.fp_index

    def test_out_of_range_queue_rejected(self):
        s = self.make(dp=1)
        with pytest.raises(ValueError):
            s.add_task(ent("t", 1, queue=5))

    def test_dp1_beats_dp2_beats_fp(self):
        """Strict inter-queue priority (Section 5.3)."""
        s = self.make()
        dp1 = ent("dp1", 9, ready=True, deadline=900, queue=0)
        dp2 = ent("dp2", 1, ready=True, deadline=10, queue=1)
        fp = ent("fp", 0, ready=True, queue=2)
        for t in (dp1, dp2, fp):
            s.add_task(t)
        task, _ = s.select()
        assert task is dp1  # despite dp2's earlier deadline
        s.on_block(dp1)
        task, _ = s.select()
        assert task is dp2
        s.on_block(dp2)
        task, _ = s.select()
        assert task is fp

    def test_edf_within_dp_queue(self):
        s = self.make(dp=1)
        a = ent("a", 1, ready=True, deadline=300, queue=0)
        b = ent("b", 2, ready=True, deadline=100, queue=0)
        s.add_task(a)
        s.add_task(b)
        task, _ = s.select()
        assert task is b

    def test_select_cost_includes_queue_parse(self):
        model = OverheadModel()
        s = CSDScheduler(model, dp_queue_count=2)
        fp = ent("fp", 1, ready=True, queue=2)
        s.add_task(fp)
        _, cost = s.select()
        assert cost == 3 * model.queue_parse_ns + model.rm_select(1)

    def test_select_cost_parses_first_live_dp_queue(self):
        model = OverheadModel()
        s = CSDScheduler(model, dp_queue_count=2)
        dp2a = ent("a", 1, ready=True, deadline=10, queue=1)
        dp2b = ent("b", 2, ready=True, deadline=20, queue=1)
        s.add_task(dp2a)
        s.add_task(dp2b)
        _, cost = s.select()
        assert cost == 3 * model.queue_parse_ns + model.edf_select(2)

    def test_block_costs_by_queue_kind(self):
        model = OverheadModel()
        s = CSDScheduler(model, dp_queue_count=1)
        dp = ent("dp", 1, ready=True, deadline=10, queue=0)
        fp1 = ent("fp1", 2, ready=True, queue=1)
        fp2 = ent("fp2", 3, ready=True, queue=1)
        for t in (dp, fp1, fp2):
            s.add_task(t)
        assert s.on_block(dp) == model.edf_block(1)
        assert s.on_block(fp1) == model.rm_block(2)

    def test_same_queue_fp_pi(self):
        s = self.make(dp=1)
        holder = ent("h", 10, ready=True, queue=1)
        donor = ent("d", 2, ready=False, queue=1)
        s.add_task(holder)
        s.add_task(donor)
        s.raise_priority(holder, donor)
        task, _ = s.select()
        assert task is holder
        s.restore_priority(holder)
        assert holder.effective_key == holder.base_key

    def test_cross_queue_pi_migrates_and_restores(self):
        """FP holder inherits from a DP donor: it must temporarily beat
        every other FP task (it now blocks a DP-level task)."""
        s = self.make(dp=1)
        holder = ent("h", 10, ready=True, queue=1)
        other_fp = ent("o", 1, ready=True, queue=1)
        donor = ent("d", 2, ready=False, deadline=50, queue=0)
        for t in (holder, other_fp, donor):
            s.add_task(t)
        s.raise_priority(holder, donor)
        assert s.queue_index_of(holder) == 0
        task, _ = s.select()
        assert task is holder
        s.restore_priority(holder)
        assert s.queue_index_of(holder) == 1
        task, _ = s.select()
        assert task is other_fp

    def test_swap_with_placeholder_fp_only(self):
        s = self.make(dp=1)
        holder = ent("h", 10, ready=True, queue=1)
        donor = ent("d", 2, ready=False, queue=1)
        dp = ent("dp", 1, ready=False, deadline=10, queue=0)
        for t in (holder, donor, dp):
            s.add_task(t)
        assert s.swap_with_placeholder(holder, donor) is not None
        assert s.swap_with_placeholder(holder, dp) is None

    def test_remove_task(self):
        s = self.make(dp=1)
        a = ent("a", 1, ready=True, deadline=10, queue=0)
        s.add_task(a)
        s.remove_task(a)
        assert s.tasks() == []
        with pytest.raises(ValueError):
            s.queue_index_of(a)
        # block/unblock find the queue through the task's back-pointer
        # and still refuse a task this scheduler does not hold: one it
        # removed, and ones held by another CSD scheduler (a ready DP
        # task to block, a blocked FP task to unblock).
        other = self.make(dp=1)
        b = ent("b", 2, ready=True, deadline=20, queue=0)
        c = ent("c", 3, queue=1)
        other.add_task(b)
        other.add_task(c)
        for task, op in ((a, s.on_block), (a, s.on_unblock),
                         (b, s.on_block), (c, s.on_unblock)):
            with pytest.raises(ValueError, match="not scheduled by this CSD"):
                op(task)
        assert b.ready and not c.ready
        assert s.stats.blocks == s.stats.unblocks == 0
