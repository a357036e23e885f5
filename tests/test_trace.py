"""Tests for execution traces (segments, jobs, Gantt rendering)."""

import pytest

from repro.obs.analyzers import response_percentiles
from repro.sim.trace import IDLE, KERNEL, JobRecord, Trace
from repro.timeunits import ms


class TestSegments:
    def test_adjacent_same_owner_segments_merge(self):
        t = Trace()
        t.add_segment(0, 10, "a")
        t.add_segment(10, 20, "a")
        assert len(t.segments) == 1
        assert t.segments[0].duration == 20

    def test_different_owners_do_not_merge(self):
        t = Trace()
        t.add_segment(0, 10, "a")
        t.add_segment(10, 20, "b")
        assert len(t.segments) == 2

    def test_empty_segment_ignored(self):
        t = Trace()
        t.add_segment(5, 5, "a")
        assert t.segments == []

    def test_idle_time_accumulates(self):
        t = Trace()
        t.add_segment(0, 30, IDLE)
        assert t.idle_time == 30

    def test_record_segments_off_still_counts_idle(self):
        t = Trace(record="jobs-only")
        t.add_segment(0, 30, IDLE)
        assert t.idle_time == 30
        assert t.segments == []

    def test_cpu_share(self):
        t = Trace()
        t.add_segment(0, 25, "a")
        t.add_segment(25, 100, "b")
        assert t.cpu_share("a", 0, 100) == pytest.approx(0.25)
        assert t.cpu_share("b", 0, 50) == pytest.approx(0.5)


class TestKernelTime:
    def test_categories_accumulate(self):
        t = Trace()
        t.charge_kernel(0, 5, "sched")
        t.charge_kernel(5, 9, "sched")
        t.charge_kernel(9, 10, "sem")
        assert t.kernel_time["sched"] == 9
        assert t.kernel_time_total == 10

    def test_kernel_segments_recorded(self):
        t = Trace()
        t.charge_kernel(0, 5, "sched")
        assert t.segments[0].who == KERNEL


class TestJobs:
    def test_job_lifecycle(self):
        t = Trace()
        t.job_released("a", 0, 100, 1)
        record = t.job_completed("a", 1, 60)
        assert record is not None
        assert not record.missed
        assert record.response_time == 60

    def test_deadline_miss_detected(self):
        t = Trace()
        t.job_released("a", 0, 100, 1)
        record = t.job_completed("a", 1, 150)
        assert record.missed
        assert t.misses() == [record]
        assert any(kind == "deadline-miss" for _, kind, _ in t.events)

    def test_unfinished_overdue_jobs(self):
        t = Trace()
        t.job_released("a", 0, 100, 1)
        assert t.unfinished(50) == []
        assert len(t.unfinished(200)) == 1
        assert len(t.deadline_violations(200)) == 1

    def test_no_deadline_means_no_miss(self):
        record = JobRecord("a", 0, None, completion=10**9)
        assert not record.missed

    def test_jobs_of_and_max_response(self):
        t = Trace()
        t.job_released("a", 0, 100, 1)
        t.job_completed("a", 1, 40)
        t.job_released("a", 100, 200, 2)
        t.job_completed("a", 2, 180)
        assert len(t.jobs_of("a")) == 2
        assert response_percentiles(t)["a"]["max"] == 80

    def test_unknown_completion_ignored(self):
        t = Trace()
        assert t.job_completed("ghost", 9, 10) is None


class TestRendering:
    def test_gantt_shows_execution(self):
        t = Trace()
        t.add_segment(0, ms(5), "a")
        t.add_segment(ms(5), ms(10), "b")
        art = t.gantt_ascii(0, ms(10), columns=10)
        lines = art.splitlines()
        assert "a |#####.....|" in lines[1]
        assert "b |.....#####|" in lines[2]

    def test_gantt_rejects_empty_window(self):
        with pytest.raises(ValueError):
            Trace().gantt_ascii(10, 10)

    def test_summary_mentions_misses(self):
        t = Trace()
        t.job_released("a", 0, 100, 1)
        t.job_completed("a", 1, 150)
        assert "deadline violations: 1" in t.summary(200)

    def test_context_switch_counting(self):
        t = Trace()
        t.context_switch(0, None, "a")
        t.context_switch(10, "a", "b")
        assert t.context_switches == 2


class TestRecordModeGuards:
    def test_gantt_requires_full_recording(self):
        t = Trace(record="jobs-only")
        with pytest.raises(ValueError, match="record='full'"):
            t.gantt_ascii(0, ms(1))

    def test_cpu_share_requires_full_recording(self):
        t = Trace(record="jobs-only")
        with pytest.raises(ValueError, match="record='full'"):
            t.cpu_share("a", 0, ms(1))

    def test_error_names_current_mode(self):
        t = Trace(record="jobs-only")
        with pytest.raises(ValueError, match="jobs-only"):
            t.gantt_ascii(0, ms(1))


class TestSummary:
    def test_counts_late_and_overdue_separately(self):
        t = Trace()
        t.job_released("a", 0, 100, 1)
        t.job_completed("a", 1, 150)  # late
        t.job_released("b", 0, 100, 1)  # never completes: overdue
        text = t.summary(200)
        assert "deadline violations: 2 (1 late, 1 overdue unfinished)" in text

    def test_reports_per_task_response_stats(self):
        t = Trace()
        t.job_released("a", 0, 1000, 1)
        t.job_completed("a", 1, 100)
        t.job_released("a", 1000, 2000, 2)
        t.job_completed("a", 2, 1300)
        text = t.summary(2000)
        assert "a:" in text
        assert "p95" in text or "max" in text
