"""Tests for execution traces (segments, jobs, Gantt rendering)."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.obs.analyzers import response_percentiles
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program
from repro.sim.trace import IDLE, KERNEL, JobRecord, Segment, Trace
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
        k = Kernel()
        k.charge(5, "sched")
        k.charge(4, "sched")
        k.charge(1, "sem")
        t = k.trace
        assert t.kernel_time == {"sched": 9, "sem": 1}
        assert t.kernel_time_total == 10
        assert k.now == 10

    def test_kernel_segments_recorded(self):
        k = Kernel()
        k.charge(5, "sched")
        assert k.trace.segments == [Segment(0, 5, KERNEL)]


class TestJobs:
    def test_job_lifecycle(self):
        t = Trace()
        record = t.job_released("a", 0, 100)
        assert t.jobs == [record]
        assert record.completion is None
        t.job_completed(record, 60)
        assert not record.missed
        assert record.response_time == 60

    def test_deadline_miss_detected(self):
        t = Trace()
        record = t.job_released("a", 0, 100)
        t.job_completed(record, 150)
        assert record.missed
        assert t.misses() == [record]
        assert any(kind == "deadline-miss" for _, kind, _ in t.events)

    def test_unfinished_overdue_jobs(self):
        t = Trace()
        t.job_released("a", 0, 100)
        assert t.unfinished(50) == []
        assert len(t.unfinished(200)) == 1
        assert len(t.deadline_violations(200)) == 1

    def test_no_deadline_means_no_miss(self):
        record = JobRecord("a", 0, None, completion=10**9)
        assert not record.missed

    def test_jobs_of_and_max_response(self):
        t = Trace()
        t.job_completed(t.job_released("a", 0, 100), 40)
        t.job_completed(t.job_released("a", 100, 200), 180)
        assert len(t.jobs_of("a")) == 2
        assert response_percentiles(t)["a"]["max"] == 80

    def test_completion_without_an_open_record_changes_no_record(self):
        """The kernel closes a job through the open record on its
        thread; a thread whose record is already closed completes none."""
        k = Kernel(EDFScheduler(ZERO_OVERHEAD))
        k.create_thread("a", Program([Compute(ms(2))]), period=ms(10))
        k.run_until(ms(1))
        thread = k.threads["a"]
        record = thread.job
        assert k.trace.jobs == [record]
        k.trace.job_aborted(record, k.now)
        thread.job = None
        before = [_job_fields(job) for job in k.trace.jobs]
        k.run_until(ms(5))
        assert thread.blocked_on == "period" and thread.job is None
        assert [_job_fields(job) for job in k.trace.jobs] == before

    def test_restart_between_jobs_aborts_no_record(self):
        """A crash with a restart aborts the open job, if there is one:
        after a completion there is none, and the completed record
        stays as it was."""
        k = Kernel(EDFScheduler(ZERO_OVERHEAD))
        k.create_thread("a", Program([Compute(ms(2))]), period=ms(10))
        k.set_restart_policy("a", max_restarts=1)
        k.run_until(ms(5))
        k.crash_thread("a")
        assert k.threads["a"].restart_count == 1
        assert [_job_fields(job) for job in k.trace.jobs] == [
            ("a", 0, ms(10), ms(2), False)
        ]


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
        t.job_completed(t.job_released("a", 0, 100), 150)
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
        t.job_completed(t.job_released("a", 0, 100), 150)  # late
        t.job_released("b", 0, 100)  # never completes: overdue
        text = t.summary(200)
        assert "deadline violations: 2 (1 late, 1 overdue unfinished)" in text

    def test_reports_per_task_response_stats(self):
        t = Trace()
        t.job_completed(t.job_released("a", 0, 1000), 100)
        t.job_completed(t.job_released("a", 1000, 2000), 1300)
        text = t.summary(2000)
        assert "a:" in text
        assert "p95" in text or "max" in text


def _job_fields(job):
    return (job.thread, job.release, job.deadline, job.completion, job.aborted)


def oracle_signature(trace, include_segments=False):
    """:meth:`Trace.signature` by its definition, hashed in one shot."""
    fingerprint = (tuple(trace.events), tuple(map(_job_fields, trace.jobs)))
    if include_segments:
        fingerprint += (tuple((s.start, s.end, s.who) for s in trace.segments),)
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


THREADS = ("a", "b")

#: One recording or signing step.  ``complete``/``abort`` close the
#: open job their index picks (release order); a ``segment`` starts
#: ``gap`` after the last one ends, so gap 0 and the same owner merge.
STEPS = st.one_of(
    st.tuples(st.just("note"), st.integers(0, 50), st.sampled_from(["x", "y"])),
    st.tuples(
        st.just("release"), st.sampled_from(THREADS), st.sampled_from([None, 40])
    ),
    st.tuples(st.just("complete"), st.integers(0, 3), st.integers(0, 80)),
    st.tuples(st.just("abort"), st.integers(0, 3), st.integers(0, 80)),
    st.tuples(
        st.just("segment"), st.integers(0, 1), st.integers(1, 3),
        st.sampled_from(THREADS),
    ),
    st.tuples(st.just("sign"), st.booleans()),
)


class TestSignature:
    """The streamed signature equals the one-shot hash after every
    interleaving of recording and signing."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(STEPS, max_size=40))
    @example([])
    @example([("note", 1, "x"), ("release", "a", 40), ("sign", True)])
    @example([
        ("release", "a", 40), ("release", "b", None), ("note", 3, "x"),
        ("complete", 1, 10),  # b closes while a, ahead of it, stays open
        ("segment", 0, 2, "a"), ("sign", True),
        ("complete", 0, 50),  # a closes late, after a signature
        ("sign", False), ("segment", 0, 1, "a"), ("sign", True),
        ("release", "a", 40), ("release", "b", 40), ("abort", 0, 60),
        ("note", 7, "y"), ("segment", 1, 3, "b"), ("sign", True),
        ("complete", 0, 20), ("release", "b", None), ("sign", False),
    ])
    def test_every_call_equals_the_one_shot_hash(self, steps):
        trace = Trace()
        open_jobs = []
        released = 0
        end = 0
        for step in steps:
            op = step[0]
            if op == "note":
                trace.note(step[1], "event", step[2])
            elif op == "release":
                released += 1
                open_jobs.append(trace.job_released(step[1], released, step[2]))
            elif op in ("complete", "abort") and open_jobs:
                record = open_jobs.pop(step[1] % len(open_jobs))
                if op == "complete":
                    trace.job_completed(record, step[2])
                else:
                    trace.job_aborted(record, step[2])
            elif op == "segment":
                _, gap, length, who = step
                trace.add_segment(end + gap, end + gap + length, who)
                end += gap + length
            elif op == "sign":
                assert trace.signature(step[1]) == oracle_signature(trace, step[1])
        for include_segments in (False, True):
            assert trace.signature(include_segments) == oracle_signature(
                trace, include_segments
            )

    def test_long_runs_cross_chunk_boundaries(self):
        """Over a thousand events and jobs per call, the first call
        included, with job 1 open until the end."""
        trace = Trace()
        for n in range(1, 2601):
            trace.note(n, "event", "x")
            record = trace.job_released("a", n, n + 5)
            if n == 1:
                first = record
            else:
                trace.job_completed(record, n + 1)
            if n in (1500, 2600):
                assert trace.signature() == oracle_signature(trace)
        trace.job_aborted(first, 2601)
        assert trace.signature(True) == oracle_signature(trace, True)
