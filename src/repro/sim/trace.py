"""Execution traces: Gantt segments, job records, kernel-time accounting.

The trace is how experiments observe the kernel: every context switch,
deadline miss, and nanosecond of kernel overhead (by category) is
recorded here.  :meth:`Trace.gantt_ascii` renders schedules like the
paper's Figure 2.

Recording modes
---------------

Tracing sits on the simulator's hottest path, so what gets *stored*
is switchable (what gets *counted* -- context switches, kernel time by
category, idle time -- is always maintained; the counters are plain
integer adds):

* ``"full"`` -- everything: point events, job records, Gantt segments.
* ``"jobs-only"`` -- job records only; point events and segments are
  discarded as they arrive.  Deadline accounting
  (:meth:`Trace.misses`, :meth:`Trace.deadline_violations`) still
  works; this is the mode for long throughput runs.
* ``"off"`` -- counters only; nothing is stored.

Even at ``"full"``, the event log can be capped with ``max_events``:
the log becomes a ring buffer keeping the newest events, and the trace
marks itself truncated (:attr:`Trace.events_dropped`,
:meth:`Trace.event_log` prepends an explicit ``<truncated>`` marker)
instead of growing without bound.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.timeunits import to_ms, to_us

__all__ = ["Trace", "Segment", "JobRecord", "RECORD_MODES"]

#: Pseudo-thread names used in execution segments.
IDLE = "<idle>"
KERNEL = "<kernel>"

#: Valid trace recording modes, most to least detailed.
RECORD_MODES = ("full", "jobs-only", "off")

#: Kind tag of the marker entry :meth:`Trace.event_log` prepends when
#: the ring buffer dropped events.
TRUNCATED = "<truncated>"


class Segment:
    """A half-open interval ``[start, end)`` of CPU time.

    ``who`` is a thread name, or :data:`IDLE`/:data:`KERNEL`.
    """

    __slots__ = ("start", "end", "who")

    def __init__(self, start: int, end: int, who: str):
        self.start = start
        self.end = end
        self.who = who

    @property
    def duration(self) -> int:
        return self.end - self.start

    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (self.start, self.end, self.who) == (other.start, other.end, other.who)

    def __repr__(self) -> str:
        return f"Segment(start={self.start}, end={self.end}, who={self.who!r})"


class JobRecord:
    """One job (periodic activation) of a thread."""

    __slots__ = ("thread", "release", "deadline", "completion", "aborted")

    def __init__(
        self,
        thread: str,
        release: int,
        deadline: Optional[int],
        completion: Optional[int] = None,
        aborted: bool = False,
    ):
        self.thread = thread
        self.release = release
        self.deadline = deadline
        self.completion = completion
        #: Abandoned before completion (budget enforcement, crash,
        #: restart).  The record keeps ``completion=None``, so an
        #: overdue aborted job still counts as a deadline violation.
        self.aborted = aborted

    @property
    def missed(self) -> bool:
        """True when the job finished after its deadline."""
        if self.completion is None or self.deadline is None:
            return False
        return self.completion > self.deadline

    @property
    def response_time(self) -> Optional[int]:
        if self.completion is None:
            return None
        return self.completion - self.release

    def __eq__(self, other) -> bool:
        if not isinstance(other, JobRecord):
            return NotImplemented
        return (
            self.thread, self.release, self.deadline, self.completion, self.aborted
        ) == (
            other.thread, other.release, other.deadline, other.completion, other.aborted
        )

    def __repr__(self) -> str:
        return (
            f"JobRecord(thread={self.thread!r}, release={self.release}, "
            f"deadline={self.deadline}, completion={self.completion}, "
            f"aborted={self.aborted})"
        )


class Trace:
    """Accumulates everything observable about one kernel run.

    Args:
        record: Recording mode (see module docstring).
        max_events: Cap on the stored event log; ``None`` = unbounded.
            When the cap is hit the oldest events are dropped and the
            trace is marked truncated.
    """

    __slots__ = (
        "record",
        "record_segments",
        "_record_events",
        "_record_jobs",
        "max_events",
        "segments",
        "jobs",
        "events",
        "events_dropped",
        "context_switches",
        "kernel_time",
        "kernel_time_total",
        "idle_time",
        "_open_jobs",
    )

    def __init__(self, record: str = "full", max_events: Optional[int] = None):
        if record not in RECORD_MODES:
            raise ValueError(
                f"unknown record mode {record!r} (expected one of {RECORD_MODES})"
            )
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive (got {max_events})")
        self.record = record
        self.record_segments = record == "full"
        self._record_events = record == "full"
        self._record_jobs = record != "off"
        self.max_events = max_events
        self.segments: List[Segment] = []
        self.jobs: List[JobRecord] = []
        self.events: deque = deque(maxlen=max_events)
        #: Events discarded by the ring buffer (oldest-first).
        self.events_dropped = 0
        self.context_switches = 0
        self.kernel_time: Dict[str, int] = {}
        #: Running total of :attr:`kernel_time` (plain attribute so the
        #: hot path pays one add, not a sum over categories per query).
        self.kernel_time_total = 0
        self.idle_time = 0
        self._open_jobs: Dict[Tuple[str, int], JobRecord] = {}

    # ------------------------------------------------------------------
    # recording (called by the kernel)
    # ------------------------------------------------------------------
    def add_segment(self, start: int, end: int, who: str) -> None:
        """Record CPU occupancy; merges adjacent same-owner segments."""
        if end <= start:
            return
        if who == IDLE:
            self.idle_time += end - start
        if not self.record_segments:
            return
        segments = self.segments
        if segments:
            last = segments[-1]
            if last.who == who and last.end == start:
                last.end = end
                return
        segments.append(Segment(start, end, who))

    def charge_kernel(self, start: int, end: int, category: str) -> None:
        """Record kernel overhead time under a named category."""
        if end <= start:
            return
        delta = end - start
        kernel_time = self.kernel_time
        kernel_time[category] = kernel_time.get(category, 0) + delta
        self.kernel_time_total += delta
        if self.record_segments:
            self.add_segment(start, end, KERNEL)

    def note(self, time: int, kind: str, detail: str) -> None:
        """Record a point event (release, miss, switch, fault...)."""
        if not self._record_events:
            return
        events = self.events
        if events.maxlen is not None and len(events) == events.maxlen:
            self.events_dropped += 1
        events.append((time, kind, detail))

    def job_released(
        self, thread: str, release: int, deadline: int, job_no: int
    ) -> Optional[JobRecord]:
        """Open a job record at its (nominal) release.

        Returns ``None`` in ``"off"`` mode (nothing is stored)."""
        if not self._record_jobs:
            return None
        record = JobRecord(thread, release, deadline)
        self.jobs.append(record)
        self._open_jobs[(thread, job_no)] = record
        return record

    def job_completed(self, thread: str, job_no: int, completion: int) -> Optional[JobRecord]:
        """Close a job record; notes a deadline miss when late."""
        record = self._open_jobs.pop((thread, job_no), None)
        if record is not None:
            record.completion = completion
            deadline = record.deadline
            if deadline is not None and completion > deadline:
                self.note(completion, "deadline-miss", thread)
        return record

    def job_aborted(self, thread: str, job_no: int, time: int) -> Optional[JobRecord]:
        """Close a job record without a completion (the job was
        abandoned by budget enforcement, a crash, or a restart)."""
        record = self._open_jobs.pop((thread, job_no), None)
        if record is not None:
            record.aborted = True
            self.note(time, "job-aborted", thread)
        return record

    def context_switch(self, time: int, old: Optional[str], new: Optional[str]) -> None:
        """Count and note one context switch."""
        self.context_switches += 1
        if self._record_events:
            self.note(time, "context-switch", f"{old or IDLE} -> {new or IDLE}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def events_truncated(self) -> bool:
        """True when the ring buffer has dropped events."""
        return self.events_dropped > 0

    def event_log(self) -> List[Tuple[int, str, str]]:
        """The stored events, with an explicit truncation marker.

        When the ring buffer dropped events, the first entry is
        ``(t_oldest, "<truncated>", "N older events dropped")`` so a
        reader can never mistake a capped log for a complete one.
        """
        log = list(self.events)
        if self.events_dropped:
            oldest = log[0][0] if log else 0
            log.insert(
                0, (oldest, TRUNCATED, f"{self.events_dropped} older events dropped")
            )
        return log

    def signature(self, include_segments: bool = False) -> str:
        """Deterministic sha256 over the recorded behavior.

        Hashes the point events and the job records (thread, release,
        deadline, completion, aborted) -- and, with
        ``include_segments``, the Gantt segments too.  Two runs are
        behaviorally identical iff their full-mode signatures match;
        performance work must leave this hash unchanged.
        """
        if self.events_dropped:
            raise ValueError("signature of a truncated event log is meaningless")
        fingerprint: Tuple = (
            tuple(self.events),
            tuple(
                (j.thread, j.release, j.deadline, j.completion, j.aborted)
                for j in self.jobs
            ),
        )
        if include_segments:
            fingerprint = fingerprint + (
                tuple((s.start, s.end, s.who) for s in self.segments),
            )
        return hashlib.sha256(repr(fingerprint).encode()).hexdigest()

    def last_time(self) -> int:
        """Latest instant covered by any stored record (ns).

        The maximum over segment ends, job releases/completions, and
        point-event stamps -- 0 for an empty trace.  Exporters use it
        to place end-of-run markers without knowing the horizon.
        """
        last = 0
        if self.segments:
            last = self.segments[-1].end
        for job in self.jobs:
            if job.completion is not None and job.completion > last:
                last = job.completion
            elif job.release > last:
                last = job.release
        for time, _kind, _detail in self.events:
            if time > last:
                last = time
        return last

    def misses(self) -> List[JobRecord]:
        """Jobs that completed after their deadline."""
        return [j for j in self.jobs if j.missed]

    def unfinished(self, now: int) -> List[JobRecord]:
        """Jobs released but not completed whose deadline has passed."""
        return [
            j
            for j in self.jobs
            if j.completion is None and j.deadline is not None and j.deadline < now
        ]

    def deadline_violations(self, now: int) -> List[JobRecord]:
        """Late completions plus overdue unfinished jobs."""
        return self.misses() + self.unfinished(now)

    def jobs_of(self, thread: str) -> List[JobRecord]:
        """All job records of one thread, in release order."""
        return [j for j in self.jobs if j.thread == thread]

    def max_response_ns(self, thread: str) -> Optional[int]:
        """Worst observed response time of completed jobs (ns)."""
        responses = [
            j.response_time for j in self.jobs_of(thread) if j.response_time is not None
        ]
        return max(responses) if responses else None

    def _require_segments(self, caller: str) -> None:
        """Fail loudly when a segment query runs on a reduced-mode
        trace: a silent empty chart / 0.0 share reads like a real
        result and has sent people debugging the wrong layer."""
        if self.record != "full":
            raise ValueError(
                f"{caller} needs Gantt segments, but this trace was "
                f"recorded in {self.record!r} mode; re-run with "
                "record='full' (the default) to store them"
            )

    def cpu_share(self, who: str, start: int, end: int) -> float:
        """Fraction of ``[start, end)`` occupied by ``who``.

        Raises :class:`ValueError` unless the trace was recorded in
        ``"full"`` mode (segments are not stored otherwise).
        """
        self._require_segments("cpu_share")
        if end <= start:
            return 0.0
        busy = 0
        for seg in self.segments:
            lo = max(seg.start, start)
            hi = min(seg.end, end)
            if hi > lo and seg.who == who:
                busy += hi - lo
        return busy / (end - start)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def gantt_ascii(
        self,
        start: int,
        end: int,
        columns: int = 72,
        threads: Optional[List[str]] = None,
    ) -> str:
        """Render the schedule as an ASCII Gantt chart (cf. Figure 2).

        One row per thread; ``#`` marks execution, ``.`` marks other
        time, ``!`` marks a deadline miss within that column.

        Raises :class:`ValueError` unless the trace was recorded in
        ``"full"`` mode (segments are not stored otherwise).
        """
        self._require_segments("gantt_ascii")
        if end <= start:
            raise ValueError("end must be after start")
        if threads is None:
            seen: List[str] = []
            for seg in self.segments:
                if seg.who not in (IDLE, KERNEL) and seg.who not in seen:
                    seen.append(seg.who)
            threads = seen
        width = (end - start) / columns
        lines = [
            f"gantt [{to_ms(start):g}ms .. {to_ms(end):g}ms], "
            f"one column = {to_ms(round(width)):g}ms"
        ]
        misses = {
            (j.thread, j.completion)
            for j in self.misses()
            if j.completion is not None
        }
        label_width = max((len(t) for t in threads), default=4)
        for thread in threads:
            cells = []
            for col in range(columns):
                lo = start + round(col * width)
                hi = start + round((col + 1) * width)
                busy = any(
                    seg.who == thread and seg.start < hi and seg.end > lo
                    for seg in self.segments
                )
                miss_here = any(
                    t == thread and c is not None and lo <= c < hi for t, c in misses
                )
                cells.append("!" if miss_here else "#" if busy else ".")
            lines.append(f"{thread.rjust(label_width)} |{''.join(cells)}|")
        return "\n".join(lines)

    def summary(self, now: int) -> str:
        """Human-readable run summary.

        Deadline accounting goes through one path --
        :meth:`deadline_violations` is :meth:`misses` plus
        :meth:`unfinished` -- and both components are itemized so the
        total is self-describing.  Per-task response-time stats
        (mean/max) come from the same percentile helper the
        ``reproduce metrics`` subcommand uses.
        """
        misses = self.misses()
        overdue = self.unfinished(now)
        lines = [
            f"jobs: {len(self.jobs)}  completed: "
            f"{sum(1 for j in self.jobs if j.completion is not None)}  "
            f"deadline violations: {len(misses) + len(overdue)} "
            f"({len(misses)} late, {len(overdue)} overdue unfinished)",
            f"context switches: {self.context_switches}",
            f"kernel time: {to_us(self.kernel_time_total):.1f} us "
            f"({', '.join(f'{k}={to_us(v):.1f}us' for k, v in sorted(self.kernel_time.items()))})",
            f"idle time: {to_us(self.idle_time):.1f} us",
        ]
        if self.record != "off" and self.jobs:
            from repro.obs.analyzers import response_percentiles

            for task, stats in response_percentiles(self).items():
                lines.append(
                    f"  {task}: {stats['count']} jobs, response "
                    f"mean={to_us(round(stats['mean'])):.1f}us "
                    f"max={to_us(stats['max']):.1f}us"
                )
        if self.events_dropped:
            lines.append(f"event log truncated: {self.events_dropped} dropped")
        return "\n".join(lines)
