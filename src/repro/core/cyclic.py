"""Cyclic time-slice executive -- the baseline CSD replaces.

Section 5's motivation: "Until recently, embedded application
programmers have primarily used cyclic time-slice scheduling
techniques in which the entire execution schedule is calculated
off-line, and at runtime, tasks are switched in and out according to
the fixed schedule."  The paper lists three problems, all of which
this module makes measurable:

1. schedules must be computed offline and are brittle
   (:func:`build_cyclic_schedule` fails outright on workloads any
   priority scheduler handles);
2. high-priority aperiodic tasks get poor response times because their
   arrivals cannot be anticipated (:meth:`CyclicSchedule.worst_case_aperiodic_response`);
3. workloads mixing short and long (or relatively prime) periods
   produce very large schedule tables, "wasting scarce memory
   resources" (:attr:`CyclicSchedule.table_bytes`).

The construction is the classic one: pick the largest minor frame
``f`` that (a) divides the hyperperiod, (b) is no longer than the
shortest period, and (c) satisfies ``2f - gcd(f, P_i) <= D_i`` for
every task, then pack job slices into frames in
earliest-deadline-first order (slices may split across frames, which
is the generous assumption -- real cyclic executives need manual task
splitting to do even this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.task import Workload

__all__ = ["CyclicSchedule", "CyclicScheduleError", "build_cyclic_schedule"]

#: Bytes per schedule-table entry: task id (2) + start offset (4) +
#: duration (4) -- generous for a 16-bit microcontroller.
TABLE_ENTRY_BYTES = 10

#: Give up if the hyperperiod has more minor frames than this (the
#: schedule would never fit in a small-memory system anyway).
MAX_FRAMES = 200_000


class CyclicScheduleError(Exception):
    """No legal cyclic schedule exists for the workload."""


@dataclass
class Slice:
    """One table entry: run ``task`` for ``duration`` ns in ``frame``."""

    frame: int
    task: str
    duration: int


@dataclass
class CyclicSchedule:
    """An offline time-slice schedule."""

    workload: Workload
    frame: int
    hyperperiod: int
    slices: List[Slice] = field(default_factory=list)

    @property
    def frame_count(self) -> int:
        return self.hyperperiod // self.frame

    @property
    def table_entries(self) -> int:
        """Number of table entries the runtime must store."""
        return len(self.slices)

    @property
    def table_bytes(self) -> int:
        """Schedule table footprint -- the paper's "wasted scarce
        memory" when periods are relatively prime."""
        return self.table_entries * TABLE_ENTRY_BYTES

    def frame_utilizations(self) -> List[int]:
        """Busy nanoseconds per frame."""
        busy = [0] * self.frame_count
        for s in self.slices:
            busy[s.frame] += s.duration
        return busy

    def worst_case_aperiodic_response(self, cost: int) -> Optional[int]:
        """Worst-case response time of an aperiodic job of ``cost`` ns.

        A cyclic executive only serves aperiodic work in frame slack.
        The worst case arrives just after a frame's dispatch decision:
        the job waits for the rest of the frame's slices and then
        consumes slack frame by frame.  Returns ``None`` if the table
        has insufficient slack over two hyperperiods (unbounded
        response).
        """
        if cost <= 0:
            raise ValueError("aperiodic cost must be positive")
        busy = self.frame_utilizations()
        count = self.frame_count
        worst = 0
        for start in range(count):
            # Arrive at the very start of frame `start`, but after the
            # dispatcher committed to the frame's slices.
            remaining = cost
            elapsed = busy[start]  # the arrival frame's busy time
            if elapsed < self.frame:
                served = min(remaining, self.frame - elapsed)
                remaining -= served
                elapsed += served
            frame_index = start
            frames_scanned = 0
            while remaining > 0:
                frames_scanned += 1
                if frames_scanned > 2 * count:
                    return None
                frame_index = (frame_index + 1) % count
                elapsed = (frames_scanned) * self.frame + min(
                    busy[frame_index], self.frame
                )
                slack = self.frame - busy[frame_index]
                served = min(remaining, slack)
                if served > 0:
                    # Aperiodic work runs after the frame's slices.
                    elapsed = frames_scanned * self.frame + busy[frame_index] + served
                remaining -= served
            worst = max(worst, elapsed)
        return worst


def _frame_candidates(workload: Workload, hyperperiod: int) -> List[int]:
    """Legal minor frames, largest first."""
    min_period = min(t.period for t in workload)
    candidates = []
    # A divisor f > min_period is no legal frame, and for f <= isqrt(H)
    # neither is its cofactor H // f >= f: stop at the smaller bound.
    for f in range(1, min(math.isqrt(hyperperiod), min_period) + 1):
        if hyperperiod % f == 0:
            for value in (f, hyperperiod // f):
                if value <= min_period:
                    candidates.append(value)
    out = []
    for f in sorted(set(candidates), reverse=True):
        if all(2 * f - math.gcd(f, t.period) <= t.deadline for t in workload):
            out.append(f)
    return out


def build_cyclic_schedule(
    workload: Workload, frame: Optional[int] = None
) -> CyclicSchedule:
    """Construct an offline time-slice schedule for ``workload``.

    Raises :class:`CyclicScheduleError` when no legal frame exists,
    when the table would exceed :data:`MAX_FRAMES` frames, or when the
    packing fails (a job cannot meet its deadline even with slicing).
    """
    if len(workload) == 0:
        raise CyclicScheduleError("empty workload")
    if workload.utilization > 1.0:
        raise CyclicScheduleError("utilization exceeds 1")
    hyperperiod = math.lcm(*(t.period for t in workload))
    if frame is None:
        candidates = _frame_candidates(workload, hyperperiod)
        if not candidates:
            raise CyclicScheduleError(
                "no minor frame satisfies the frame constraints"
            )
        frame = candidates[0]
    if hyperperiod % frame != 0:
        raise CyclicScheduleError("frame must divide the hyperperiod")
    frame_count = hyperperiod // frame
    if frame_count > MAX_FRAMES:
        raise CyclicScheduleError(
            f"schedule needs {frame_count} frames (> {MAX_FRAMES}); "
            "table would not fit in a small-memory system"
        )

    # Pack jobs into frames, EDF order, allowing slice splitting.
    schedule = CyclicSchedule(workload, frame, hyperperiod)
    free = [frame] * frame_count
    jobs: List[Tuple[int, int, str, int]] = []  # (deadline, release, name, cost)
    for task in workload:
        releases = range(0, hyperperiod, task.period)
        for release in releases:
            jobs.append((release + task.deadline, release, task.name, task.wcet))
    jobs.sort()
    for deadline, release, name, cost in jobs:
        first_frame = -(-release // frame)  # job can only run in frames
        # starting at/after its release
        last_frame = deadline // frame  # frames ending by the deadline
        remaining = cost
        for index in range(first_frame, min(last_frame, frame_count)):
            if remaining == 0:
                break
            take = min(remaining, free[index])
            if take > 0:
                schedule.slices.append(Slice(index, name, take))
                free[index] -= take
                remaining -= take
        if remaining > 0:
            raise CyclicScheduleError(
                f"job of {name} (release {release}) cannot fit by its deadline"
            )
    return schedule
