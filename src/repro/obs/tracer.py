"""Chrome trace-event export: load kernel runs into Perfetto.

Converts a recorded :class:`~repro.sim.trace.Trace` (plus, optionally,
a full-mode :class:`~repro.obs.collector.ObsCollector`) into the
Chrome trace-event JSON format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* execution segments become complete (``"X"``) slices on one track per
  thread (plus a ``<kernel>`` track for charged kernel time);
* job lifecycles (release -> completion) become async (``"b"``/``"e"``)
  spans, so overrun jobs that overlap their successor render correctly;
* trace point events (deadline misses, faults, crashes, budget
  overruns...) become instant (``"i"``) events;
* priority-inheritance donations/restores from the collector become
  instant events on the holder's track.

The exporter is strictly post-hoc: it *derives* everything from the
records the trace already keeps, adds nothing to the hot path, and
therefore cannot move full-mode trace signatures.

Timestamps: the trace-event format counts in microseconds; virtual
nanoseconds are divided by 1000 and rounded to 3 decimals (exact,
deterministic).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.trace import IDLE, KERNEL, Trace

if TYPE_CHECKING:
    from repro.obs.collector import ObsCollector

__all__ = [
    "chrome_trace_events",
    "node_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "REQUIRED_TRACE_KEYS",
]

#: Top-level keys every export carries (the schema CI validates).
REQUIRED_TRACE_KEYS = ("traceEvents", "displayTimeUnit", "otherData")

#: Synthetic pid for the single simulated node.
_PID = 1

#: tid reserved for charged kernel time.
_KERNEL_TID = 0

#: Instant-event kinds that signal trouble (rendered with their own
#: category so Perfetto can color/filter them).
_ALERT_KINDS = frozenset(
    {
        "deadline-miss",
        "deadline-miss-detected",
        "deadline-overrun",
        "budget-overrun",
        "crash",
        "restart",
        "restart-exhausted",
        "protection-fault",
        "job-aborted",
        "torn-read",
        "release-overrun",
        "release-shed",
    }
)


def _us(ns: int) -> float:
    """Virtual ns -> trace-format microseconds (exact to 3 decimals)."""
    return round(ns / 1000, 3)


def _thread_tids(trace: Trace) -> Dict[str, int]:
    """Stable thread -> tid mapping (sorted names, tid 1 upward)."""
    names = set()
    for seg in trace.segments:
        if seg.who not in (IDLE, KERNEL):
            names.add(seg.who)
    for job in trace.jobs:
        names.add(job.thread)
    return {name: tid for tid, name in enumerate(sorted(names), start=1)}


def node_trace_events(
    trace: Trace,
    collector: Optional["ObsCollector"] = None,
    label: str = "emeralds-sim",
    pid: int = _PID,
    span_base: int = 0,
) -> List[Dict]:
    """The (unsorted) trace events of one node under process ``pid``.

    The shared per-node generator: the single-node exporter emits one
    node at ``pid=1``; the cluster exporter
    (:mod:`repro.obs.cluster_trace`) calls it once per node with a
    distinct pid and a per-node ``span_base`` offsetting the async job
    span ids, which are only unique *within* a trace and would collide
    across nodes otherwise.
    """
    tids = _thread_tids(trace)
    events: List[Dict] = []

    # Metadata: process and track names.
    events.append(
        {
            "ph": "M", "pid": pid, "tid": _KERNEL_TID,
            "name": "process_name", "args": {"name": label},
        }
    )
    events.append(
        {
            "ph": "M", "pid": pid, "tid": _KERNEL_TID,
            "name": "thread_name", "args": {"name": KERNEL},
        }
    )
    for name, tid in tids.items():
        events.append(
            {
                "ph": "M", "pid": pid, "tid": tid,
                "name": "thread_name", "args": {"name": name},
            }
        )

    # Execution and kernel-time slices.
    for seg in trace.segments:
        if seg.who == IDLE:
            continue
        if seg.who == KERNEL:
            tid, name, cat = _KERNEL_TID, "kernel", "kernel"
        else:
            tid, name, cat = tids[seg.who], seg.who, "exec"
        events.append(
            {
                "ph": "X", "pid": pid, "tid": tid, "name": name,
                "cat": cat, "ts": _us(seg.start), "dur": _us(seg.duration),
            }
        )

    # Job lifecycle spans (async, so overrun jobs may overlap).
    for index, job in enumerate(trace.jobs):
        if job.completion is None:
            continue
        tid = tids[job.thread]
        span_id = span_base + index + 1
        common = {
            "pid": pid, "tid": tid, "cat": "job",
            "name": f"{job.thread} job", "id": span_id,
        }
        events.append({**common, "ph": "b", "ts": _us(job.release)})
        events.append(
            {
                **common,
                "ph": "e",
                "ts": _us(job.completion),
                "args": {
                    "response_ns": job.completion - job.release,
                    "deadline_ns": job.deadline,
                    "missed": job.missed,
                    "aborted": job.aborted,
                },
            }
        )

    # Instant events from the trace's point-event log.
    for time, kind, detail in trace.events:
        if kind == "context-switch":
            continue  # the exec slices already show switches
        events.append(
            {
                "ph": "i", "pid": pid, "tid": _KERNEL_TID, "s": "g",
                "name": kind,
                "cat": "alert" if kind in _ALERT_KINDS else "event",
                "ts": _us(time),
                "args": {"detail": detail},
            }
        )

    # Priority-inheritance instants from the collector (full mode).
    if collector is not None:
        for ev in collector.pi_events:
            tid = tids.get(ev.holder, _KERNEL_TID)
            if ev.kind == "restore":
                name = "pi-restore"
                args: Dict = {"holder": ev.holder}
            else:
                name = "pi-donation"
                args = {
                    "sem": ev.sem,
                    "donor": ev.donor,
                    "holder": ev.holder,
                    "kind": ev.kind,
                    "transitive": ev.transitive,
                }
            events.append(
                {
                    "ph": "i", "pid": pid, "tid": tid, "s": "t",
                    "name": name, "cat": "pi", "ts": _us(ev.time),
                    "args": args,
                }
            )
    return events


def chrome_trace_events(
    trace: Trace,
    collector: Optional["ObsCollector"] = None,
    label: str = "emeralds-sim",
) -> Dict:
    """Build the Chrome trace-event JSON object for one run."""
    events = node_trace_events(trace, collector, label=label)
    # Deterministic order: by timestamp, metadata first, stable within.
    events.sort(key=lambda e: (e.get("ts", -1.0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.tracer",
            "virtual_time_ns": trace.last_time(),
            "record_mode": trace.record,
            # The event log is never capped, so this is always false.
            # The key stays because recorded exports (simbench's
            # kernel-traced references, the golden files) digest the
            # export bytes.
            "truncated": False,
        },
    }


def export_chrome_trace(
    path,
    trace: Trace,
    collector: Optional["ObsCollector"] = None,
    label: str = "emeralds-sim",
    indent: Optional[int] = 1,
) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    payload = chrome_trace_events(trace, collector, label=label)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
        fh.write("\n")
    return len(payload["traceEvents"])


def validate_chrome_trace(payload: Dict) -> int:
    """Check the trace-event schema; returns the event count.

    Raises :class:`ValueError` on any violation -- the check CI runs
    after ``json.load`` on the exported artifact.  Beyond the basic
    per-event shape it checks two cross-event invariants the cluster
    exporter relies on:

    * **flow-event pairing**: flow events match on ``(cat, id)``;
      every start (``"s"``) needs a finish (``"f"``) and vice versa
      (a dangling arrow renders as nothing in Perfetto, silently);
    * **process naming**: every pid that appears must carry a
      ``process_name`` metadata record, so multi-pid (cluster) traces
      label each node's track group.
    """
    if not isinstance(payload, dict):
        raise ValueError("chrome trace must be a JSON object")
    for key in REQUIRED_TRACE_KEYS:
        if key not in payload:
            raise ValueError(f"chrome trace missing required key {key!r}")
    events = payload["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    pids = set()
    named_pids = set()
    flow_starts = set()
    flow_finishes = set()
    for event in events:
        if "ph" not in event or "pid" not in event:
            raise ValueError(f"malformed trace event: {event!r}")
        ph = event["ph"]
        pids.add(event["pid"])
        if ph == "M":
            if event.get("name") == "process_name":
                named_pids.add(event["pid"])
            continue
        if "ts" not in event:
            raise ValueError(f"non-metadata event without ts: {event!r}")
        if ph == "X" and "dur" not in event:
            raise ValueError(f"complete event without dur: {event!r}")
        if ph in ("s", "t", "f"):
            if "id" not in event:
                raise ValueError(f"flow event without id: {event!r}")
            key = (event.get("cat"), event["id"])
            if ph == "s":
                flow_starts.add(key)
            elif ph == "f":
                flow_finishes.add(key)
    unfinished = flow_starts - flow_finishes
    if unfinished:
        raise ValueError(
            f"flow starts without a matching finish: {sorted(unfinished)[:5]!r}"
        )
    unstarted = flow_finishes - flow_starts
    if unstarted:
        raise ValueError(
            f"flow finishes without a matching start: {sorted(unstarted)[:5]!r}"
        )
    unnamed = pids - named_pids
    if unnamed:
        raise ValueError(
            f"pids without process_name metadata: {sorted(unnamed)!r}"
        )
    return len(events)
