"""Analyzers over recorded runs: latency percentiles and PI chains.

Two questions the flat event log answers only with ad-hoc scripts:

* *"What is T7's p99 response time under CSD-3?"* --
  :func:`response_percentiles` / :func:`latency_report` compute exact
  per-task percentiles from the trace's job records (nearest-rank, so
  every reported value is a response time that actually occurred).

* *"Which semaphore caused this deadline miss, and who donated
  priority to whom?"* -- :func:`pi_chains` reconstructs
  priority-inheritance chains (donor, the semaphores the donation
  flowed through, every holder raised along the way, and how long the
  inversion lasted) from a full-mode
  :class:`~repro.obs.collector.ObsCollector`;
  :func:`blocking_report` totals per-semaphore blocking.

Everything here is post-hoc and deterministic: inputs are virtual-time
integers, outputs sort by (time, name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.timeunits import to_us

if TYPE_CHECKING:
    from repro.obs.collector import ObsCollector
    from repro.sim.trace import Trace

__all__ = [
    "percentile",
    "response_percentiles",
    "latency_report",
    "PiChain",
    "pi_chains",
    "pi_chain_report",
    "blocking_report",
    "bus_chain_latency",
    "bus_chain_report",
]


def percentile(values: Sequence[int], q: float) -> Optional[int]:
    """Nearest-rank percentile of a **sorted** sequence.

    Returns an element of ``values`` (never an interpolation), so a
    reported p99 is a response time that actually happened.  ``None``
    for an empty sequence.
    """
    if not values:
        return None
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100] (got {q})")
    # Nearest-rank: ceil(q/100 * n), clamped to [1, n], as a 0-index.
    rank = -(-q * len(values) // 100)  # ceil without floats drifting
    index = max(0, min(len(values) - 1, int(rank) - 1))
    return values[index]


def response_percentiles(trace: "Trace") -> Dict[str, Dict[str, Optional[float]]]:
    """Per-task response-time stats: count/mean/p50/p95/p99/max (ns).

    Reads the trace's job records, which every recording mode keeps.
    """
    by_task: Dict[str, List[int]] = {}
    for job in trace.jobs:
        response = job.response_time
        if response is not None:
            by_task.setdefault(job.thread, []).append(response)
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for task in sorted(by_task):
        responses = sorted(by_task[task])
        out[task] = {
            "count": len(responses),
            "mean": sum(responses) / len(responses),
            "p50": percentile(responses, 50),
            "p95": percentile(responses, 95),
            "p99": percentile(responses, 99),
            "max": responses[-1],
        }
    return out


def latency_report(trace: "Trace") -> str:
    """Rendered per-task latency percentile table (us)."""
    from repro.analysis import format_table

    stats = response_percentiles(trace)
    if not stats:
        return "no completed jobs recorded"
    rows = []
    for task, s in stats.items():
        rows.append(
            [
                task,
                s["count"],
                f"{to_us(round(s['mean'])):.1f}",
                f"{to_us(s['p50']):.1f}",
                f"{to_us(s['p95']):.1f}",
                f"{to_us(s['p99']):.1f}",
                f"{to_us(s['max']):.1f}",
            ]
        )
    return format_table(
        ["task", "jobs", "mean us", "p50 us", "p95 us", "p99 us", "max us"],
        rows,
        title="per-task response time",
    )


# ----------------------------------------------------------------------
# priority-inversion / blocking analysis
# ----------------------------------------------------------------------
@dataclass
class PiChain:
    """One reconstructed priority-inheritance chain.

    ``links`` walks the donation hop by hop: ``(sem, holder, kind)``
    -- the donor's priority reached ``holder`` through ``sem`` via a
    standard queue ``raise`` or an EMERALDS place-holder ``swap``.
    ``resolved_at`` is the instant the final holder's inherited
    priority was restored (``None`` when the run ended first).
    """

    donor: str
    start: int
    links: List[Tuple[str, str, str]] = field(default_factory=list)
    resolved_at: Optional[int] = None

    @property
    def holders(self) -> List[str]:
        return [holder for _, holder, _ in self.links]

    @property
    def duration_ns(self) -> Optional[int]:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.start

    def describe(self) -> str:
        """One-line human-readable rendering of the chain."""
        path = " -> ".join(
            f"[{sem}] {holder} ({kind})" for sem, holder, kind in self.links
        )
        tail = (
            f"resolved after {to_us(self.duration_ns):.1f} us"
            if self.resolved_at is not None
            else "unresolved at end of run"
        )
        return f"t={to_us(self.start):.1f}us {self.donor} -> {path}; {tail}"


def pi_chains(collector: "ObsCollector") -> List[PiChain]:
    """Reconstruct donation chains from a full-mode collector.

    A chain starts at a non-transitive donation and extends through the
    transitive steps recorded immediately after it (the semaphore
    code walks holder chains synchronously, so order in the event list
    is chain order).  A ``restore`` of a chain's last holder closes
    every chain that ends in that holder.
    """
    if not collector.full:
        raise ValueError(
            "PI-chain reconstruction needs a full-mode collector "
            "(ObsCollector(mode='full')); counters mode keeps no events"
        )
    chains: List[PiChain] = []
    current: Optional[PiChain] = None
    for event in collector.pi_events:
        if event.kind == "restore":
            current = None
            for chain in chains:
                if chain.resolved_at is None and chain.holders and (
                    chain.holders[-1] == event.holder
                ):
                    chain.resolved_at = event.time
            continue
        link = (event.sem, event.holder, event.kind)
        if (
            event.transitive
            and current is not None
            and current.donor == event.donor
        ):
            current.links.append(link)
            continue
        current = PiChain(donor=event.donor, start=event.time, links=[link])
        chains.append(current)
    return chains


def pi_chain_report(collector: "ObsCollector") -> str:
    """Rendered PI-chain listing plus per-semaphore donation totals."""
    from repro.analysis import format_table

    chains = pi_chains(collector)
    lines: List[str] = []
    if not chains:
        lines.append("no priority-inheritance donations recorded")
    else:
        lines.append(f"priority-inheritance chains ({len(chains)}):")
        for chain in chains:
            lines.append("  " + chain.describe())
        totals: Dict[str, List[int]] = {}
        for chain in chains:
            for sem, _holder, _kind in chain.links:
                entry = totals.setdefault(sem, [0, 0])
                entry[0] += 1
                if chain.duration_ns is not None:
                    entry[1] += chain.duration_ns
        rows = [
            [sem, hops, f"{to_us(total_ns):.1f}"]
            for sem, (hops, total_ns) in sorted(totals.items())
        ]
        lines.append(
            format_table(
                ["sem", "donation hops", "inversion us"],
                rows,
                title="per-semaphore donation totals",
            )
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# end-to-end bus chain latency
# ----------------------------------------------------------------------
def _stage_stats(values: Optional[List[int]]) -> Optional[Dict[str, int]]:
    if not values:
        return None
    values = sorted(values)
    return {
        "count": len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "max": values[-1],
    }


def bus_chain_latency(
    bus_events,
    rx_logs: Dict[str, Optional[list]],
    rx_timelines: Optional[Dict[str, list]] = None,
) -> Dict[int, Dict]:
    """End-to-end latency chains per bus channel (CAN id).

    Walks each frame through its three observable stages:

    * **send -> deliver**: the sender's original transmit stamp
      (``BusEvent.queued``, which survives retransmission) to the
      instant the winning transmission completed on the wire -- so
      arbitration wait, wire time, error frames, and every retry are
      all inside this number;
    * **deliver -> dispatch**: the receiving interface's accepted
      delivery (``NetInterface.rx_log``) to the driver thread actually
      consuming the frame (the workload's per-node ``rx_timeline``),
      FIFO-matched per ``(node, can_id)``;
    * **send -> dispatch**: the full chain, keyed by the frame's flow
      id.

    Args:
        bus_events: A :attr:`Fieldbus.bus_log` (``enable_trace()``).
        rx_logs: Per-node accepted-delivery logs
            (``NetInterface.rx_log`` by node name); ``None`` values
            are skipped.
        rx_timelines: Optional per-node ``[(time, can_id), ...]``
            driver-consumption timelines (:meth:`Cluster.rx_timelines`);
            without them the dispatch stages are ``None``.

    Returns a dict keyed by CAN id; each value carries ``frames`` (the
    delivered count) and nearest-rank ``p50/p95/p99/max`` stats (ns)
    per stage (``None`` for stages with no samples).  Inputs are
    virtual-time integers, so the report is deterministic and
    identical across cluster sync modes.
    """
    tx_by_flow: Dict[int, tuple] = {}
    send_deliver: Dict[int, List[int]] = {}
    for ev in bus_events:
        if ev.kind == "tx" and ev.verdict == "ok":
            if ev.flow is not None:
                tx_by_flow[ev.flow] = ev
            send_deliver.setdefault(ev.can_id, []).append(ev.end - ev.queued)
    deliver_dispatch: Dict[int, List[int]] = {}
    send_dispatch: Dict[int, List[int]] = {}
    for node in sorted(rx_logs):
        entries = rx_logs[node]
        if not entries:
            continue
        timeline = (rx_timelines or {}).get(node) or ()
        by_id: Dict[int, List[int]] = {}
        for time, can_id in timeline:
            by_id.setdefault(can_id, []).append(time)
        cursor = {can_id: 0 for can_id in by_id}
        for t_rx, flow, can_id, _sender in entries:
            times = by_id.get(can_id)
            if times is None:
                continue
            i = cursor[can_id]
            while i < len(times) and times[i] < t_rx:
                i += 1
            if i >= len(times):
                cursor[can_id] = i
                continue
            cursor[can_id] = i + 1
            t_dispatch = times[i]
            deliver_dispatch.setdefault(can_id, []).append(t_dispatch - t_rx)
            tx = tx_by_flow.get(flow)
            if tx is not None:
                send_dispatch.setdefault(can_id, []).append(
                    t_dispatch - tx.queued
                )
    out: Dict[int, Dict] = {}
    for can_id in sorted(set(send_deliver) | set(deliver_dispatch)):
        deliveries = send_deliver.get(can_id)
        out[can_id] = {
            "frames": len(deliveries) if deliveries else 0,
            "send_deliver_ns": _stage_stats(deliveries),
            "deliver_dispatch_ns": _stage_stats(deliver_dispatch.get(can_id)),
            "send_dispatch_ns": _stage_stats(send_dispatch.get(can_id)),
        }
    return out


def bus_chain_report(
    bus_events,
    rx_logs: Dict[str, Optional[list]],
    rx_timelines: Optional[Dict[str, list]] = None,
) -> str:
    """Rendered per-channel send->deliver->dispatch percentile table."""
    from repro.analysis import format_table

    chains = bus_chain_latency(bus_events, rx_logs, rx_timelines)
    if not chains:
        return "no delivered frames recorded on the bus"

    def cell(stats, key):
        return f"{to_us(stats[key]):.1f}" if stats else "-"

    rows = []
    for can_id, chain in chains.items():
        sd = chain["send_deliver_ns"]
        e2e = chain["send_dispatch_ns"]
        rows.append(
            [
                f"{can_id:#x}",
                chain["frames"],
                cell(sd, "p50"),
                cell(sd, "p95"),
                cell(sd, "p99"),
                cell(sd, "max"),
                cell(e2e, "p50"),
                cell(e2e, "max"),
            ]
        )
    return format_table(
        [
            "can id", "frames",
            "deliver p50 us", "p95 us", "p99 us", "max us",
            "e2e p50 us", "e2e max us",
        ],
        rows,
        title="bus chain latency (send -> deliver -> dispatch)",
    )


def blocking_report(collector: "ObsCollector") -> str:
    """Rendered per-semaphore blocking/PI totals (any collector mode)."""
    from repro.analysis import format_table

    if not collector.sems:
        return "no semaphore blocking recorded"
    rows = []
    for name in sorted(collector.sems):
        s = collector.sems[name]
        rows.append(
            [
                name,
                s.blocks,
                f"{to_us(s.blocked_ns):.1f}",
                s.max_waiters,
                s.donations,
            ]
        )
    return format_table(
        ["sem", "blocks", "blocked us", "max waiters", "PI donations"],
        rows,
        title="per-semaphore blocking",
    )
