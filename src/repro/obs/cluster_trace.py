"""Cluster-wide distributed tracing: one merged Perfetto timeline.

Single-node runs export through :mod:`repro.obs.tracer`; a cluster run
spans 5-10 kernels and a shared bus.  This module merges all of it
into ONE Chrome trace-event JSON:

* one ``pid`` per node (process-named after the node), carrying the
  node's full per-thread timeline exactly as the single-node exporter
  renders it;
* a dedicated **bus** pid: every arbitration win is a complete
  (``"X"``) slice on the wire track (with sender, attempts, verdict,
  and arbitration wait in ``args``); error frames are slices too (they
  occupy the wire); retransmissions, exhausted retries, bus-off
  deferrals, and membership transitions are instant events;
* **flow events** (``ph: "s"``/``"f"``) binding each delivered frame's
  transmit slice to a small receive marker slice on every accepting
  node, so causality renders as arrows in Perfetto.

Flow identity: :meth:`~repro.net.fieldbus.Fieldbus.queue` stamps each
frame with its arbitration sequence number (``Frame.flow``).  Sequence
numbers are assigned at the cluster's barrier merge in deterministic
``(time, node_index, seq)`` order, so flow ids, and therefore this
exporter's output, are **byte-identical** under ``sync=lockstep`` and
``sync=adaptive``.  One frame reaches up to ``n - 1`` receivers; each
(frame, receiver) pair gets its own arrow, id
``flow * 256 + receiver_index``.

Everything here is strictly post-hoc: the bus log, the per-interface
receive logs, and the collectors only *record*; nothing feeds back
into arbitration or scheduling, so full-mode per-node trace signatures
are unchanged from an uninstrumented run (tested).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.obs.collector import ObsCollector
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import _ALERT_KINDS, _us, node_trace_events

if TYPE_CHECKING:
    from repro.net.cluster import Cluster
    from repro.net.global_state import GlobalStateChannel
    from repro.net.membership import HeartbeatMonitor

__all__ = [
    "BUS_PID",
    "enable_cluster_tracing",
    "cluster_chrome_trace",
    "export_cluster_trace",
    "cluster_metrics_registry",
]

#: The bus's synthetic process id; node pids follow in node order.
BUS_PID = 1

#: First node pid (node i in cluster order gets ``FIRST_NODE_PID + i``).
FIRST_NODE_PID = 2

#: Bus tracks: transmissions + error frames occupy the wire; the
#: dependability/membership instants get their own track.
_WIRE_TID = 0
_BUS_EVENT_TID = 1

#: Per-node track for receive markers -- far above the thread tids the
#: single-node exporter assigns (those count up from 1).
_RX_TID = 9999

#: Rendered width of a receive marker slice (us).  Purely a rendering
#: aid: the delivery is an instant, but flow finishes need an
#: enclosing slice to bind to (``bp: "e"``), and a 2 us sliver is
#: visible yet an order of magnitude below the 47 us minimum frame
#: time, so consecutive deliveries to one node can never overlap.
_RX_SLICE_US = 2.0

#: Async job span ids are unique only within one node's trace; offset
#: them per pid so spans never collide across nodes.
_SPAN_STRIDE = 10_000_000


def _flow_event_id(flow: int, receiver_index: int) -> int:
    """One arrow per (frame, receiver): distinct ids keep Perfetto
    from chaining all receivers of a broadcast into one polyline."""
    return flow * 256 + receiver_index


def enable_cluster_tracing(
    cluster: "Cluster", obs: Optional[str] = None
) -> "Cluster":
    """Arm cluster-wide trace capture (call before the first run).

    Enables the bus activity log and per-interface accepted-delivery
    logs; with ``obs`` (``"counters"``/``"full"``) also attaches an
    :class:`ObsCollector` to every node that lacks one.  Returns the
    cluster for chaining.
    """
    cluster.bus.enable_trace()
    for interface in cluster.interfaces.values():
        if interface.rx_log is None:
            interface.rx_log = []
    if obs is not None:
        for kernel in cluster.nodes.values():
            if kernel.obs is None:
                ObsCollector(mode=obs).attach(kernel)
    return cluster


def _bus_events(
    cluster: "Cluster",
    membership: Optional["HeartbeatMonitor"],
) -> List[Dict]:
    """Bus-pid slices/instants plus the cross-pid flow events."""
    bus_log = cluster.bus.bus_log
    if bus_log is None:
        raise ValueError(
            "the bus activity log is not armed; call "
            "enable_cluster_tracing(cluster) before running"
        )
    events: List[Dict] = [
        {
            "ph": "M", "pid": BUS_PID, "tid": _WIRE_TID,
            "name": "process_name", "args": {"name": "<bus>"},
        },
        {
            "ph": "M", "pid": BUS_PID, "tid": _WIRE_TID,
            "name": "thread_name", "args": {"name": "wire"},
        },
        {
            "ph": "M", "pid": BUS_PID, "tid": _BUS_EVENT_TID,
            "name": "thread_name", "args": {"name": "events"},
        },
    ]
    tx_by_flow: Dict[int, object] = {}
    for ev in bus_log:
        if ev.kind == "tx":
            events.append(
                {
                    "ph": "X", "pid": BUS_PID, "tid": _WIRE_TID,
                    "name": f"tx {ev.can_id:#x}",
                    "cat": "bus",
                    "ts": _us(ev.start), "dur": _us(ev.end - ev.start),
                    "args": {
                        "sender": ev.sender,
                        "flow": ev.flow,
                        "attempts": ev.attempts,
                        "verdict": ev.verdict,
                        "queued_ns": ev.queued,
                        "arbitration_wait_ns": ev.start - ev.queued
                        if ev.attempts == 0 else None,
                    },
                }
            )
            if ev.verdict == "ok":
                tx_by_flow[ev.flow] = ev
        elif ev.kind == "error-frame":
            events.append(
                {
                    "ph": "X", "pid": BUS_PID, "tid": _WIRE_TID,
                    "name": "error-frame",
                    "cat": "bus-error",
                    "ts": _us(ev.start), "dur": _us(ev.end - ev.start),
                    "args": {
                        "sender": ev.sender,
                        "can_id": ev.can_id,
                        "flow": ev.flow,
                        "attempts": ev.attempts,
                    },
                }
            )
        else:
            # retransmit / retransmit-exhausted / bus-off-defer
            events.append(
                {
                    "ph": "i", "pid": BUS_PID, "tid": _BUS_EVENT_TID,
                    "s": "p",
                    "name": ev.kind,
                    "cat": "bus-dep",
                    "ts": _us(ev.start),
                    "args": {
                        "sender": ev.sender,
                        "can_id": ev.can_id,
                        "flow": ev.flow,
                        "attempts": ev.attempts,
                        "until_ns": ev.end,
                    },
                }
            )
    # Flow arrows: transmit slice -> receive marker on each accepting
    # node.  rx logs record only *accepted* deliveries (CRC-dropped,
    # filtered, and overflowed frames never make it), which is exactly
    # the set that is identical in every sync mode.
    for index, interface in enumerate(cluster.interfaces.values()):
        entries = interface.rx_log
        if not entries:
            continue
        pid = FIRST_NODE_PID + index
        events.append(
            {
                "ph": "M", "pid": pid, "tid": _RX_TID,
                "name": "thread_name", "args": {"name": "net-rx"},
            }
        )
        for time, flow, can_id, sender in entries:
            tx = tx_by_flow.get(flow)
            if tx is None or flow is None:
                continue  # a frame queued outside the traced window
            flow_id = _flow_event_id(flow, index)
            ts_rx = _us(time)
            events.append(
                {
                    "ph": "X", "pid": pid, "tid": _RX_TID,
                    "name": f"rx {can_id:#x}",
                    "cat": "net-rx",
                    "ts": ts_rx, "dur": _RX_SLICE_US,
                    "args": {"sender": sender, "flow": flow},
                }
            )
            events.append(
                {
                    "ph": "s", "pid": BUS_PID, "tid": _WIRE_TID,
                    "name": f"frame {can_id:#x}",
                    "cat": "bus-flow",
                    "id": flow_id,
                    "ts": _us(tx.start),
                }
            )
            events.append(
                {
                    "ph": "f", "pid": pid, "tid": _RX_TID,
                    "name": f"frame {can_id:#x}",
                    "cat": "bus-flow",
                    "id": flow_id,
                    "ts": ts_rx,
                    "bp": "e",
                }
            )
    if membership is not None:
        for time, observer, peer, state in membership.events:
            events.append(
                {
                    "ph": "i", "pid": BUS_PID, "tid": _BUS_EVENT_TID,
                    "s": "p",
                    "name": f"membership-{state}",
                    "cat": "membership",
                    "ts": _us(time),
                    "args": {"observer": observer, "peer": peer},
                }
            )
    return events


def cluster_chrome_trace(
    cluster: "Cluster",
    label: str = "emeralds-cluster",
    membership: Optional["HeartbeatMonitor"] = None,
) -> Dict:
    """Build the merged Chrome trace-event JSON for a cluster run.

    Requires :func:`enable_cluster_tracing` before the run and
    full-mode per-node traces (the per-thread slices come from their
    segments).  Deliberately excludes anything mode-dependent
    (sync mode, window statistics) from the payload, so the export is
    byte-identical across sync modes.
    """
    names = list(cluster.nodes)
    events = _bus_events(cluster, membership)
    last = 0
    for ev in cluster.bus.bus_log or ():
        if ev.end > last:
            last = ev.end
    for i, (name, kernel) in enumerate(cluster.nodes.items()):
        trace = kernel.trace
        pid = FIRST_NODE_PID + i
        events.extend(
            node_trace_events(
                trace,
                kernel.obs,
                label=name,
                pid=pid,
                span_base=pid * _SPAN_STRIDE,
            )
        )
        node_last = trace.last_time()
        if node_last > last:
            last = node_last
    # Deterministic order: by timestamp (metadata first), then by the
    # original append position (sort is stable and the append order is
    # bus -> nodes in cluster order -- identical in every mode).
    events.sort(key=lambda e: (e.get("ts", -1.0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.cluster_trace",
            "virtual_time_ns": last,
            "nodes": names,
            "alert_kinds": sorted(_ALERT_KINDS),
        },
    }


def export_cluster_trace(
    path,
    cluster: "Cluster",
    label: str = "emeralds-cluster",
    membership: Optional["HeartbeatMonitor"] = None,
    indent: Optional[int] = 1,
) -> int:
    """Write the merged cluster trace JSON; returns the event count."""
    payload = cluster_chrome_trace(cluster, label=label, membership=membership)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
        fh.write("\n")
    return len(payload["traceEvents"])


#: Engine-machinery series excluded from the cluster aggregate.  They
#: count host-level simulator events (event-loop pops, event-queue
#: depth samples at barrier wakeups), which legitimately vary with the
#: synchronization mode -- lockstep wakes every node at every quantum,
#: adaptive skips idle windows -- while the *workload* metrics do not.
#: Including them would break the byte-identity contract of
#: :func:`cluster_metrics_registry`; they stay available per node on
#: each collector's own registry.
ENGINE_INTERNAL_METRICS = ("engine_event_queue_depth", "kernel_events_popped")


def _engine_internal(name: str) -> bool:
    return any(name.startswith(prefix) for prefix in ENGINE_INTERNAL_METRICS)


def _with_node_label(registry: MetricsRegistry, node: str) -> MetricsRegistry:
    """Copy ``registry`` with a ``node`` label added to every series,
    so per-node registries merge without colliding on task names.
    Engine-machinery series (:data:`ENGINE_INTERNAL_METRICS`) are
    dropped -- they are sync-mode-dependent by nature."""
    out = MetricsRegistry()
    for (name, labels), metric in sorted(registry._metrics.items()):
        if _engine_internal(name):
            continue
        labeled = dict(labels)
        labeled["node"] = node
        if metric.kind == "counter":
            out.counter(name, **labeled).inc(metric.value)
        elif metric.kind == "gauge":
            gauge = out.gauge(name, **labeled)
            gauge.set(metric.value)
            gauge.max_seen = metric.max_seen
        else:
            hist = out.histogram(name, buckets=metric.buckets, **labeled)
            hist.counts = list(metric.counts)
            hist.total = metric.total
            hist.count = metric.count
    return out


def cluster_metrics_registry(
    cluster: "Cluster",
    channels: Iterable["GlobalStateChannel"] = (),
    monitor: Optional["HeartbeatMonitor"] = None,
) -> MetricsRegistry:
    """Aggregate cluster metrics: per-node collector registries (each
    relabeled with ``node=<name>``) plus the bus/dependability metrics.

    Per-node registries are merged in node order -- deterministic, so
    the JSON/Prometheus exports are byte-identical across sync modes.
    """
    # Imported lazily: repro.net.depend imports repro.obs.metrics, and
    # this module is part of the repro.obs package init.
    from repro.net.depend import populate_net_registry

    merged = MetricsRegistry()
    for name, kernel in cluster.nodes.items():
        if kernel.obs is not None:
            merged.merge(_with_node_label(kernel.obs.as_registry(), name))
    populate_net_registry(merged, cluster, channels, monitor)
    return merged
