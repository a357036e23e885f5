"""Fieldbus dependability metrics: the obs-layer bridge.

The dependability layer lives outside any single kernel (the bus, the
membership monitor, and replicated channels span the cluster), so its
metrics cannot ride the per-kernel :class:`~repro.obs.collector.ObsCollector`
hot paths.  Instead :func:`populate_net_registry` snapshots the
subsystem counters into a :class:`~repro.obs.metrics.MetricsRegistry`
on demand; :func:`repro.obs.cluster_trace.cluster_metrics_registry`
calls it after merging the per-node collector exports.

Everything exported is an integer derived from virtual time or event
counts, so the export is byte-identical across runs (the determinism
rules of :mod:`repro.obs.metrics`).  Membership counts are read off
the monitor's transition list, the one record of each transition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.net.cluster import Cluster
    from repro.net.global_state import GlobalStateChannel
    from repro.net.membership import HeartbeatMonitor

__all__ = ["populate_net_registry"]


def populate_net_registry(
    registry: MetricsRegistry,
    cluster: "Cluster",
    channels: Iterable["GlobalStateChannel"] = (),
    monitor: Optional["HeartbeatMonitor"] = None,
) -> MetricsRegistry:
    """Snapshot cluster dependability counters into ``registry``.

    Covers the bus (deliveries, faults, retransmissions, error
    frames), per-node CAN error states, per-interface rx accounting,
    per-channel replica health, and membership transitions.  Returns
    the registry for chaining.
    """
    bus = cluster.bus
    registry.counter("bus_frames_delivered_total").inc(bus.frames_delivered)
    registry.counter("bus_frames_dropped_total").inc(bus.frames_dropped)
    registry.counter("bus_frames_corrupted_total").inc(bus.frames_corrupted)
    registry.counter("bus_frames_retransmitted_total").inc(
        bus.frames_retransmitted
    )
    registry.counter("bus_retransmits_exhausted_total").inc(
        bus.retransmits_exhausted
    )
    registry.counter("bus_frames_deferred_bus_off_total").inc(
        bus.frames_deferred_bus_off
    )
    registry.counter("bus_error_frames_total").inc(bus.error_frames)
    registry.counter("bus_bits_carried_total").inc(bus.bits_carried)
    registry.counter("bus_arbitration_wait_ns_total").inc(
        bus.total_arbitration_wait_ns
    )
    if bus.error_states is not None:
        for node in sorted(bus.error_states):
            state = bus.error_states[node]
            registry.gauge("can_tec", node=node).set(state.tec)
            registry.gauge("can_rec", node=node).set(state.rec)
            registry.gauge("can_error_severity", node=node).set(state.severity)
            registry.counter("can_tx_errors_total", node=node).inc(
                state.tx_errors
            )
            registry.counter("can_rx_errors_total", node=node).inc(
                state.rx_errors
            )
            registry.counter("can_bus_off_total", node=node).inc(
                state.bus_off_events
            )
            registry.counter("can_state_transitions_total", node=node).inc(
                len(state.transitions)
            )
    interface_stats = cluster.interface_stats()
    for name in sorted(interface_stats):
        stats = interface_stats[name]
        registry.counter("net_tx_frames_total", node=name).inc(
            stats["frames_sent"]
        )
        registry.counter("net_rx_frames_total", node=name).inc(
            stats["frames_received"]
        )
        registry.counter("net_rx_filtered_total", node=name).inc(
            stats["frames_filtered"]
        )
        registry.counter("net_rx_crc_dropped_total", node=name).inc(
            stats["frames_crc_dropped"]
        )
        registry.counter("net_rx_overflow_total", node=name).inc(
            stats["rx_overflowed"]
        )
    for channel in channels:
        ch = channel.name
        writer_stats = channel.writer_stats()
        registry.counter("gs_published_total", channel=ch).inc(
            writer_stats["published"]
        )
        registry.counter("gs_rebroadcasts_total", channel=ch).inc(
            writer_stats["resync_broadcasts"]
        )
        statuses = channel.statuses()
        for node in sorted(statuses):
            status = statuses[node]
            labels = {"channel": ch, "node": node}
            registry.counter("gs_updates_total", **labels).inc(status.updates)
            registry.counter("gs_seq_gaps_total", **labels).inc(status.gaps)
            registry.counter("gs_duplicates_total", **labels).inc(
                status.duplicates
            )
            registry.counter("gs_stale_episodes_total", **labels).inc(
                status.stale_count
            )
            registry.counter("gs_resyncs_total", **labels).inc(status.resyncs)
            registry.gauge("gs_latency_ns_max", **labels).set(
                status.latency_max_ns
            )
            registry.gauge("gs_staleness_ns_max", **labels).set(
                status.staleness_max_ns
            )
    if monitor is not None:
        changes = len(monitor.events)
        downs = sum(1 for e in monitor.events if e[3] == "down")
        registry.counter("membership_changes_total").inc(changes)
        registry.counter("membership_down_total").inc(downs)
        registry.counter("membership_up_total").inc(changes - downs)
    return registry
