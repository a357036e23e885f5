"""Structured observability: metrics registry, trace export, analyzers.

Public surface:

* :class:`~repro.obs.metrics.MetricsRegistry` and its instrument types
  (:class:`Counter`, :class:`Gauge`, :class:`Histogram`) -- the
  deterministic registry with JSON / Prometheus-text export;
* :class:`~repro.obs.collector.ObsCollector` -- attaches to a kernel
  and populates the registry from dispatch/block/PI hook points;
* :mod:`~repro.obs.tracer` -- Chrome trace-event (Perfetto) export;
* :mod:`~repro.obs.analyzers` -- latency percentiles and
  priority-inheritance chain reconstruction.
"""

from repro.obs.analyzers import (
    PiChain,
    blocking_report,
    bus_chain_latency,
    bus_chain_report,
    latency_report,
    percentile,
    pi_chain_report,
    pi_chains,
    response_percentiles,
)
from repro.obs.cluster_trace import (
    BUS_PID,
    cluster_chrome_trace,
    cluster_metrics_registry,
    enable_cluster_tracing,
    export_cluster_trace,
)
from repro.obs.collector import (
    OBS_MODES,
    ObsCollector,
    PiEvent,
)
from repro.obs.metrics import (
    DEFAULT_RESPONSE_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    REQUIRED_TRACE_KEYS,
    chrome_trace_events,
    export_chrome_trace,
    node_trace_events,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_RESPONSE_BUCKETS_NS",
    "ObsCollector",
    "PiEvent",
    "OBS_MODES",
    "chrome_trace_events",
    "node_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "REQUIRED_TRACE_KEYS",
    "BUS_PID",
    "enable_cluster_tracing",
    "cluster_chrome_trace",
    "export_cluster_trace",
    "cluster_metrics_registry",
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
