"""Deterministic metrics registry: counters, gauges, histograms.

The registry is the structured face of observability: every value in
it is an integer (or a ratio of integers) derived from *virtual* time
and event counts, so two runs of the same workload produce
byte-identical exports regardless of wall-clock speed, host machine,
or ``parallel_map`` worker count.  Determinism rules:

* values are virtual-time nanoseconds or event counts -- never wall
  clock, never floats accumulated in arbitrary order;
* histograms use fixed bucket boundaries chosen at construction;
* exports (:meth:`MetricsRegistry.to_dict`,
  :meth:`MetricsRegistry.to_json`, :meth:`MetricsRegistry.to_prometheus`)
  sort by metric name, then by label items, so the serialization never
  depends on insertion order.

Hot-path discipline (the PR-3 rule): ``Counter.inc`` / ``Gauge.set`` /
``Histogram.observe`` are plain integer adds plus at most a bisect;
anything heavier (sorting, formatting) happens only at export time.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_RESPONSE_BUCKETS_NS",
]

#: Fixed response-time histogram buckets (ns upper bounds); the last
#: implicit bucket is +Inf.  Spans 10 us .. 100 ms, the range the
#: paper's workloads live in.
DEFAULT_RESPONSE_BUCKETS_NS: Tuple[int, ...] = (
    10_000, 20_000, 50_000,
    100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
    10_000_000, 20_000_000, 50_000_000,
    100_000_000,
)

#: Label sets are stored as sorted ``(key, value)`` tuples.
LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, str]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing integer."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (one plain integer add; hot-path safe)."""
        self.value += amount

    def snapshot(self) -> Dict:
        """Serializable view: labels and current value."""
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can move both ways; tracks the maximum seen."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "max_seen")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0
        self.max_seen = 0

    def set(self, value: int) -> None:
        """Record the current value (and bump the running maximum)."""
        self.value = value
        if value > self.max_seen:
            self.max_seen = value

    def snapshot(self) -> Dict:
        """Serializable view: labels, current value, and maximum."""
        return {
            "labels": dict(self.labels),
            "value": self.value,
            "max": self.max_seen,
        }


class Histogram:
    """Fixed-bucket histogram of virtual-time values.

    ``buckets`` are inclusive upper bounds in ascending order; one
    extra +Inf bucket is implicit.  ``observe`` is a bisect plus three
    integer adds -- cheap enough for per-job hot paths.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        labels: LabelsKey,
        buckets: Iterable[int] = DEFAULT_RESPONSE_BUCKETS_NS,
    ):
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: bucket bounds must be strictly increasing")
        if not bounds:
            raise ValueError(f"{name}: at least one bucket bound is required")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.total = 0
        self.count = 0

    def observe(self, value: int) -> None:
        """Record one sample into its bucket (bisect + three adds)."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> Dict:
        """Serializable view: cumulative bucket counts, count, sum."""
        cumulative = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            cumulative.append([bound, running])
        return {
            "labels": dict(self.labels),
            "buckets": cumulative,
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Get-or-create home for all metrics of one observed run.

    A metric name maps to exactly one kind (registering ``foo`` as a
    counter and then as a gauge is an error) and to one series per
    distinct label set.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], object] = {}
        self._kinds: Dict[str, str] = {}

    def _get(self, cls, name: str, labels: Dict[str, str], **kwargs):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric
        registered = self._kinds.get(name)
        if registered is not None and registered != cls.kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {registered}"
            )
        metric = cls(name, key[1], **kwargs)
        self._metrics[key] = metric
        self._kinds[name] = cls.kind
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[int] = DEFAULT_RESPONSE_BUCKETS_NS,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """Fold the ``others``' series into this registry (and return it).

        **The** aggregation API: counters add; gauges take the later
        registry's current value (running maxima combine); histograms
        require identical bucket bounds and add bucket counts.  Merge
        order is argument order, which makes the combined export
        deterministic when callers pass registries in a deterministic
        order (the cluster aggregate passes per-node registries in node
        order, so aggregated metrics are byte-identical across sync
        modes).  Merging is associative, and merging into a *fresh*
        registry is idempotent in the sense that
        ``MetricsRegistry().merge(r)`` exports byte-identically to
        ``r`` itself (regression-tested).

        Single-use examples::

            node_reg.merge(other_node_reg)           # in-place fold
            total = MetricsRegistry().merge(*shards) # N-way combine
        """
        for other in others:
            for (name, labels), theirs in other._metrics.items():
                if theirs.kind == "counter":
                    mine = self._get(Counter, name, dict(labels))
                    mine.value += theirs.value
                elif theirs.kind == "gauge":
                    mine = self._get(Gauge, name, dict(labels))
                    mine.set(theirs.value)
                    if theirs.max_seen > mine.max_seen:
                        mine.max_seen = theirs.max_seen
                else:
                    mine = self._get(
                        Histogram, name, dict(labels), buckets=theirs.buckets
                    )
                    if mine.buckets != theirs.buckets:
                        raise ValueError(
                            f"histogram {name!r}: bucket bounds differ"
                        )
                    for i, n in enumerate(theirs.counts):
                        mine.counts[i] += n
                    mine.total += theirs.total
                    mine.count += theirs.count
        return self

    def _sorted_metrics(self) -> List[object]:
        return [
            self._metrics[key]
            for key in sorted(self._metrics, key=lambda k: (k[0], k[1]))
        ]

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Nested dict keyed by metric name, series sorted by labels."""
        out: Dict[str, Dict] = {}
        for metric in self._sorted_metrics():
            entry = out.setdefault(
                metric.name, {"type": metric.kind, "series": []}
            )
            entry["series"].append(metric.snapshot())
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON export (sorted keys, sorted series)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (sorted, deterministic)."""
        lines: List[str] = []
        last_name = None
        for metric in self._sorted_metrics():
            if metric.name != last_name:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                last_name = metric.name
            label_text = ",".join(f'{k}="{v}"' for k, v in metric.labels)
            if metric.kind == "histogram":
                running = 0
                for bound, n in zip(metric.buckets, metric.counts):
                    running += n
                    le = [*metric.labels, ("le", str(bound))]
                    le_text = ",".join(f'{k}="{v}"' for k, v in le)
                    lines.append(f"{metric.name}_bucket{{{le_text}}} {running}")
                inf = [*metric.labels, ("le", "+Inf")]
                inf_text = ",".join(f'{k}="{v}"' for k, v in inf)
                lines.append(f"{metric.name}_bucket{{{inf_text}}} {metric.count}")
                suffix = f"{{{label_text}}}" if label_text else ""
                lines.append(f"{metric.name}_sum{suffix} {metric.total}")
                lines.append(f"{metric.name}_count{suffix} {metric.count}")
            else:
                suffix = f"{{{label_text}}}" if label_text else ""
                lines.append(f"{metric.name}{suffix} {metric.value}")
                if metric.kind == "gauge" and metric.max_seen != metric.value:
                    max_labels = [*metric.labels, ("stat", "max")]
                    max_text = ",".join(f'{k}="{v}"' for k, v in max_labels)
                    lines.append(f"{metric.name}{{{max_text}}} {metric.max_seen}")
        return "\n".join(lines) + "\n"
