"""Tests for the deterministic metrics registry and the collector."""

import json

import pytest

from repro.obs.collector import ObsCollector
from repro.obs.metrics import (
    DEFAULT_RESPONSE_BUCKETS_NS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.scenarios import (
    DEMO_HORIZON_NS,
    demo_metrics_fingerprint,
    pi_demo_kernel,
    run_pi_demo,
)
from repro.perf.sweeps import parallel_map


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", task="a").inc()
        reg.counter("jobs_total", task="a").inc(4)
        assert reg.counter("jobs_total", task="a").value == 5

    def test_label_sets_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", task="a").inc()
        reg.counter("jobs_total", task="b").inc(2)
        assert reg.counter("jobs_total", task="a").value == 1
        assert reg.counter("jobs_total", task="b").value == 2

    def test_gauge_tracks_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.set(3)
        assert g.value == 3
        assert g.max_seen == 7

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", task="a")

    def test_histogram_buckets(self):
        h = Histogram("resp", (), buckets=(10, 20, 50))
        for v in (5, 10, 11, 100):
            h.observe(v)
        assert h.counts == [2, 1, 0, 1]  # le=10, le=20, le=50, +Inf
        assert h.count == 4
        assert h.total == 126

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", (), buckets=(10, 10))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", (), buckets=())

    def test_export_independent_of_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("one", task="x").inc()
        a.gauge("two").set(3)
        b.gauge("two").set(3)
        b.counter("one", task="x").inc()
        assert a.to_json() == b.to_json()
        assert a.to_prometheus() == b.to_prometheus()

    def test_prometheus_histogram_series(self):
        reg = MetricsRegistry()
        h = reg.histogram("resp_ns", buckets=(10, 20), task="a")
        h.observe(15)
        text = reg.to_prometheus()
        assert '# TYPE resp_ns histogram' in text
        assert 'resp_ns_bucket{task="a",le="10"} 0' in text
        assert 'resp_ns_bucket{task="a",le="+Inf"} 1' in text
        assert 'resp_ns_sum{task="a"} 15' in text
        assert 'resp_ns_count{task="a"} 1' in text


def _sample_registry(scale: int = 1) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("jobs_total", task="a").inc(3 * scale)
    g = reg.gauge("depth")
    g.set(2 * scale)
    g.set(scale)
    reg.histogram("resp_ns", buckets=(10, 20), task="a").observe(15 * scale)
    return reg


class TestMerge:
    def test_variadic_merge_folds_all_kinds(self):
        a, b = _sample_registry(1), _sample_registry(2)
        merged = MetricsRegistry().merge(a, b)
        assert merged.counter("jobs_total", task="a").value == 9
        assert merged.gauge("depth").value == 2  # later argument wins
        assert merged.gauge("depth").max_seen == 4
        h = merged.histogram("resp_ns", buckets=(10, 20), task="a")
        assert h.count == 2 and h.total == 45

    def test_merge_returns_self_for_chaining(self):
        reg = MetricsRegistry()
        assert reg.merge(_sample_registry()) is reg

    def test_merge_into_empty_is_identity(self):
        """Idempotence anchor: folding one registry into a fresh one
        reproduces its exports byte for byte."""
        reg = _sample_registry()
        assert MetricsRegistry().merge(reg).to_json() == reg.to_json()
        assert (
            MetricsRegistry().merge(reg).to_prometheus()
            == reg.to_prometheus()
        )

    def test_double_merge_equals_single_pass(self):
        """Regression: merging shard-by-shard must equal merging
        everything in one variadic call."""
        shards = [_sample_registry(s) for s in (1, 2, 3)]
        one_pass = MetricsRegistry().merge(*shards)
        stepwise = MetricsRegistry()
        for shard in shards:
            stepwise.merge(shard)
        assert one_pass.to_json() == stepwise.to_json()

    def test_merge_folds_in_order(self):
        shards = []
        for base in (1, 10):
            reg = MetricsRegistry()
            reg.counter("jobs_total", node=f"n{base}").inc(base)
            reg.counter("shared_total").inc(base)
            reg.gauge("depth").set(base)
            reg.histogram("lat", buckets=(10, 20)).observe(base)
            shards.append(reg)
        merged = MetricsRegistry().merge(*shards)
        out = merged.to_dict()
        assert out["shared_total"]["series"][0]["value"] == 11
        assert out["depth"]["series"][0]["value"] == 10
        assert out["depth"]["series"][0]["max"] == 10
        assert out["lat"]["series"][0]["count"] == 2
        # Same shards, same order -> byte-identical export.
        again = MetricsRegistry().merge(*shards)
        assert again.to_json() == merged.to_json()


class TestCollector:
    def test_mode_validated(self):
        with pytest.raises(ValueError, match="unknown obs mode"):
            ObsCollector(mode="verbose")

    def test_double_attach_rejected(self):
        kernel = pi_demo_kernel()
        ObsCollector().attach(kernel)
        with pytest.raises(ValueError, match="already has an observer"):
            ObsCollector().attach(kernel)

    def test_demo_counts_pi_and_blocking(self):
        _kernel, _trace, collector = run_pi_demo("standard")
        # Both semaphores saw contention and donations (2 periods).
        assert collector.sems["M"].blocks == 2
        assert collector.sems["S"].blocks == 2
        assert collector.sems["M"].donations > 0
        assert collector.sems["M"].blocked_ns > 0
        assert collector.switches > 0
        assert collector.queue_depth_max >= 1

    def test_counters_and_full_mode_agree_on_shared_metrics(self):
        _k, _t, full = run_pi_demo("standard", mode="full")
        kernel = pi_demo_kernel("standard", record="jobs-only")
        counters = ObsCollector(mode="counters").attach(kernel)
        kernel.run_until(DEMO_HORIZON_NS)
        d_full = json.loads(full.metrics_json())
        d_cnt = json.loads(counters.metrics_json())
        for name, entry in d_cnt.items():
            if name.startswith(("task_", "sem_", "sched_")):
                assert entry == d_full[name], name

    def test_off_recording_still_counts_completions(self):
        kernel = pi_demo_kernel("standard", record="off")
        collector = ObsCollector(mode="counters").attach(kernel)
        kernel.run_until(DEMO_HORIZON_NS)
        reg = json.loads(collector.metrics_json())
        series = reg["task_jobs_completed_total"]["series"]
        by_task = {s["labels"]["task"]: s["value"] for s in series}
        assert by_task["a"] == 2 and by_task["b"] == 2 and by_task["c"] == 2


class TestDeterminism:
    def test_fingerprint_stable_across_runs(self):
        assert demo_metrics_fingerprint("standard") == demo_metrics_fingerprint(
            "standard"
        )

    def test_fingerprint_differs_between_schemes(self):
        assert demo_metrics_fingerprint("standard") != demo_metrics_fingerprint(
            "emeralds"
        )

    def test_fingerprint_identical_across_worker_counts(self):
        items = ["standard", "emeralds", "standard"]
        serial = parallel_map(demo_metrics_fingerprint, items, workers=1)
        forked = parallel_map(demo_metrics_fingerprint, items, workers=2)
        assert serial == forked
        assert serial[0] == serial[2]
