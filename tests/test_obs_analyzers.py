"""Tests for the latency-percentile and PI-chain analyzers."""

import pytest

from repro.obs.analyzers import (
    blocking_report,
    latency_report,
    percentile,
    pi_chain_report,
    pi_chains,
    response_percentiles,
)
from repro.obs.collector import ObsCollector
from repro.obs.scenarios import DEMO_HORIZON_NS, pi_demo_kernel, run_pi_demo


class TestPercentile:
    def test_empty_returns_none(self):
        assert percentile([], 50) is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1], 101)

    def test_nearest_rank_returns_elements(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 50) == 20
        assert percentile(values, 75) == 30
        assert percentile(values, 100) == 40
        assert percentile(values, 0) == 10

    def test_single_value(self):
        assert percentile([7], 99) == 7


class TestResponsePercentiles:
    def test_demo_values(self):
        _kernel, trace, _collector = run_pi_demo("standard")
        stats = response_percentiles(trace)
        assert set(stats) == {"a", "b", "c"}
        for task_stats in stats.values():
            assert task_stats["count"] == 2
            assert task_stats["p50"] <= task_stats["p99"] <= task_stats["max"]

    def test_report_renders_all_tasks(self):
        _kernel, trace, _collector = run_pi_demo("standard")
        report = latency_report(trace)
        for column in ("p50 us", "p95 us", "p99 us", "max us"):
            assert column in report
        for task in ("a", "b", "c"):
            assert task in report


class TestPiChains:
    def test_counters_mode_rejected(self):
        kernel = pi_demo_kernel("standard")
        collector = ObsCollector(mode="counters").attach(kernel)
        kernel.run_until(DEMO_HORIZON_NS)
        with pytest.raises(ValueError, match="full-mode"):
            pi_chains(collector)

    def test_standard_scheme_transitive_chain(self):
        _kernel, _trace, collector = run_pi_demo("standard")
        chains = pi_chains(collector)
        assert chains
        # The demo's signature chain: a donates through S to b, and
        # transitively through M to c.
        transitive = [c for c in chains if len(c.links) == 2]
        assert transitive, "expected a two-hop transitive chain"
        chain = transitive[0]
        assert chain.donor == "a"
        assert chain.holders == ["b", "c"]
        assert [sem for sem, _h, _k in chain.links] == ["S", "M"]
        assert chain.resolved_at is not None
        assert chain.duration_ns > 0

    def test_emeralds_scheme_produces_chains(self):
        _kernel, _trace, collector = run_pi_demo("emeralds")
        chains = pi_chains(collector)
        assert chains
        assert all(chain.links for chain in chains)

    def test_describe_mentions_sems_and_holders(self):
        _kernel, _trace, collector = run_pi_demo("standard")
        text = pi_chain_report(collector)
        assert "priority-inheritance chains" in text
        assert "[S] b" in text and "[M] c" in text
        assert "per-semaphore donation totals" in text


class TestBlockingReport:
    def test_demo_blocking_totals(self):
        _kernel, _trace, collector = run_pi_demo("standard")
        report = blocking_report(collector)
        assert "M" in report and "S" in report
        assert "blocked us" in report

    def test_empty_collector(self):
        assert "no semaphore blocking" in blocking_report(ObsCollector())
