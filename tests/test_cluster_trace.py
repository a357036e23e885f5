"""Cluster-wide distributed tracing: merged timeline + determinism.

The merged Perfetto export (one pid per node + a bus pid, causal flow
arrows from transmit slices to deliveries) must be byte-identical
across the synchronization modes -- including under wire faults with
the dependability layer retransmitting -- and must
never change what the cluster *does* (full-mode per-node trace
signatures match an uninstrumented run).
"""

import json
import random

import pytest

from repro.net.cluster import SYNC_MODES
from repro.obs import (
    bus_chain_latency,
    cluster_chrome_trace,
    cluster_metrics_registry,
    enable_cluster_tracing,
    validate_chrome_trace,
)
from repro.perf.clusterload import build_ring_cluster
from repro.timeunits import ms

#: Ring configuration shared by every test (small horizon: the
#: determinism argument is structural, not statistical).
NODES = 4
UTILIZATION = 0.5
HORIZON = ms(30)


def _arm_faults(cluster, seed):
    """Seeded wire faults (8% drop, 8% corrupt), as in the sync tests."""
    frng = random.Random(seed + 999)

    def hook(start, frame):
        r = frng.random()
        if r < 0.08:
            return "drop"
        if r < 0.16:
            return "corrupt"
        return "ok"

    cluster.bus.fault_hook = hook


def _traced_ring(sync, fault=False, dependability=False, obs="full",
                 seed=7):
    cluster = build_ring_cluster(NODES, UTILIZATION, sync, record="full")
    if dependability:
        cluster.enable_dependability(4)
    if fault:
        _arm_faults(cluster, seed)
    enable_cluster_tracing(cluster, obs=obs)
    cluster.run_until(HORIZON)
    return cluster


def _trace_text(cluster):
    payload = cluster_chrome_trace(cluster)
    return json.dumps(payload, indent=1, sort_keys=True), payload


class TestByteIdentity:
    def test_identical_across_sync_modes(self):
        """The merged trace AND the aggregated metrics are byte for
        byte the same under lockstep and adaptive."""
        texts, metrics = {}, {}
        for sync in SYNC_MODES:
            cluster = _traced_ring(sync)
            texts[sync], _ = _trace_text(cluster)
            metrics[sync] = cluster_metrics_registry(cluster).to_json()
        assert texts["adaptive"] == texts["lockstep"]
        assert metrics["adaptive"] == metrics["lockstep"]

    def test_identical_under_faults_with_dependability(self):
        """Wire faults + retransmission layer: still byte-identical,
        and the dependability activity is actually in the trace."""
        texts, payloads = {}, {}
        for sync in SYNC_MODES:
            cluster = _traced_ring(sync, fault=True, dependability=True)
            texts[sync], payloads[sync] = _trace_text(cluster)
        assert texts["adaptive"] == texts["lockstep"]
        events = payloads["lockstep"]["traceEvents"]
        assert any(e.get("cat") == "bus-error" for e in events), (
            "corrupted frames must appear as error-frame slices"
        )
        assert any(e.get("name") == "retransmit" for e in events), (
            "retransmissions must appear as bus-dep instants"
        )


class TestMergedShape:
    @pytest.fixture(scope="class")
    def payload(self):
        cluster = _traced_ring("adaptive")
        _, payload = _trace_text(cluster)
        self_registry = cluster_metrics_registry(cluster)
        payload["_registry"] = self_registry  # piggyback for shape tests
        return payload

    def test_validates_and_has_node_and_bus_pids(self, payload):
        assert validate_chrome_trace(payload) > 0
        named = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert named[1] == "<bus>"
        assert sorted(named.values()) == sorted(
            ["<bus>"] + [f"n{i}" for i in range(NODES)]
        )

    def test_every_channel_has_flow_pairs(self, payload):
        """Each ring channel (0x100..0x103) gets at least one causal
        transmit -> delivery arrow."""
        starts = [
            e for e in payload["traceEvents"] if e.get("ph") == "s"
        ]
        finishes = [
            e for e in payload["traceEvents"] if e.get("ph") == "f"
        ]
        assert len(starts) == len(finishes)
        for can_id in range(0x100, 0x100 + NODES):
            name = f"frame {can_id:#x}"
            assert any(e["name"] == name for e in starts), name

    def test_flow_finish_binds_to_enclosing_rx_slice(self, payload):
        finishes = [
            e for e in payload["traceEvents"] if e.get("ph") == "f"
        ]
        assert finishes and all(e.get("bp") == "e" for e in finishes)

    def test_no_mode_dependent_payload_data(self, payload):
        """otherData must not leak sync mode or worker count -- they
        would break byte-identity by construction."""
        blob = json.dumps(payload["otherData"]).lower()
        for word in ("sync", "worker", "lockstep", "adaptive", "parallel"):
            assert word not in blob

    def test_aggregated_registry_labels_every_node(self, payload):
        text = payload["_registry"].to_prometheus()
        for i in range(NODES):
            assert f'node="n{i}"' in text

    def test_engine_internal_metrics_excluded(self, payload):
        """Sync-mode-dependent engine counters must not reach the
        aggregate (they count barrier wakeups, not workload)."""
        text = payload["_registry"].to_json()
        assert "kernel_events_popped" not in text
        assert "engine_event_queue_depth" not in text


class TestNonInterference:
    def test_signatures_match_uninstrumented_run(self):
        """Arming the bus log, rx logs, and full-mode collectors must
        not move a single full-mode per-node trace signature."""
        plain = build_ring_cluster(NODES, UTILIZATION, "adaptive",
                                   record="full")
        plain.run_until(HORIZON)
        baseline = plain.trace_signatures(include_segments=True)

        traced = _traced_ring("adaptive")
        assert traced.trace_signatures(include_segments=True) == baseline

    def test_unarmed_cluster_export_rejected(self):
        cluster = build_ring_cluster(NODES, UTILIZATION, "lockstep",
                                     record="full")
        cluster.run_until(ms(5))
        with pytest.raises(ValueError, match="not armed"):
            cluster_chrome_trace(cluster)


class TestBusChainLatency:
    def test_percentiles_per_channel(self):
        cluster = _traced_ring("adaptive")
        chains = bus_chain_latency(
            list(cluster.bus.bus_log),
            {n: iface.rx_log for n, iface in cluster.interfaces.items()},
            cluster.rx_timelines(),
        )
        assert set(chains) == set(range(0x100, 0x100 + NODES))
        for can_id, stats in chains.items():
            assert stats["frames"] > 0
            deliver = stats["send_deliver_ns"]
            assert deliver["p50"] <= deliver["p95"] <= deliver["max"]
            # Wire time alone is 111 us at 1 Mbit/s; nothing can be
            # delivered faster.
            assert deliver["p50"] >= 111_000


class TestCli:
    def test_cluster_trace_subcommand(self, tmp_path):
        from repro.reproduce import main

        out = tmp_path / "cluster.trace.json"
        metrics_out = tmp_path / "metrics.json"
        code = main([
            "cluster-trace", "--quick",
            "--out", str(out), "--metrics-out", str(metrics_out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) > 0
        assert json.loads(metrics_out.read_text())
