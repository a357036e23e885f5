"""Checkpoint/restore snapshots: byte-identity is the contract.

Every test here pins the same invariant from a different angle: a
sweep point restored from a shared-prefix fork snapshot must be
**byte-identical** to cold-starting that point -- full-record trace
signatures, metrics exports, membership timelines, everything.  The
graceful-degradation path (no ``os.fork``) must produce the same bytes
too, just slower.  And no forked process may outlive a failure: not a
failed group's, not a killed sweep's.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro

from repro.faults.chaos import (
    chaos_continue,
    chaos_prefix,
    net_chaos_continue,
    net_chaos_prefix,
    run_chaos,
    run_net_chaos,
)
from repro.perf import snapshot as snapshot_mod
from repro.perf.snapshot import SnapshotError, SnapshotServer, fork_available
from repro.perf.sweeps import WORKERS_ENV, PrefixSpec, parallel_map, prefix_map
from repro.timeunits import ms
from tests.test_trace import oracle_signature

requires_fork = pytest.mark.skipif(
    not fork_available(), reason="os.fork unavailable"
)

DUR = ms(300)
WARM = ms(225)
SEEDS = (1, 2)
RATES = (5.0, 50.0)


def _chaos_cold(rate, seed):
    return run_chaos(
        seed,
        DUR,
        wcet_overrun_rate=rate,
        crash_rate=rate / 10,
        clock_jitter_rate=rate / 2,
        faults_from=WARM,
    )


def _chaos_plan(case):
    rate, seed = case
    spec = PrefixSpec(
        key=("chaos", WARM),
        t_split=WARM,
        build=lambda: chaos_prefix(True, t_split=WARM),
    )

    def continuation(kernel):
        return chaos_continue(
            kernel,
            seed,
            DUR,
            wcet_overrun_rate=rate,
            crash_rate=rate / 10,
            clock_jitter_rate=rate / 2,
            faults_from=WARM,
        )

    return spec, continuation


class TestChaosEquality:
    """Kernel fault sweeps: restored == cold, across seeds."""

    def test_restored_points_equal_cold(self):
        """Each restored point also returns the one-shot hash of its
        child's final trace: the digest state the child inherited from
        its signed prefix must sign exactly what the child recorded."""

        def plan(case):
            spec, continuation = _chaos_plan(case)

            def signed(kernel):
                return continuation(kernel), oracle_signature(kernel.trace)

            return spec, signed

        cases = [(rate, seed) for rate in RATES for seed in SEEDS]
        cold = [_chaos_cold(rate, seed) for rate, seed in cases]
        outcomes = prefix_map(plan, cases)
        assert [restored for restored, _ in outcomes] == cold
        for a, (b, oracle) in zip(cold, outcomes):
            assert a.trace_signature == b.trace_signature == oracle
            assert a.trace_signature  # non-trivial signature

    def test_zero_rate_pause_is_pure_chunking(self):
        """With no faults, the warm-up pause is just a chunked run:
        the signature must match the single-run reference exactly."""
        paused = run_chaos(1, DUR, faults_from=WARM)
        reference = run_chaos(1, DUR)
        assert paused.trace_signature == reference.trace_signature

    def test_metrics_exports_identical(self):
        """The observability collector survives the snapshot: JSON and
        Prometheus exports of a restored run match the cold run
        byte-for-byte."""

        def plan(case):
            (seed,) = case
            spec = PrefixSpec(
                key=("chaos-obs", WARM),
                t_split=WARM,
                build=lambda: chaos_prefix(True, t_split=WARM, obs="full"),
            )

            def continuation(kernel):
                result = chaos_continue(
                    kernel, seed, DUR,
                    wcet_overrun_rate=20.0, faults_from=WARM,
                )
                return (
                    result,
                    kernel.obs.metrics_json(),
                    kernel.obs.metrics_prometheus(),
                )

            return spec, continuation

        def cold(seed):
            kernel = chaos_prefix(True, t_split=WARM, obs="full")
            result = chaos_continue(
                kernel, seed, DUR, wcet_overrun_rate=20.0, faults_from=WARM
            )
            return (
                result,
                kernel.obs.metrics_json(),
                kernel.obs.metrics_prometheus(),
            )

        cases = [(seed,) for seed in SEEDS]
        expected = [cold(seed) for (seed,) in cases]
        restored = prefix_map(plan, cases)
        assert restored == expected


class TestNetChaosEquality:
    """Cluster sweeps: membership timelines included, any worker count."""

    NET = dict(
        dependability=True,
        max_retransmits=8,
        silence_node="n2",
        silence_at=ms(120),
        rejoin_backoff_ns=ms(100),
    )
    NET_DUR = ms(400)
    NET_WARM = ms(100)

    def _plan(self, case):
        drop_p, seed = case
        spec = PrefixSpec(
            key=("netchaos", self.NET_DUR, self.NET_WARM),
            t_split=self.NET_WARM,
            build=lambda: net_chaos_prefix(
                self.NET_DUR, t_split=self.NET_WARM, **self.NET
            ),
        )

        def continuation(state):
            return net_chaos_continue(
                state, seed, drop_p=drop_p, faults_from=self.NET_WARM
            )

        return spec, continuation

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_restored_cluster_equal_cold(self, workers, monkeypatch):
        # The sweep worker count bounds concurrent continuations per
        # group; it must never change the bytes.
        monkeypatch.setenv(WORKERS_ENV, workers)
        cases = [(drop_p, seed) for drop_p in (0.15,) for seed in SEEDS]
        cold = [
            run_net_chaos(
                seed,
                self.NET_DUR,
                drop_p=drop_p,
                faults_from=self.NET_WARM,
                **self.NET,
            )
            for drop_p, seed in cases
        ]
        restored = prefix_map(self._plan, cases)
        assert restored == cold
        for a, b in zip(cold, restored):
            assert a.signature == b.signature
            assert a.membership_events == b.membership_events
            # The silenced node must actually exercise the timeline.
            assert a.membership_events


def _pid(_item):
    """Which process ran this item."""
    return os.getpid()


class TestGracefulDegradation:
    """Fork-less platforms fall back to cold runs transparently -- same
    results, no snapshot machinery."""

    def _poison_server(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("SnapshotServer constructed in cold mode")

        monkeypatch.setattr(snapshot_mod, "SnapshotServer", boom)

    def test_auto_without_fork_degrades_to_cold(self, monkeypatch):
        """Without fork, prefix_map cold-starts every point."""
        monkeypatch.setattr(snapshot_mod, "fork_available", lambda: False)
        self._poison_server(monkeypatch)
        cases = [(rate, seed) for rate in (5.0,) for seed in SEEDS]
        cold = [_chaos_cold(rate, seed) for rate, seed in cases]
        assert prefix_map(_chaos_plan, cases) == cold

    def test_parallel_map_without_fork_runs_serially(self, monkeypatch):
        monkeypatch.setattr(snapshot_mod, "fork_available", lambda: False)
        items = list(range(4))
        assert parallel_map(_pid, items, workers=2) == [
            _pid(item) for item in items
        ]

    def test_single_member_groups_run_cold(self, monkeypatch):
        """A prefix shared by nobody is not worth a server."""
        self._poison_server(monkeypatch)
        cases = [(5.0, 1)]
        assert prefix_map(_chaos_plan, cases) == [_chaos_cold(5.0, 1)]


class TestSnapshotServer:
    @requires_fork
    def test_continuation_error_propagates(self):
        def bad_continuation(state):
            raise ValueError("boom in child")

        server = SnapshotServer(lambda: {"t": 0}, [bad_continuation])
        with pytest.raises(SnapshotError, match="boom in child"):
            server.ready()
            server.results()
        server.close()

    @requires_fork
    def test_build_error_propagates(self):
        def bad_build():
            raise ValueError("boom in build")

        server = SnapshotServer(bad_build, [len])
        with pytest.raises(SnapshotError, match="(?s)Traceback.*boom in build"):
            server.results()
        server.close()

    @requires_fork
    def test_results_after_close_raise_snapshot_error(self):
        server = SnapshotServer(dict, [len])
        server.ready()
        server.close()
        with pytest.raises(SnapshotError, match="is closed"):
            server.results()

    @requires_fork
    def test_collects_whichever_child_finishes_first(self, tmp_path):
        """At ``children=2``, continuation 0 waits for a marker that
        continuation 2 writes: 2 only gets a slot if the server
        collects the finished 1 while 0 still runs."""
        marker = tmp_path / "marker"

        def first(_state):
            if not _wait_for(marker, timeout_s=5.0):
                raise TimeoutError("continuation 2 never started")
            return 0

        def third(_state):
            marker.touch()
            return 2

        with SnapshotServer(
            dict, [first, lambda _state: 1, third], children=2
        ) as server:
            assert server.results() == [0, 1, 2]

    @requires_fork
    def test_children_see_private_state(self):
        """Copy-on-write isolation: every child mutates its own copy."""

        def continuation(state):
            state["log"].append(state["who"])
            state["who"] += 1
            return (state["who"], tuple(state["log"]))

        with SnapshotServer(
            lambda: {"who": 0, "log": []}, [continuation] * 3
        ) as server:
            assert server.ready() >= 0.0
            results = server.results()
        assert results == [(1, (0,)), (1, (0,)), (1, (0,))]


def _grouped_plan(case):
    """Chaos points keyed by (defenses, warm-up): several prefix groups."""
    defended, warm, rate, seed = case
    spec = PrefixSpec(
        key=("chaos", defended, warm),
        t_split=warm,
        build=lambda: chaos_prefix(defended, t_split=warm),
    )

    def continuation(kernel):
        return chaos_continue(
            kernel,
            seed,
            DUR,
            wcet_overrun_rate=rate,
            crash_rate=rate / 10,
            clock_jitter_rate=rate / 2,
            defenses=defended,
            faults_from=warm,
        )

    return spec, continuation


def _grouped_cold(case):
    defended, warm, rate, seed = case
    return run_chaos(
        seed,
        DUR,
        wcet_overrun_rate=rate,
        crash_rate=rate / 10,
        clock_jitter_rate=rate / 2,
        defenses=defended,
        faults_from=warm,
    )


def _wait_for(path, timeout_s=20.0):
    """Poll until ``path`` exists or ``timeout_s`` passes; whether it does."""
    deadline = time.monotonic() + timeout_s
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return path.exists()


def _alive(pid):
    """Whether ``pid`` runs (an exited process awaiting reaping does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: a signalable pid counts as running
        return True


#: A sweep whose continuations publish ``"<server pid> <own pid>"`` to
#: ``argv[1]`` and then sleep for a minute.
_SLEEPY_SWEEP = """
import os, sys, time
from repro.perf.sweeps import PrefixSpec, prefix_map

def linger(_state):
    scratch = f"{sys.argv[1]}.{os.getpid()}"
    with open(scratch, "w") as fh:
        fh.write(f"{os.getppid()} {os.getpid()}")
    os.rename(scratch, sys.argv[1])
    time.sleep(60)

spec = PrefixSpec(key=("sleepy",), t_split=1, build=dict)
prefix_map(lambda case: (spec, linger), range(3), children=1)
"""


#: ``parallel_map`` over four points whose third kills its process.
_DYING_MAP = """
import os
from repro.perf.sweeps import parallel_map

def point(item):
    if item == 2:
        os._exit(1)
    return item

parallel_map(point, range(4), workers=2)
"""


class TestFanOut:
    """Every forked point runs in a ``SnapshotServer``, shared prefix
    or not."""

    @requires_fork
    def test_dead_child_raises_instead_of_hanging(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _DYING_MAP],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode != 0
        assert "SnapshotError" in done.stderr

    @requires_fork
    def test_cold_points_fan_out_over_children(self):
        """``t_split == 0`` points share nothing, yet ``children`` still
        forks them, and the bytes match ``run_chaos``."""

        def plan(case):
            spec, continuation = _grouped_plan(case)
            return spec, lambda kernel: (os.getpid(), continuation(kernel))

        cases = [(True, 0, rate, seed) for rate in RATES for seed in SEEDS]
        outcomes = prefix_map(plan, cases, children=2)
        assert [result for _, result in outcomes] == [
            _grouped_cold(case) for case in cases
        ]
        assert os.getpid() not in {pid for pid, _ in outcomes}


class TestPrefixGroups:
    """Several prefix groups in one ``prefix_map`` call."""

    def test_interleaved_groups_and_singleton_equal_cold(self):
        cases = [
            (True, WARM, 5.0, 1),
            (False, WARM, 5.0, 1),
            (True, WARM, 50.0, 2),
            (True, ms(150), 20.0, 1),  # a singleton group: runs cold
            (False, WARM, 50.0, 2),
        ]
        cold = [_grouped_cold(case) for case in cases]
        assert prefix_map(_grouped_plan, cases) == cold

    @staticmethod
    def _marker_plan(continuations):
        """Two fork groups, ``a`` and ``b``, with trivial prefixes."""

        def plan(case):
            group, _member = case
            spec = PrefixSpec(key=(group,), t_split=1, build=dict)
            return spec, continuations[group]

        return plan, [("a", 0), ("a", 1), ("b", 0), ("b", 1)]

    @requires_fork
    def test_fork_groups_overlap(self, tmp_path):
        """Each group's continuations wait for the other group's: they
        only all see each other if the groups run at the same time."""

        def meet(mine, theirs):
            def continuation(_state):
                (tmp_path / mine).touch()
                return _wait_for(tmp_path / theirs)

            return continuation

        plan, cases = self._marker_plan(
            {"a": meet("a", "b"), "b": meet("b", "a")}
        )
        assert prefix_map(plan, cases, children=1) == [True] * 4

    @requires_fork
    def test_failed_group_leaves_no_orphans(self, tmp_path):
        """Group ``a`` fails while group ``b``'s continuation is still
        running: the error surfaces without waiting for ``b``, whose
        child is gone before it could finish."""
        pid_file = tmp_path / "b.pid"
        finished = tmp_path / "b.finished"

        def fail(_state):
            _wait_for(pid_file)
            raise ValueError("boom in group a")

        def linger(_state):
            scratch = tmp_path / f"b.{os.getpid()}"
            scratch.write_text(str(os.getpid()))
            scratch.rename(pid_file)
            time.sleep(60)
            finished.write_text("")

        plan, cases = self._marker_plan({"a": fail, "b": linger})
        with pytest.raises(SnapshotError, match="boom in group a"):
            prefix_map(plan, cases, children=1)
        assert not finished.exists()
        pid = int(pid_file.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @requires_fork
    def test_killed_sweep_leaves_no_orphans(self, tmp_path):
        """SIGKILL the process blocked in ``prefix_map``: its server
        and the in-flight continuation must follow it, not live on
        (reparented) and fork the remaining points."""
        pid_file = tmp_path / "pids"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        sweep = subprocess.Popen(
            [sys.executable, "-c", _SLEEPY_SWEEP, str(pid_file)], env=env
        )
        try:
            assert _wait_for(pid_file)
        finally:
            sweep.kill()
            sweep.wait()
        pids = [int(pid) for pid in pid_file.read_text().split()]
        try:
            deadline = time.monotonic() + 10
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, pids))
        finally:
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)
