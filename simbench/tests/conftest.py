"""Shared fixtures: shrunken workloads and one traced round of each.

Run from the repository root with ``python3 -m pytest simbench/tests``.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

run.load_simulator()

from repro.timeunits import ms  # noqa: E402
from tracer import Tracer, calibrate, layer_metrics, layer_self_ns, total  # noqa: E402
from workloads import FaultSweep, KernelLean, KernelTraced, RingSaturated  # noqa: E402


def small_workloads():
    """Every workload at a size a test can afford (same code paths)."""
    return {
        "kernel-lean": KernelLean(ms(1000)),
        "kernel-traced": KernelTraced(ms(1000)),
        "ring-saturated": RingSaturated(ms(100)),
        "fault-sweep": FaultSweep(
            ((5.0, 50.0), 2, ms(2000), ms(1500)),
            ((0.1,), 2, ms(1000), ms(750)),
        ),
    }


class TracedRound:
    """One untraced and one traced round of a workload, with the
    traced round's per-layer self-time shares and metrics."""

    def __init__(self, workload, seed=1):
        self.workload = workload
        _, self.plain_s, self.plain = run.one_round(workload, seed)
        tracer = Tracer()
        _, self.traced_s, self.traced = run.one_round(workload, seed, tracer)
        tracer.end_run(1)
        self.missing = tracer.missing
        runs = [tracer.runs[1]]
        calibration = calibrate(samples=5000, repeats=3)
        self.self_ns = layer_self_ns(total(runs), calibration)
        whole = sum(self.self_ns.values())
        self.shares = {layer: ns / whole for layer, ns in self.self_ns.items()}
        self.metrics = layer_metrics(
            runs, calibration, self.traced_s / self.plain_s, self.plain.virtual
        )

    def share(self, *layers):
        return sum(self.shares.get(layer, 0.0) for layer in layers)


@pytest.fixture(scope="session")
def traced_rounds():
    return {name: TracedRound(w) for name, w in small_workloads().items()}
