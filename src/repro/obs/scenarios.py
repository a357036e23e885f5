"""Small deterministic scenarios used by the observability layer.

:func:`pi_demo_kernel` builds the transitive priority-inversion demo
the analyzers and golden tests run on -- a three-thread, two-semaphore
workload engineered so that a high-priority thread's donation must
flow *through* a middle thread to reach a low-priority holder:

* ``c`` (lowest priority) locks ``M`` first and computes inside it;
* ``b`` (middle) locks ``S``, then blocks on ``M`` (held by ``c``) --
  first donation, ``b -> c`` through ``M``;
* ``a`` (highest) blocks on ``S`` (held by ``b``) -- second donation
  ``a -> b`` through ``S``, and, because ``b`` is itself blocked on
  ``M``, a *transitive* hop ``a -> c`` under the standard scheme.

Everything is phase/period driven with no randomness, so two runs (on
any machine, in any worker process) observe byte-identical metrics --
which is exactly what the golden and property tests assert.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.kernel.kernel import Kernel
from repro.kernel.program import Acquire, Compute, Program, Release
from repro.obs.collector import ObsCollector
from repro.sim.kernelsim import make_scheduler
from repro.sim.trace import Trace
from repro.timeunits import ms, us

__all__ = ["pi_demo_kernel", "run_pi_demo", "demo_metrics_fingerprint"]

#: Default virtual horizon for the demo: two 10 ms periods.
DEMO_HORIZON_NS = ms(20)


def pi_demo_kernel(
    scheme: str = "standard",
    policy: str = "edf",
    record: Optional[str] = "full",
) -> Kernel:
    """Build (but do not run) the transitive-PI demo kernel."""
    kernel = Kernel(
        make_scheduler(policy), sem_scheme=scheme, record=record
    )
    kernel.create_semaphore("M")
    kernel.create_semaphore("S")
    # c: lowest priority (latest deadline); grabs M at t=0 and holds it
    # long enough for both donors to queue up behind it.
    kernel.create_thread(
        "c",
        Program(
            [
                Acquire("M"),
                Compute(ms(2)),
                Release("M"),
                Compute(us(50)),
            ]
        ),
        period=ms(10),
        deadline=ms(9),
    )
    # b: middle priority; locks S, then blocks on M -> donates to c.
    kernel.create_thread(
        "b",
        Program(
            [
                Acquire("S"),
                Compute(us(100)),
                Acquire("M"),
                Compute(us(200)),
                Release("M"),
                Release("S"),
            ]
        ),
        period=ms(10),
        deadline=ms(6),
        phase=us(200),
    )
    # a: highest priority; blocks on S -> donates to b, transitively c.
    kernel.create_thread(
        "a",
        Program(
            [
                Acquire("S"),
                Compute(us(100)),
                Release("S"),
            ]
        ),
        period=ms(10),
        deadline=ms(3),
        phase=us(500),
    )
    return kernel


def run_pi_demo(
    scheme: str = "standard",
    policy: str = "edf",
    mode: str = "full",
    horizon: int = DEMO_HORIZON_NS,
    record: Optional[str] = "full",
) -> Tuple[Kernel, Trace, ObsCollector]:
    """Run the demo with an attached collector; returns
    ``(kernel, trace, collector)``."""
    kernel = pi_demo_kernel(scheme, policy, record=record)
    collector = ObsCollector(mode=mode).attach(kernel)
    trace = kernel.run_until(horizon)
    return kernel, trace, collector


def demo_metrics_fingerprint(scheme: str) -> str:
    """Hash of every observability export for one demo run.

    sha256 over the metrics JSON, the Prometheus text, and the Chrome
    trace JSON; the determinism property test fans it out through
    ``parallel_map`` and compares fingerprints across worker counts.
    """
    import hashlib
    import json

    from repro.obs.tracer import chrome_trace_events

    kernel, trace, collector = run_pi_demo(scheme=scheme)
    chrome = json.dumps(
        chrome_trace_events(trace, collector), sort_keys=True
    )
    digest = hashlib.sha256()
    digest.update(collector.metrics_json().encode())
    digest.update(collector.metrics_prometheus().encode())
    digest.update(chrome.encode())
    digest.update(trace.signature().encode())
    return digest.hexdigest()
