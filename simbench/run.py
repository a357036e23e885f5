#!/usr/bin/env python3
"""Benchmark of the EMERALDS simulator: four workloads, one command.

Run from the repository root::

    python3 simbench/run.py --workload kernel-lean --seed 1 --seconds 20 --trace 0

``--trace 0`` times rounds of the workload with tracing off and reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics (see ``tracer.py``).  Every
operation's output is compared with the references recorded in
``references.json``.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every operation matched its reference.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Environment knobs that would change the measured code path; the
#: benchmark always measures the program's defaults.
PINNED_ENV = (
    "REPRO_SNAPSHOT",
    "REPRO_BENCH_WORKERS",
    "REPRO_CLUSTER_WORKERS",
    "REPRO_BENCH_RECORD",
    "REPRO_BENCH_OBS",
)

#: ``(name, unit)`` of the end-to-end metrics, all measured untraced.
END_TO_END = (
    ("sim_ns_per_s", "ns/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("deadline_met_ratio", "ratio"),
)

#: Rounds every run makes, however long they take.
MIN_ROUNDS = 3

#: Import-time samples per run, spread evenly over its duration;
#: ``setup_s`` counts the fastest.  Samples taken back to back were
#: often all slow together, up to 2x, for the same one-sided reason as
#: rounds.
IMPORT_SAMPLES = 5

_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{here!r}, {src!r}]
import repro, tracer, workloads
print(time.perf_counter() - start)
"""

# Host noise on shared machines is one-sided -- contention from other
# processes only ever slows a round down, often for tens of seconds --
# so a run reports its fastest round's throughput.  Over six 20-second
# kernel-lean runs on other seeds (2-vCPU VM) it spread 0.09 (quartile
# distance / median) against 0.23 for the median round.


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """Drop the knobs in :data:`PINNED_ENV` from the environment."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)


def import_sample():
    """Seconds a fresh interpreter takes to import the simulator and
    the benchmark's modules."""
    probe = _IMPORT_PROBE.format(here=HERE, src=os.path.join(ROOT, "src"))
    return float(subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, timeout=60,
    ).stdout)


def load_simulator():
    """Import the simulator from ``src/`` of this checkout."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


class Checker:
    """Counts operations and compares their digests with references."""

    def __init__(self, expected):
        #: op -> digest; ``None`` until the first round when no
        #: reference is recorded for this seed (run-to-run check only).
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def ops(self, round_ops, label):
        if self.expected is None:
            self.expected = dict(round_ops)
        for op, value in round_ops.items():
            self.attempted += 1
            if self.expected.get(op) != value:
                self.failed += 1
                print(f"MISMATCH {label} {op}: {value} != {self.expected.get(op)}")
        for op in set(self.expected) - set(round_ops):
            self.attempted += 1
            self.failed += 1
            print(f"MISSING {label} {op}")

    def crashed(self, label):
        count = len(self.expected) if self.expected else 1
        self.attempted += count
        self.failed += count
        print(f"FAILED {label}: {count} operation(s) raised", file=sys.stderr)
        traceback.print_exc()


def one_round(workload, seed, tracer=None):
    """Set up, time and check one round: ``(setup_s, run_s, Round)``.

    The timed section runs with the garbage collector parked after a
    full collection, the discipline of the repo's own harnesses.  With
    a ``tracer``, its wrappers are installed around the timed section
    only.
    """
    from tracer import NullProbe, entry_points

    gc.collect()
    start = time.perf_counter()
    prepared = workload.setup(seed)
    setup_s = time.perf_counter() - start
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        if tracer is not None:
            tracer.install(entry_points(tracer))
        try:
            start = time.perf_counter()
            if tracer is not None:
                outcome = tracer.call("bench:round", workload.run, prepared, tracer)
            else:
                outcome = workload.run(prepared, NullProbe)
            run_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        if enabled:
            gc.enable()
    return setup_s, run_s, workload.check(outcome)


def peak_rss_mb(include_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timed_rounds(workload, seed, seconds, checker):
    """Rounds until ``seconds`` would be exceeded (at least MIN_ROUNDS),
    with the import samples taken between them."""
    setups, throughputs, rounds, imports = [], [], [], []
    start = time.perf_counter()
    tried = 0
    while True:
        began = time.perf_counter()
        if began - start >= len(imports) * seconds / IMPORT_SAMPLES:
            imports.append(import_sample())
        tried += 1
        try:
            setup_s, run_s, rnd = one_round(workload, seed)
        except Exception:
            checker.crashed(f"round {tried}")
        else:
            checker.ops(rnd.ops, f"round {tried}")
            setups.append(setup_s)
            throughputs.append(rnd.virtual_ns / run_s)
            rounds.append(rnd)
        now = time.perf_counter()
        if tried >= MIN_ROUNDS and now + (now - began) - start > seconds:
            break
    while len(imports) < IMPORT_SAMPLES:
        imports.append(import_sample())
    return setups, throughputs, rounds, min(imports)


def traced_rounds(workload, seed, seconds, checker):
    """Untraced/traced round pairs until ``seconds`` would be exceeded.

    Returns the per-layer metrics and the rounds run.
    """
    from tracer import Tracer, calibrate, layer_metrics

    calibration = calibrate()
    tracer = Tracer()
    plain_s, traced_s, rounds = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        pair = len(plain_s) + 1
        try:
            _, run_s, plain = one_round(workload, seed)
            checker.ops(plain.ops, f"untraced round {pair}")
            _, run_traced_s, traced = one_round(workload, seed, tracer)
            tracer.end_run(pair)
            if traced.ops != plain.ops:
                print(f"MISMATCH traced round {pair}: traced outputs differ from untraced")
            checker.ops(traced.ops, f"traced round {pair}")
        except Exception:
            checker.crashed(f"pair {pair}")
            return None, rounds
        plain_s.append(run_s)
        traced_s.append(run_traced_s)
        rounds.append(plain)
        now = time.perf_counter()
        if now + (now - began) - start > seconds:
            break
    if tracer.missing:
        print(f"not traced, missing from the program: {', '.join(tracer.missing)}")
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    runs = [tracer.runs[i] for i in sorted(tracer.runs)]
    metrics = layer_metrics(runs, calibration, overhead, rounds[0].virtual)
    report_layers(runs, calibration, metrics, len(plain_s), workload.name)
    return metrics, rounds


def report_layers(runs, calibration, metrics, pairs, workload_name):
    """Print the per-layer breakdown (self time per traced round)."""
    from tracer import LAYERS, layer_self_ns, total

    layers = layer_self_ns(total(runs), calibration)
    whole = sum(layers.values()) or 1.0
    print(f"per-layer self time, mean of {pairs} traced round(s) "
          f"(empty span {metrics['tracer.empty_span_ns']:.0f} ns subtracted; "
          f"traced/untraced wall {metrics['tracer.overhead_ratio']:.2f}x):")
    for layer in LAYERS:
        if layer in layers:
            print(f"  {layer:<14} {layers[layer] / 1e9 / pairs:9.4f} s "
                  f"{100 * layers[layer] / whole:5.1f}%")
    if workload_name == "kernel-lean":
        print("scheduler primitives, host ns/call next to the virtual ns "
              "charged per call (Table 1's t_s, t_b, t_u):")
        for policy in ("edf", "rm", "csd"):
            cells = []
            for op, label in (("select", "t_s"), ("block", "t_b"), ("unblock", "t_u")):
                host = metrics[f"core.{policy}.{op}.host_ns"]
                virt = metrics[f"core.{policy}.{op}.virt_ns"]
                cells.append(f"{label} host {host:6.0f} virt {virt:6.0f}")
            print(f"  {policy:<4} " + " | ".join(cells))


def run_canaries(workload, references, checker):
    """Seed-independent reference checks (one operation each)."""
    expected = references.get("canaries", {})
    for name, fn in workload.canaries().items():
        checker.attempted += 1
        try:
            value = fn()
        except Exception:
            checker.failed += 1
            print(f"FAILED canary {name}", file=sys.stderr)
            traceback.print_exc()
            continue
        if value != expected.get(name):
            checker.failed += 1
            print(f"MISMATCH canary {name}: {value!r}")


def load_references(workload):
    """``(all references, this workload's references by seed)``; raises
    when they were recorded for another workload configuration."""
    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)
    entry = references["workloads"].get(workload.name)
    if entry is None or entry["config"] != json.loads(json.dumps(workload.config())):
        from workloads import BenchError

        raise BenchError(
            f"references.json holds no references for {workload.name} as "
            "configured; re-record them with simbench/record_references.py"
        )
    return references, entry["seeds"]


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    try:
        load_simulator()
        from workloads import WORKLOADS, BenchError
    except ImportError as err:
        print(f"simbench: cannot import the simulator: {err}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"simbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    try:
        references, by_seed = load_references(workload)
        workload.inputs(args.seed)  # fail early on an unusable seed
    except BenchError as err:
        print(f"simbench: {err}", file=sys.stderr)
        return 2
    expected = by_seed.get(str(args.seed), by_seed.get("any"))
    if expected is None:
        print(f"no recorded reference for --seed {args.seed}: outputs are "
              "checked for run-to-run identity and by the canaries only")
    checker = Checker(expected)

    if args.trace:
        from tracer import PER_LAYER

        metrics, rounds = traced_rounds(workload, args.seed, args.seconds, checker)
        units = dict(PER_LAYER)
    else:
        setups, throughputs, rounds, import_s = timed_rounds(
            workload, args.seed, args.seconds, checker
        )
        metrics = None
        if rounds:
            metrics = {
                "sim_ns_per_s": max(throughputs),
                "setup_s": import_s + statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(workload.name == "fault-sweep"),
                "deadline_met_ratio": 1.0 - rounds[0].miss_ratio,
            }
            print(f"{len(rounds)} rounds of {workload.name}, --seed {args.seed}: "
                  f"throughput per round {[f'{t:.3g}' for t in throughputs]}; "
                  f"set-up {import_s:.3f} s imports (fastest of {IMPORT_SAMPLES}) + "
                  f"{statistics.median(setups):.3f} s median per round")
        units = dict(END_TO_END)
    run_canaries(workload, references, checker)

    if metrics is None:
        print(f"simbench: no round of {workload.name} completed", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if rounds:
        for name, value in rounds[0].virtual.items():
            print(f"{name} {value:.6g} (virtual)")
    print(f"failed_ratio {checker.failed / max(1, checker.attempted):.6g} "
          f"({checker.failed} of {checker.attempted} operations)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
