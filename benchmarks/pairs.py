"""Paired single rounds of one simbench workload at two checkouts.

Usage::

    python benchmarks/pairs.py BASE_ROOT CHANGE_ROOT WORKLOAD SEED PAIRS

Whole ``simbench/run.py`` runs of the same code swing by about 15%
between minutes on a small shared VM, so alternating whole runs of two
commits cannot resolve a 5% step.  This script starts one long-lived
worker process per checkout; each imports that tree's
``simbench/workloads.py`` and ``src/`` and checks that ``repro`` came
from its own tree.  Each worker runs one warm-up round, which is
discarded.  Then, per pair, both workers time one round each, the side
that goes first alternating from pair to pair, and both sides' operation
digests must agree.  The output is the median per-round time ratio
(base/change, so above 1 means the change is faster), its quartiles and
the pairs the change won; then each side's Python and C calls in one
untimed round (:func:`work_line`), a count the host cannot move; then
each side's median round time, its quartiles and its quartile distance
as a fraction of the median (see :func:`spread`).  Both sides are
counted by this tree's ``repro/perf/workcount.py``, loaded by file
path, so an older checkout needs no counter of its own.  The count
covers the worker process only: fault-sweep's forked sweep points run
uncounted.

Make the base checkout with ``git archive <commit> | tar -x -C DIR``;
run 10-20 pairs at seeds no earlier comparison used.
"""

import importlib.util
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKCOUNT = os.path.join(HERE, os.pardir, "src", "repro", "perf", "workcount.py")

USAGE = "usage: pairs.py BASE_ROOT CHANGE_ROOT WORKLOAD SEED PAIRS"


def spread(times):
    """``(median, q1, q3, (q3 - q1) / median)`` of one side's round
    seconds.

    A gain is claimed only when the medians differ by more than the
    base side's quartile distance, so the base line shows that rule's
    threshold.  Per-round spreads are wider than those of whole
    ``simbench/run.py`` runs, each of which times many rounds.
    """
    q1, _, q3 = statistics.quantiles(times, n=4)
    median = statistics.median(times)
    return median, q1, q3, (q3 - q1) / median


def work_line(base_calls: int, change_calls: int) -> str:
    """Each side's calls in one untimed round, and their ratio
    (base/change, so above 1 means the change does less work)."""
    return (
        f"calls per round: base {base_calls:,}, change {change_calls:,}, "
        f"ratio (base/change) {base_calls / change_calls:.3f}"
    )


def worker(root: str, name: str, seed: str) -> None:
    """Serve rounds of workload ``name`` from checkout ``root``: per
    line read from stdin, one JSON line ``{"run_s", "ops"}`` of a timed
    round, or ``{"calls", "ops"}`` of a counted one for a ``count``
    line."""
    import gc
    import time

    spec = importlib.util.spec_from_file_location("workcount", WORKCOUNT)
    workcount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workcount)
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "simbench"), os.path.join(root, "src")]
    import repro

    if not repro.__file__.startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {root}")
    from tracer import NullProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    for line in sys.stdin:
        gc.collect()
        prepared = workload.setup(int(seed))
        if line.strip() == "count":
            out, calls = workcount.count_calls(workload.run, prepared, NullProbe)
            print(json.dumps({"calls": calls, "ops": workload.check(out).ops}), flush=True)
            continue
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        out = workload.run(prepared, NullProbe)
        run_s = time.perf_counter() - start
        gc.enable()
        print(json.dumps({"run_s": run_s, "ops": workload.check(out).ops}), flush=True)


def _start(root: str, name: str, seed: int) -> subprocess.Popen:
    code = (
        f"import sys; sys.path.insert(0, {HERE!r}); import pairs; "
        "pairs.worker(*sys.argv[1:])"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code, root, name, str(seed)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=root,
    )


def _round(proc: subprocess.Popen, request: str = "") -> dict:
    proc.stdin.write(request + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"worker exited with {proc.wait()}")
    return json.loads(line)


def main(argv) -> int:
    if len(argv) != 5:
        print(USAGE, file=sys.stderr)
        return 2
    base_root, change_root, name, seed, pairs = argv
    seed, pairs = int(seed), int(pairs)
    if pairs < 2:
        print("PAIRS must be at least 2 (quartiles need two ratios)", file=sys.stderr)
        return 2
    sides = {
        "base": _start(base_root, name, seed),
        "change": _start(change_root, name, seed),
    }
    try:
        for proc in sides.values():
            _round(proc)  # warm-up, discarded
        counted = {side: _round(proc, "count") for side, proc in sides.items()}
        if counted["base"]["ops"] != counted["change"]["ops"]:
            raise SystemExit("counted round: operation digests differ")
        ratios = []
        times = {"base": [], "change": []}
        for index in range(pairs):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            result = {side: _round(sides[side]) for side in order}
            if result["base"]["ops"] != result["change"]["ops"]:
                raise SystemExit(f"pair {index}: operation digests differ")
            for side in times:
                times[side].append(result[side]["run_s"])
            ratio = result["base"]["run_s"] / result["change"]["run_s"]
            ratios.append(ratio)
            print(
                f"pair {index:2d} ({order[0]} first): base "
                f"{result['base']['run_s']:.4f} s, change "
                f"{result['change']['run_s']:.4f} s, ratio {ratio:.3f}",
                flush=True,
            )
    finally:
        for proc in sides.values():
            proc.stdin.close()
            proc.wait()
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    won = sum(ratio > 1 for ratio in ratios)
    print(
        f"{name} seed {seed}: median ratio (base/change) "
        f"{statistics.median(ratios):.3f}, quartiles {q1:.3f}-{q3:.3f}, "
        f"change won {won}/{len(ratios)}"
    )
    print(work_line(counted["base"]["calls"], counted["change"]["calls"]))
    for side, run_s in times.items():
        median, q1, q3, distance = spread(run_s)
        print(
            f"{side} round: median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s, "
            f"quartile distance {distance:.1%} of the median"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
