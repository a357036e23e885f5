"""Check simbench outputs at one checkout against its recorded references.

Usage::

    python benchmarks/refcheck.py ROOT [WORKLOAD ...] [--seeds A-B]

For each workload (all four by default) this runs one untimed round per
recorded seed of the checkout at ``ROOT`` and compares every operation's
digest with that checkout's ``simbench/references.json``, which it only
reads; then it runs the workload's canaries.  ``--seeds A-B`` keeps the
recorded seeds from A to B.  A workload recorded for ``any`` seed (the
ring has no random input) runs one round.  Every mismatch is printed;
the exit code is 1 on any mismatch or failed round, 2 on bad arguments.

``simbench/run.py`` checks one seed per run; a change meant to keep
every output byte (a refactor, a speed-up) should pass this over every
seed.  Like ``pairs.py``, it imports that tree's ``simbench/workloads.py``
and ``src/`` and drives the same surface: ``WORKLOADS``,
``setup``/``run``/``check`` and ``NullProbe``.
"""

import argparse
import gc
import os
import sys
import traceback
from functools import partial


def mismatches(expected, got):
    """One ``"op: got != expected"`` line per operation whose value in
    ``got`` differs from ``expected`` (both map an operation to its
    digest; an operation missing on one side reads ``None``)."""
    return [
        f"{op}: {got.get(op)} != {expected.get(op)}"
        for op in sorted(set(expected) | set(got))
        if got.get(op) != expected.get(op)
    ]


def _seed_range(text):
    low, _, high = text.partition("-")
    try:
        low, high = int(low), int(high or low)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    return low, high


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="refcheck.py",
        description="Check every recorded simbench seed against its references.",
    )
    parser.add_argument("root", help="checkout whose simbench/ and src/ to run")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--seeds", type=_seed_range, metavar="A-B")
    return parser.parse_args(argv)


def _import_checkout(root):
    """Put ``root``'s ``simbench/`` and ``src/`` first on the path and
    make sure the simulator comes from there."""
    sys.path[:0] = [os.path.join(root, "simbench"), os.path.join(root, "src")]
    import repro

    if not repro.__file__.startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {root}")


def _seeds(recorded, seeds):
    """The recorded seeds to run, as ``(seed to run, reference key)``."""
    if list(recorded) == ["any"]:
        return [(seeds[0] if seeds else 0, "any")]
    chosen = sorted(int(seed) for seed in recorded)
    if seeds:
        chosen = [seed for seed in chosen if seeds[0] <= seed <= seeds[1]]
    return [(seed, str(seed)) for seed in chosen]


def _round_ops(workload, probe, seed):
    """The operation digests of one untimed round."""
    gc.collect()
    return workload.check(workload.run(workload.setup(seed), probe)).ops


def _check(label, expected, compute):
    """Print each mismatch of ``compute()`` (an operation -> digest map)
    with ``expected``; True when there was one or ``compute`` raised."""
    try:
        lines = mismatches(expected, compute())
    except Exception:
        traceback.print_exc()
        lines = ["the check raised"]
    for line in lines:
        print(f"MISMATCH {label} {line}")
    print(f"{label}: {'FAILED' if lines else 'ok'}", flush=True)
    return bool(lines)


def main(argv) -> int:
    args = _parse(argv)
    root = os.path.abspath(args.root)
    _import_checkout(root)
    import run
    from tracer import NullProbe
    from workloads import WORKLOADS, BenchError

    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        print(f"refcheck: unknown workload(s) {unknown} "
              f"(expected {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    run.pin_environment()
    checks = failed = 0
    for name in args.workloads or WORKLOADS:
        workload = WORKLOADS[name]()
        try:
            references, recorded = run.load_references(workload)
        except BenchError as err:
            print(f"refcheck: {err}", file=sys.stderr)
            return 2
        chosen = _seeds(recorded, args.seeds)
        if not chosen:
            print(f"refcheck: {name} has no recorded seed in --seeds", file=sys.stderr)
            return 2
        for seed, key in chosen:
            checks += 1
            failed += _check(
                f"{name} seed {seed}", recorded[key],
                partial(_round_ops, workload, NullProbe, seed),
            )
        canaries = workload.canaries()
        if canaries:
            checks += 1
            recorded_canaries = references.get("canaries", {})
            failed += _check(
                f"{name} canaries",
                {canary: recorded_canaries.get(canary) for canary in canaries},
                lambda: {canary: fn() for canary, fn in canaries.items()},
            )
    print(f"refcheck: {failed} of {checks} checks failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
