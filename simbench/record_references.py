#!/usr/bin/env python3
"""Record the output references ``run.py`` compares every operation with.

Run from the repository root on a commit whose behaviour is the
reference (a change that keeps the trace signatures keeps these)::

    python3 simbench/record_references.py --seeds 0-63

For each workload and seed, one untimed round is run and each
operation's output digest stored in ``simbench/references.json``,
together with the workload configuration they belong to.  The
seed-independent canaries are stored too; the kernel one must equal
the ``signatures_full`` committed in ``BENCH_kernel.json``.
"""

import argparse
import json
import os
import sys

import run


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    args = parser.parse_args(argv)
    run.load_simulator()
    from workloads import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCH_kernel.json")) as fh:
        committed = json.load(fh)[-1]["signatures_full"]
    references = {"workloads": {}, "canaries": {}}
    for name, cls in WORKLOADS.items():
        workload = cls()
        for canary, fn in workload.canaries().items():
            references["canaries"][canary] = fn()
        by_seed = {}
        for seed in args.seeds if workload.seeded else [0]:
            _, _, rnd = run.one_round(workload, seed)
            by_seed[str(seed) if workload.seeded else "any"] = rnd.ops
            print(f"{name} seed {seed}: {len(rnd.ops)} operations", flush=True)
        references["workloads"][name] = {"config": workload.config(), "seeds": by_seed}
    if references["canaries"]["full_signatures"] != committed:
        print("full_signatures() differ from BENCH_kernel.json", file=sys.stderr)
        return 1
    with open(os.path.join(run.HERE, "references.json"), "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
