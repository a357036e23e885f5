"""The persistent perf trajectories: ``BENCH_kernel.json``,
``BENCH_cluster.json`` and ``BENCH_sweeps.json``.

Every throughput measurement can append one machine-readable entry, so
the repository carries its own performance history: any PR that slows
the simulator down shows up as a droop in the committed trajectory,
and CI fails outright when the regression passes a threshold.

An entry records what was measured (``config_hash`` fingerprints the
workload + policies + horizon + recording mode), what came out
(throughput in sim-ns per wall-second, wall time, counters), and the
determinism cross-check (full-mode trace sha256 signatures -- an
optimization that changes these changed *behavior*, not just speed).

This module is the only code that gates or appends an entry: every
measuring CLI adds the same flags with :func:`add_gate_args` and runs
the same :func:`gate` through :func:`check_and_append`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "config_hash",
    "load_trajectory",
    "make_entry",
    "append_entry",
    "latest_entry",
    "gate",
    "add_gate_args",
    "check_and_append",
    "RegressionError",
]

PathLike = Union[str, Path]

#: The committed trajectories live at the repository root.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Default CI gate: fail when throughput drops more than 30% below
#: the committed baseline.
DEFAULT_MAX_REGRESSION = 0.30


class RegressionError(AssertionError):
    """A measurement has no baseline, is too slow, or changed behavior."""


def config_hash(config: Dict) -> str:
    """Stable fingerprint of a measurement configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_trajectory(path: PathLike) -> List[Dict]:
    """All recorded entries, oldest first (empty when absent)."""
    path = Path(path)
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of entries")
    return data


def make_entry(
    label: str,
    report_dict: Dict,
    config: Dict,
    signatures: Optional[Dict[str, str]] = None,
    **extra,
) -> Dict:
    """Assemble one trajectory entry (not yet persisted).

    The envelope (``label``, ``timestamp``, ``python``, ``config``,
    ``config_hash``) wins over same-named keys of ``report_dict`` and
    ``extra``.
    """
    entry = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": config,
        "config_hash": config_hash(config),
    }
    for key, value in {**report_dict, **extra}.items():
        entry.setdefault(key, value)
    if signatures is not None:
        entry["signatures_full"] = signatures
    return entry


def append_entry(path: PathLike, entry: Dict) -> Dict:
    """Append ``entry`` to the trajectory file and return it."""
    path = Path(path)
    entries = load_trajectory(path)
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    return entry


def latest_entry(
    entries: List[Dict], config_hash_value: Optional[str] = None
) -> Optional[Dict]:
    """Most recent entry, optionally restricted to one configuration."""
    for entry in reversed(entries):
        if config_hash_value in (None, entry.get("config_hash")):
            return entry
    return None


def gate(
    path: PathLike, entry: Dict, max_regression: float = DEFAULT_MAX_REGRESSION
) -> str:
    """Compare a fresh ``entry`` against its committed baseline.

    The baseline is the last entry in ``path`` with the same
    ``config_hash`` (measuring a different workload says nothing about
    this one).  Raises :class:`RegressionError` when there is no such
    entry, when both carry ``signatures_full`` and they differ, or when
    throughput is more than ``max_regression`` below the baseline's.
    Returns the one-line verdict otherwise.
    """
    digest = entry["config_hash"]
    baseline = latest_entry(load_trajectory(path), digest)
    if baseline is None:
        raise RegressionError(f"no entry in {path} has config {digest}")
    label = repr(baseline.get("label"))
    ours, theirs = entry.get("signatures_full"), baseline.get("signatures_full")
    equal = ""
    if ours and theirs:
        moved = [k for k in sorted(set(ours) | set(theirs))
                 if ours.get(k) != theirs.get(k)]
        if moved:
            raise RegressionError(
                f"signatures moved vs {label}: {', '.join(moved)}"
            )
        equal = f"{len(ours)} signature(s) equal "
    current = float(entry["throughput_sim_ns_per_s"])
    base = float(baseline["throughput_sim_ns_per_s"])
    floor = base * (1.0 - max_regression)
    verdict = (
        f"{current / 1e9:.2f} G sim-ns/s vs baseline {base / 1e9:.2f} G "
        f"(floor {floor / 1e9:.2f} G = -{100 * max_regression:.0f}%); "
        f"{equal}({label})"
    )
    if current < floor:
        raise RegressionError(f"throughput below the floor: {verdict}")
    return f"regression gate: {verdict} -- ok"


def add_gate_args(
    parser: argparse.ArgumentParser, trajectory: str, label: str
) -> None:
    """Add ``--label/--check/--append/--max-regression`` to ``parser``.

    ``--check`` and ``--append`` take an optional path; given bare they
    use the committed ``trajectory`` file at the repository root.
    """
    default = str(REPO_ROOT / trajectory)
    parser.add_argument(
        "--label", default=label, help="label recorded on appended entries"
    )
    parser.add_argument(
        "--check", metavar="PATH", nargs="?", const=default, default=None,
        help=f"gate the measurement against PATH (default {trajectory})",
    )
    parser.add_argument(
        "--append", metavar="PATH", nargs="?", const=default, default=None,
        help=f"append the measurement to PATH (default {trajectory})",
    )
    parser.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional throughput drop below the baseline "
             f"(default {DEFAULT_MAX_REGRESSION})",
    )


def check_and_append(
    args: argparse.Namespace,
    entry: Dict,
    entries: Optional[Sequence[Dict]] = None,
) -> bool:
    """Run ``--check`` on ``entry``, then ``--append`` ``entries``.

    ``entries`` defaults to ``[entry]``.  Nothing is appended when the
    gate fails, so a regressed run never becomes the next baseline.
    Returns False exactly when the gate failed.
    """
    if args.check is not None:
        try:
            print(gate(args.check, entry, args.max_regression))
        except RegressionError as err:
            print(f"FAIL: {err}")
            return False
    if args.append is not None:
        for item in entries if entries is not None else [entry]:
            append_entry(args.append, item)
        print(f"appended {args.label!r} to {args.append}")
    return True
