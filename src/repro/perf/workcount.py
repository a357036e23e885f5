"""Deterministic work counts: the Python and C calls one call makes.

Wall time on a small shared VM swings by more than most speed-ups it
is asked to show, so a comparison of two commits also wants a measure
that the host cannot move.  :func:`count_calls` counts every Python
function call and every call of a C function (builtins, C methods) made
while one call of ``fn`` runs, through ``sys.setprofile``: the count of
a deterministic run is the same at every run, on every host, under
every ``PYTHONHASHSEED``.  Counting slows the call down about 30-50x,
so count untimed runs only.

A count is blind to costs that hide inside one opcode (an Enum member
read, a dict resize), so it goes beside paired wall times
(``benchmarks/pairs.py``), not in place of them.

The module imports nothing from :mod:`repro`, so a script can load it
by file path and count two checkouts with the same counter.
"""

from __future__ import annotations

import gc
import sys
from typing import Callable, Tuple

__all__ = ["count_calls"]


def count_calls(fn: Callable, *args, **kwargs) -> Tuple[object, int]:
    """Run ``fn(*args, **kwargs)``; return its result and the number of
    Python and C calls made while it ran, the call of ``fn`` included.

    The garbage collector is paused meanwhile, so no finalizer that a
    collection happens to run is counted.  Refuses to nest inside
    another profiler (its hook would be lost).
    """
    if sys.getprofile() is not None:
        raise RuntimeError("count_calls needs sys.setprofile, which is in use")
    calls = 0

    def hook(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    # The hook also saw the call of sys.setprofile that removed it.
    return result, calls - 1
