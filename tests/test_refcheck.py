"""The comparison of ``benchmarks/refcheck.py``, on fixed digests."""

import importlib.util
from pathlib import Path

_REFCHECK = Path(__file__).resolve().parent.parent / "benchmarks" / "refcheck.py"


def _refcheck():
    spec = importlib.util.spec_from_file_location("refcheck", _REFCHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mismatches_on_fixed_digests():
    mismatches = _refcheck().mismatches
    expected = {"edf": "aa", "rm": "bb", "csd-3": "cc"}
    assert mismatches(expected, dict(expected)) == []
    assert mismatches(expected, {"edf": "aa", "rm": "xx", "csd-3": "cc"}) == [
        "rm: xx != bb"
    ]
    # An operation missing on either side is a mismatch, listed in name order.
    assert mismatches(expected, {"edf": "aa", "rm": "bb", "heap": "dd"}) == [
        "csd-3: None != cc",
        "heap: dd != None",
    ]
    # Canaries compare whole values, such as a map of full signatures.
    assert mismatches({"full": {"edf": "aa"}}, {"full": {"edf": "ab"}}) == [
        "full: {'edf': 'ab'} != {'edf': 'aa'}"
    ]
