"""The arithmetic of ``benchmarks/pairs.py``'s spread lines."""

import importlib.util
from pathlib import Path

import pytest

_PAIRS = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", _PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spread_on_fixed_rounds():
    spread = _pairs().spread
    assert spread([5.0, 1.0, 4.0, 2.0, 3.0]) == (3.0, 1.5, 4.5, 1.0)
    median, q1, q3, distance = spread([0.50, 0.52, 0.48, 0.51])
    assert (median, q1, q3) == pytest.approx((0.505, 0.485, 0.5175))
    assert distance == pytest.approx(0.0325 / 0.505)
