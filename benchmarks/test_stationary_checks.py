"""Per-layer timings of the stationary solve's two plant checks, with pytest-benchmark.

Times ``check_detectability`` on the n = 32 long-horizon plants (Ts 20 ms
and 1 ms), whose modes all lie inside the unit circle, as every
``solve_gare`` call of the long-horizon runs asks it, and
``_grows_without_bound`` on ``kalman_decomposed_plant`` seed 448, an
n = 4 plant with an unreached mode at -1.089.  The plants are the test
suite's (``tests/conftest.py``).  Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from lqdr import check_detectability
from lqdr.riccati import _grows_without_bound

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import kalman_decomposed_plant, long_horizon_cases  # noqa: E402

N32 = {name: (model, cost) for name, model, cost, _, _ in long_horizon_cases()
       if name.startswith("n32_")}


@pytest.mark.parametrize("name", sorted(N32))
def test_check_detectability(benchmark, name):
    model, cost = N32[name]
    assert isinstance(benchmark(check_detectability, model.A, cost.Q), bool)


def test_grows_without_bound(benchmark):
    model, cost, _, _ = kalman_decomposed_plant(np.random.default_rng(448))
    Rbar = model.B.T @ cost.R @ model.B
    assert isinstance(benchmark(_grows_without_bound, model.A, model.B, cost.Q, Rbar), bool)
