import math

import numpy as np
import pytest

from growthfpt import (GridError, GrowthParams, NoConvergence, QuadratureSpec,
                       integrate_adaptive)
from growthfpt.growth_curve import _g

from conftest import BASE


def g2_antiderivative_p15(t: float) -> float:
    """Closed-form antiderivative of g(t)^2 for the reference curve at p=1.5:
    g = 1/19 + (1 + beta t)^-2 with beta = sqrt(19)/4."""
    eta = 1.0 / 19.0
    beta = math.sqrt(19.0) / 4.0
    return (eta ** 2 * t
            - (2.0 * eta / beta) / (1.0 + beta * t)
            - (1.0 / (3.0 * beta)) / (1.0 + beta * t) ** 3)


def test_polynomial_exactness():
    assert integrate_adaptive(lambda t: t * t, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-15)


def test_growth_square_integral_matches_antiderivative():
    params = GrowthParams(p=1.5, **BASE)
    val = integrate_adaptive(lambda u: _g(params, u) ** 2, 0.0, 1.0)
    expected = g2_antiderivative_p15(1.0) - g2_antiderivative_p15(0.0)
    assert val == pytest.approx(expected, rel=1e-11)
    assert val == pytest.approx(0.3255102294700093, rel=1e-10)


def test_interval_additivity():
    rng = np.random.default_rng(3)
    f = lambda t: math.exp(-t) * math.sin(3.0 * t) + 0.2 * t
    for _ in range(20):
        a, b, c = sorted(rng.uniform(0.0, 5.0, size=3))
        whole = integrate_adaptive(f, a, c)
        split = integrate_adaptive(f, a, b) + integrate_adaptive(f, b, c)
        assert split == pytest.approx(whole, rel=2e-10, abs=1e-13)


def test_empty_interval_and_order():
    assert integrate_adaptive(math.sin, 2.0, 2.0) == 0.0
    with pytest.raises(GridError):
        integrate_adaptive(math.sin, 2.0, 1.0)


def test_no_convergence_when_depth_exhausted():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_depth=3)
    with pytest.raises(NoConvergence):
        integrate_adaptive(lambda t: math.sqrt(abs(t - 0.3717)), 0.0, 1.0, spec)


def test_tolerance_tightening_never_worse():
    f = lambda t: math.exp(t) * math.cos(4.0 * t)
    exact = (math.exp(1.0) * (math.cos(4.0) + 4.0 * math.sin(4.0)) - 1.0) / 17.0
    errs = []
    for rt in (1e-6, 1e-8, 1e-10, 1e-12):
        spec = QuadratureSpec(rel_tol=rt, abs_tol=1e-16)
        errs.append(abs(integrate_adaptive(f, 0.0, 1.0, spec) - exact))
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
