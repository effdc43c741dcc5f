import math

import numpy as np
import pytest

from growthfpt import GridError, GrowthParams, integrate_adaptive
from growthfpt.growth_curve import _g
from growthfpt.quadrature import panel_integrals

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
    # both rules are exact up to degree 31, so the error estimate is rounding
    value, error = integrate_adaptive(lambda t: t ** 31, [0.0, 1.0])
    assert value == pytest.approx(1.0 / 32.0, abs=1e-15)
    assert error <= 1e-15


def test_growth_square_integral_matches_antiderivative():
    params = GrowthParams(p=1.5, **BASE)
    val, error = integrate_adaptive(lambda u: _g(params, u) ** 2,
                                    np.linspace(0.0, 1.0, 5))
    expected = g2_antiderivative_p15(1.0) - g2_antiderivative_p15(0.0)
    assert val == pytest.approx(expected, rel=1e-11)
    assert val == pytest.approx(0.3255102294700093, rel=1e-10)
    assert error <= 1e-11


def test_interval_additivity():
    rng = np.random.default_rng(3)
    f = lambda t: np.exp(-t) * np.sin(3.0 * t) + 0.2 * t
    for _ in range(20):
        a, b, c = sorted(rng.uniform(0.0, 5.0, size=3))
        whole = integrate_adaptive(f, [a, c])[0]
        split = integrate_adaptive(f, [a, b])[0] + integrate_adaptive(f, [b, c])[0]
        assert split == pytest.approx(whole, rel=2e-10, abs=1e-13)


def test_empty_interval_and_order():
    assert integrate_adaptive(np.sin, [2.0, 2.0]) == (0.0, 0.0)
    for edges in ([2.0, 1.0], [0.0, 2.0, 1.0], [1.0], [[0.0, 1.0]]):
        with pytest.raises(GridError):
            integrate_adaptive(np.sin, edges)


def test_error_estimate_covers_the_error():
    # a kink inside one panel: the 16-point sum is far worse than the
    # 32-point one, so their distance bounds the 32-point value's error
    f = lambda t: np.sqrt(np.abs(t - 0.3717))
    exact = (2.0 / 3.0) * (0.3717 ** 1.5 + 0.6283 ** 1.5)
    errors = []
    for n in (2, 8, 32):
        value, error = integrate_adaptive(f, np.linspace(0.0, 1.0, n))
        assert abs(value - exact) <= error
        errors.append(error)
    assert errors[0] > errors[1] > errors[2]


def test_integrand_never_sees_the_ends():
    def f(t):
        assert np.all(t > 0.0) and np.all(t < 1.0)
        return np.log(t) ** 2
    value, _ = integrate_adaptive(f, np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 60))))
    assert value == pytest.approx(2.0, rel=1e-9)


def test_panel_integrals_one_call_per_block():
    calls = []

    def f(t):
        calls.append(t.shape)
        return np.cos(t)

    edges = np.linspace(0.0, 25.0, 2501)
    panels = panel_integrals(f, edges[:-1], edges[1:])
    assert calls == [(1024, 16), (1024, 16), (452, 16)]
    exact = np.sin(edges[1:]) - np.sin(edges[:-1])
    assert np.max(np.abs(panels - exact)) <= 1e-15
