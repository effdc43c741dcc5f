import math

import numpy as np
import pytest
from scipy.integrate import quad

from growthfpt import (DomainError, GrowthParams, OrderError, OUProcess,
                       domain_end, gm_spec_G, infinitesimal_coeffs, r_ratio,
                       transition_law, transition_law_G, x_eval)
from growthfpt.gm_core import on_grid
from growthfpt.growth_curve import _g, h_eval
from growthfpt.process_ou import int_g2

from conftest import BASE
from test_quadrature import g2_antiderivative_p15

PARAMS = GrowthParams(p=1.5, **BASE)
PROC = OUProcess(PARAMS, 0.1)


class TestTransitionLaw:
    def test_identity_case(self):
        law = transition_law_G(PROC, 1.7, 2.0, 2.0)
        assert law.mean == 1.7
        assert law.variance == 0.0

    def test_wiener_reduction_for_nearly_flat_curve(self):
        # gamma -> 0 freezes the curve, so the variance collapses to
        # sigma^2 (t - tau)
        flat = OUProcess(GrowthParams(gamma=1e-7, n=1.0, p=1.5, k=20.0,
                                      x0=10.0, t0=0.0), 0.3)
        law = transition_law_G(flat, 10.0, 0.5, 2.5)
        assert law.variance == pytest.approx(0.09 * 2.0, rel=1e-5)
        assert law.mean == pytest.approx(10.0, rel=1e-5)

    def test_reference_values_at_t_one(self):
        law = transition_law_G(PROC, 1.0, 0.0, 1.0)
        assert law.mean == pytest.approx(x_eval(PARAMS, 1.0), rel=1e-12)
        i01 = g2_antiderivative_p15(1.0) - g2_antiderivative_p15(0.0)
        expected = 0.01 * i01 / _g(PARAMS, 1.0) ** 2
        assert law.variance == pytest.approx(expected, rel=1e-9)
        assert law.variance == pytest.approx(4.1041e-2, rel=1e-4)

    def test_median_is_the_mean(self):
        law = transition_law_G(PROC, 1.0, 0.0, 2.0)
        assert law.cdf(law.mean) == pytest.approx(0.5, abs=1e-14)

    def test_order_error(self):
        with pytest.raises(OrderError):
            transition_law_G(PROC, 1.0, 2.0, 1.0)

    def test_variance_composes_along_the_flow(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tau = rng.uniform(0.0, 3.0)
            s = tau + rng.uniform(0.05, 3.0)
            t = s + rng.uniform(0.05, 3.0)
            v_ts = transition_law_G(PROC, 1.0, tau, t).variance
            v_ss = transition_law_G(PROC, 1.0, tau, s).variance
            v_st = transition_law_G(PROC, 1.0, s, t).variance
            ratio = _g(PARAMS, s) / _g(PARAMS, t)
            assert v_ts == pytest.approx(ratio ** 2 * v_ss + v_st, rel=1e-9)

    def test_mean_linear_in_state(self):
        m1 = transition_law_G(PROC, 1.0, 0.0, 2.0).mean
        m3 = transition_law_G(PROC, 3.0, 0.0, 2.0).mean
        assert m3 == pytest.approx(3.0 * m1, rel=1e-13)


class TestGMTriple:
    def test_anchoring(self):
        spec = gm_spec_G(PROC)
        assert spec.k2(0.0) == pytest.approx(1.0 / _g(PARAMS, 0.0), rel=1e-13)
        r0, _ = r_ratio(spec, 0.0)
        assert r0 == 0.0
        r2, _ = r_ratio(spec, 2.0)
        expected = 0.01 * (g2_antiderivative_p15(2.0) - g2_antiderivative_p15(0.0))
        assert r2 == pytest.approx(expected, rel=1e-9)

    def test_infinitesimal_coefficients(self):
        spec = gm_spec_G(PROC)
        for t in (0.2, 1.0, 6.0):
            b1, b2 = infinitesimal_coeffs(spec, 2.5, t)
            assert b1 == pytest.approx(h_eval(PARAMS, t) * 2.5, rel=1e-9)
            assert b2 == pytest.approx(0.01, rel=1e-9)

    def test_triple_reproduces_transition_variance(self):
        rng = np.random.default_rng(9)
        spec = gm_spec_G(PROC)
        for _ in range(20):
            tau = rng.uniform(0.0, 4.0)
            t = tau + rng.uniform(0.01, 4.0)
            via_spec = transition_law(spec, 1.0, tau, t)
            direct = transition_law_G(PROC, 1.0, tau, t)
            assert via_spec.variance == pytest.approx(direct.variance, rel=1e-10)
            assert via_spec.mean == pytest.approx(direct.mean, rel=1e-12)


class TestSampling:
    def test_vanishing_noise(self):
        proc = OUProcess(PARAMS, 1e-12)
        rng = np.random.default_rng(0)
        val = transition_law_G(proc, 1.0, 0.0, 1.0).sample(rng)
        assert val == pytest.approx(x_eval(PARAMS, 1.0), rel=1e-9)

    def test_moments_of_draws(self):
        rng = np.random.default_rng(21)
        n = 200_000
        law = transition_law_G(PROC, 1.0, 0.0, 1.0)
        draws = law.mean + math.sqrt(law.variance) * rng.standard_normal(n)
        se_mean = math.sqrt(law.variance / n)
        se_var = law.variance * math.sqrt(2.0 / (n - 1))
        assert abs(float(draws.mean()) - law.mean) <= 3.0 * se_mean
        assert abs(float(draws.var(ddof=1)) - law.variance) <= 3.0 * se_var

    def test_negative_states_are_legal_and_kept(self):
        # large noise around a small state: draws below zero must survive
        proc = OUProcess(PARAMS, 3.0)
        rng = np.random.default_rng(5)
        draws = transition_law_G(proc, 0.2, 0.0, 2.0).sample(rng, 500)
        assert draws.min() < 0.0


REGIME_CASES = [
    # (p, t0): sigmoid, Gompertz, even, odd and ceiling regimes, t0 = 0 and > 0
    (1.5, 0.0), (1.5, 2.0), (1.0, 0.0), (1.0, 1.0), (0.75, 0.0), (0.75, 0.5),
    (2.0 / 3.0, 0.0), (2.0 / 3.0, 1.0), (0.25, 0.0), (0.25, 1.0),
]


def _grid_for(params: GrowthParams, points: int = 61) -> np.ndarray:
    """30 time units from t0, or up to 0.999 of a finite domain end."""
    t_star = domain_end(params).t_star
    end = params.t0 + (30.0 if math.isinf(t_star) else 0.999 * (t_star - params.t0))
    return np.linspace(params.t0, end, points)


class TestIntG2:
    @pytest.mark.parametrize("p,t0", REGIME_CASES)
    def test_matches_quad(self, p, t0):
        # the reference is QUADPACK's adaptive rule (scipy's quad), which
        # shares no code with the package's Gauss-Legendre panels
        params = GrowthParams(p=p, **dict(BASE, t0=t0))
        grid = _grid_for(params)
        table = int_g2(params, grid)
        ref = np.cumsum([0.0] + [quad(lambda u: _g(params, u) ** 2, a, b,
                                      epsrel=1e-13, epsabs=0.0)[0]
                                 for a, b in zip(grid[:-1], grid[1:])])
        assert table[0] == 0.0
        assert np.max(np.abs(table[1:] - ref[1:]) / ref[1:]) <= 1e-12

    def test_closed_form_antiderivative(self):
        ts = np.array([0.0, 0.3, 1.0, 7.5, 40.0])
        exact = np.array([g2_antiderivative_p15(t) - g2_antiderivative_p15(0.0)
                          for t in ts])
        table = int_g2(PARAMS, ts)
        assert np.max(np.abs(table[1:] - exact[1:]) / exact[1:]) <= 1e-14

    def test_scalar_call_returns_float(self):
        val = int_g2(PARAMS, 2.0)
        assert isinstance(val, float)
        assert val == int_g2(PARAMS, np.array([2.0]))[0]

    def test_value_depends_only_on_the_time(self):
        ts = np.array([7.3, 0.2, 31.0, 7.3, 0.0])
        table = int_g2(PARAMS, ts)
        assert np.array_equal(table, [int_g2(PARAMS, float(t)) for t in ts])

    def test_rejects_times_outside_the_domain(self):
        with pytest.raises(OrderError):
            int_g2(GrowthParams(p=1.5, **dict(BASE, t0=1.0)), 0.5)
        ceiling = GrowthParams(p=0.25, **BASE)
        with pytest.raises(DomainError):
            int_g2(ceiling, domain_end(ceiling).t_star + 1e-6)


class TestArrayForms:
    @pytest.mark.parametrize("p,t0", REGIME_CASES)
    def test_array_and_scalar_forms_agree(self, p, t0):
        params = GrowthParams(p=p, **dict(BASE, t0=t0))
        spec = gm_spec_G(OUProcess(params, 0.1))
        grid = _grid_for(params, points=25)[1:]
        for fn in (lambda t: _g(params, t), lambda t: h_eval(params, t),
                   lambda t: on_grid(spec.r, t) * on_grid(spec.k2, t), spec.k2):
            arr = fn(grid)
            one = np.array([fn(float(t)) for t in grid])
            assert isinstance(fn(float(grid[0])), float)
            assert np.max(np.abs(arr - one) / np.abs(one)) <= 1e-15
