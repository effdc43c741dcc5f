import math

import numpy as np
import pytest
from scipy.integrate import quad

from growthfpt import (ExpBoundary, GrowthParams, InvalidParams, LognormalProcess,
                       NonPositiveState, OUProcess, fpt_pdf_closed, infinitesimal_coeffs,
                       transition_law, transition_law_L, wiener_spec, x_eval)

from conftest import BASE

PARAMS = GrowthParams(p=1.5, **BASE)
PROC = LognormalProcess(PARAMS, 0.02)


@pytest.mark.parametrize("process", [LognormalProcess, OUProcess, wiener_spec])
@pytest.mark.parametrize("sigma", [0.0, math.inf, math.nan, -1.0, 1e-200, 1e160])
def test_noise_must_be_finite_and_positive(process, sigma):
    # an infinite sigma was accepted, and its densities were nan; a Wiener
    # spec took any sigma, and solved a negative one as its square; a sigma
    # whose square is 0 or inf gave a raw ZeroDivisionError or nan densities
    args = (sigma,) if process is wiener_spec else (PARAMS, sigma)
    with pytest.raises(InvalidParams, match=r"sigma must be finite and > 0, and "
                                            r"sigma\*\*2 a positive normal float"):
        process(*args)


class TestTransitionLaw:
    def test_identity_case(self):
        law = transition_law_L(PROC, 2.0, 1.0, 1.0)
        assert law.mean == pytest.approx(2.0, rel=1e-14)
        assert law.R == 0.0
        assert law.variance == 0.0

    def test_conditional_mean_tracks_the_curve(self):
        for t in (0.5, 1.0, 4.0, 15.0):
            law = transition_law_L(PROC, PARAMS.x0, 0.0, t)
            assert law.mean == pytest.approx(x_eval(PARAMS, t), rel=1e-12)

    def test_reference_moments_at_t_one(self):
        law = transition_law_L(PROC, 1.0, 0.0, 1.0)
        mean = x_eval(PARAMS, 1.0)
        assert mean == pytest.approx(3.7377146529512184, rel=1e-12)
        assert law.mean == pytest.approx(mean, rel=1e-12)
        assert law.variance == pytest.approx(mean * mean * math.expm1(4e-4),
                                             rel=1e-12)
        assert law.variance == pytest.approx(5.589e-3, rel=1e-3)

    def test_nonpositive_state_rejected(self):
        with pytest.raises(NonPositiveState):
            transition_law_L(PROC, 0.0, 0.0, 1.0)

    def test_cdf_is_proper(self):
        law = transition_law_L(PROC, 1.0, 0.0, 2.0)
        assert law.cdf(1e-12) < 1e-10
        assert law.cdf(1e9) == pytest.approx(1.0, abs=1e-10)
        # strictly increasing across the representable bulk of the law
        xs = law.coord.to_state(math.sqrt(law.R) * np.linspace(-6.0, 6.0, 50), law.t)
        cs = [law.cdf(float(x)) for x in xs]
        assert all(b > a for a, b in zip(cs, cs[1:]))

    def test_tower_property(self):
        # E[E[X(t) | X(s)] | y, tau] = E[X(t) | y, tau] by quadrature over X(s)
        y, tau, s, t = 1.0, 0.0, 0.7, 1.6
        mid = transition_law_L(PROC, y, tau, s)

        def integrand(x):
            return transition_law_L(PROC, x, s, t).mean * mid.pdf(x)

        lo, hi = mid.coord.to_state(10.0 * math.sqrt(mid.R) * np.array([-1.0, 1.0]), s)
        val, _ = quad(integrand, lo, hi, limit=200)
        assert val == pytest.approx(transition_law_L(PROC, y, tau, t).mean,
                                    rel=1e-8)


class TestWienerRepresentation:
    COORD = PROC.coord(PARAMS.x0, PARAMS.t0)

    def test_origin_maps_to_zero(self):
        assert self.COORD.to_coord(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(0.05, 30.0)
            t = rng.uniform(0.0, 20.0)
            assert self.COORD.to_state(self.COORD.to_coord(x, t), t) == pytest.approx(
                x, rel=1e-12)

    def test_spec_coefficients(self):
        b1, b2 = infinitesimal_coeffs(self.COORD.spec, 0.3, 2.0)
        assert b1 == 0.0
        assert b2 == pytest.approx(PROC.sigma ** 2, rel=1e-14)

    def test_nonpositive_state_rejected(self):
        with pytest.raises(NonPositiveState):
            self.COORD.to_coord(-1.0, 0.5)

    def test_density_change_of_variables(self):
        # pdf of X equals the Wiener pdf of the transformed state over x
        spec, transform = self.COORD.spec, self.COORD.to_coord
        y, tau, t = 1.0, 0.0, 2.0
        law_x = transition_law_L(PROC, y, tau, t)
        z_tau = transform(y, tau)
        law_z = transition_law(spec, z_tau, tau, t)
        for x in (2.0, 3.5, 5.0, 8.0):
            lhs = law_x.pdf(x)
            rhs = law_z.pdf(transform(x, t)) / x
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("B", [1.0, -1.0])
    def test_exp_boundary_line_at_a_late_start(self, B):
        # at t0 = 800, e^{B t0} overflows or underflows to 0, and the line's
        # intercept ln(A e^{B t0}/x0) raised OverflowError or ValueError; as
        # ln(A/x0) + B t0 it is finite, and the density is the inverse
        # Gaussian passage density of the line c + d R, R = sigma^2 (t - t0)
        params = GrowthParams(p=1.5, **dict(BASE, t0=800.0))
        proc, bnd = LognormalProcess(params, 40.0), ExpBoundary(A=0.8, B=B)
        c, d = proc.coord(params.x0, params.t0).line(bnd)
        assert c == math.log(0.8) + 800.0 * B and d == (B + 800.0) / 1600.0
        t = 800.0 + np.array([0.5, 0.9, 1.0, 1.1, 1.5, 3.0])
        R = 1600.0 * (t - 800.0)
        ref = 1600.0 * abs(c) / np.sqrt(2.0 * np.pi * R ** 3) * np.exp(
            -(c + d * R) ** 2 / (2.0 * R))
        np.testing.assert_allclose(fpt_pdf_closed(proc, bnd, params.x0, params.t0, t), ref,
                                   rtol=1e-12, atol=0.0)


class TestSampling:
    def test_vanishing_noise_is_deterministic(self):
        proc = LognormalProcess(PARAMS, 1e-12)
        rng = np.random.default_rng(0)
        val = transition_law_L(proc, 1.0, 0.0, 1.0).sample(rng)
        assert val == pytest.approx(x_eval(PARAMS, 1.0), rel=1e-9)

    def test_moments_of_draws(self):
        rng = np.random.default_rng(123)
        n = 200_000
        law = transition_law_L(PROC, 1.0, 0.0, 1.0)
        draws = law.sample(rng, n)
        se = math.sqrt(law.variance / n)
        assert abs(float(np.mean(draws)) - law.mean) <= 3.0 * se
        # log-draws are exactly normal: skewness within MC error of zero
        logs = np.log(draws)
        sk = float(np.mean((logs - logs.mean()) ** 3) / logs.std() ** 3)
        assert abs(sk) <= 3.0 * math.sqrt(6.0 / n)

    def test_sampler_agrees_with_law(self):
        rng = np.random.default_rng(7)
        law = transition_law_L(PROC, 1.0, 0.0, 1.0)
        draws = law.sample(rng, 20_000)
        se = math.sqrt(law.variance / draws.size)
        assert abs(float(draws.mean()) - law.mean) <= 3.0 * se
