import math

import numpy as np
import pytest

from growthfpt import (CurveRegime, DomainError, GrowthParams, InvalidParams,
                       classify_regime, domain_end, g_eval, h_eval, h_integral,
                       reparametrize, x_eval)
from growthfpt.growth_curve import _g_pow_n, signed_pow
from growthfpt.validate import check_curve_equivalence, direct_solution

from conftest import BASE

T_PROBE = 4.0 / math.sqrt(19.0)  # bracket base exactly 2 for p = 1.5


def P(p: float, **over) -> GrowthParams:
    kw = dict(BASE)
    kw.update(over)
    return GrowthParams(p=p, **kw)


class TestReparametrize:
    def test_t0_zero_collapses_to_inverse_a_n(self):
        co = reparametrize(P(1.5))
        assert co.alpha == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert co.eta == pytest.approx(1.0 / 19.0, rel=1e-14)

    def test_eta_independent_of_p_when_t0_zero(self):
        etas = {reparametrize(P(p)).eta for p in (1.5, 0.75, 0.25, 2.0 / 3.0)}
        assert all(e == pytest.approx(1.0 / 19.0, rel=1e-12) for e in etas)

    def test_t0_one_even_power_of_negative_bracket(self):
        # bracket 19^{-1/2} - 0.25 < 0, exponent 1/(p-1) = 2 even
        co = reparametrize(P(1.5, t0=1.0))
        expected = (19.0 ** -0.5 - 0.25) ** 2
        assert co.eta == pytest.approx(expected, rel=1e-13)
        assert co.eta == pytest.approx(4.23712012e-4, rel=1e-8)
        # and the curve still matches the native parametrization
        params = P(1.5, t0=1.0)
        for t in (1.0, 2.0, 5.0, 20.0):
            assert x_eval(params, t) == pytest.approx(
                direct_solution(params, t), rel=1e-10)

    def test_negative_bracket_non_integer_exponent_raises(self):
        # p = 1.45 with n = 1: 1/(p-1) = 2.22..., bracket goes negative for big t0
        with pytest.raises(DomainError):
            reparametrize(P(1.45, t0=20.0))

    @pytest.mark.parametrize("bad", [
        dict(gamma=-0.5), dict(n=0.0), dict(k=-1.0), dict(t0=-0.1),
        # numbers the curve cannot use, which the reader passed on
        dict(k=math.inf), dict(gamma=math.inf), dict(t0=math.inf),
    ])
    def test_invalid_params(self, bad):
        kw = dict(BASE)
        kw.update(bad)
        with pytest.raises(InvalidParams):
            GrowthParams(p=1.5, **kw)

    def test_p_constraint(self):
        with pytest.raises(InvalidParams):
            P(2.5)  # >= 1 + 1/n for n = 1
        with pytest.raises(InvalidParams):
            P(0.0)

    def test_x0_constraint(self):
        with pytest.raises(InvalidParams):
            GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=25.0, t0=0.0)


class TestGEval:
    def test_at_origin(self):
        params = P(1.5)
        assert g_eval(params, 0.0) == pytest.approx(
            20.0 / 19.0, rel=1e-14)

    def test_bracket_base_two(self):
        # at t = 4/sqrt(19) the bracket is exactly 2, exponent -2
        params = P(1.5)
        g = g_eval(params, T_PROBE)
        assert g == pytest.approx(1.0 / 19.0 + 0.25, rel=1e-13)

    def test_long_time_limit(self):
        params = P(1.5)
        g = g_eval(params, 1e6)
        assert g == pytest.approx(1.0 / 19.0, rel=1e-9)

    def test_domain_error_beyond_t_star(self):
        params = P(0.25)
        t_star = domain_end(params).t_star
        with pytest.raises(DomainError):
            g_eval(params, t_star + 1e-6)

    def test_before_t0_rejected(self):
        params = P(1.5, t0=1.0)
        with pytest.raises(DomainError):
            g_eval(params, 0.5)


class TestXEval:
    def test_initial_value(self):
        for p in (1.5, 0.75, 0.25):
            params = P(p)
            assert x_eval(params, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_probe_value(self):
        assert x_eval(P(1.5), T_PROBE) == pytest.approx(80.0 / 23.0, rel=1e-12)

    def test_carrying_capacity_limit(self):
        assert x_eval(P(1.5), 1e6) == pytest.approx(20.0, rel=1e-9)

    def test_value_at_finite_ceiling(self):
        params = P(0.25)
        t_star = domain_end(params).t_star
        assert x_eval(params, t_star) == 20.0
        assert x_eval(params, t_star - 1e-4) == pytest.approx(20.0, abs=1e-3)
        with pytest.raises(DomainError):
            x_eval(params, t_star + 1e-9)


class TestH:
    def test_value_at_origin(self):
        # forced by the native ODE at t0:
        # gamma * k^{n(p-1)} * x0^{n(1-p)} * (1 - (x0/k)^n)^p / x0
        expected = 0.5 * math.sqrt(20.0) * 0.95 ** 1.5
        assert h_eval(P(1.5), 0.0) == pytest.approx(expected, rel=1e-13)

    def test_vanishes_at_plateau(self):
        assert h_eval(P(1.5), 1e5) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("p", [1.5, 1.0, 0.75, 2.0 / 3.0, 0.25])
    def test_finite_difference_oracle(self, p):
        params = P(p)
        hi = 12.0 if p != 0.25 else 20.0
        for t in np.linspace(0.1, hi, 7):
            d = 1e-6 * max(1.0, t)
            fd = -(math.log(g_eval(params, t + d))
                   - math.log(g_eval(params, t - d))) / (2.0 * d)
            assert h_eval(params, t) == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))


class TestHIntegral:
    def test_empty_interval(self):
        assert h_integral(P(1.5), 3.0, 3.0) == 0.0

    def test_probe_interval(self):
        # ln(g(0)/g(T_PROBE)) = ln((20/19) / (1/19 + 1/4))
        val = h_integral(P(1.5), 0.0, T_PROBE)
        assert val == pytest.approx(math.log((20.0 / 19.0) / (1.0 / 19.0 + 0.25)),
                                    rel=1e-13)
        assert val == pytest.approx(1.2465324187447315, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 0.75, 0.25])
    def test_exponential_restates_curve_ratio(self, p):
        params = P(p)
        for t in (0.5, 4.0, 11.0):
            assert math.exp(h_integral(params, 0.0, t)) == pytest.approx(
                x_eval(params, t) / params.x0, rel=1e-12)

    def test_out_of_order_raises(self):
        with pytest.raises(DomainError):
            h_integral(P(1.5), 2.0, 1.0)


class TestRegimes:
    def test_classification(self):
        assert classify_regime(P(1.5)) is CurveRegime.SIGMOID_SATURATING
        assert classify_regime(P(1.0)) is CurveRegime.SIGMOID_SATURATING
        assert classify_regime(P(0.75)) is CurveRegime.PLATEAU_THEN_DECAY
        assert classify_regime(P(2.0 / 3.0)) is CurveRegime.PLATEAU_THEN_GROWTH
        assert classify_regime(P(0.25)) is CurveRegime.FINITE_TIME_CEILING

    def test_domain_ends(self):
        assert domain_end(P(1.5)).t_star == math.inf
        assert domain_end(P(0.75)).t_star == math.inf  # even power continues
        t_star = domain_end(P(0.25)).t_star
        assert t_star == pytest.approx((8.0 / 3.0) * 19.0 ** 0.75, rel=1e-13)
        # at t_star the auxiliary function has decayed to eta, so x = k
        params = P(0.25)
        assert g_eval(params, t_star) == pytest.approx(1.0 / 19.0, rel=1e-10)

    def test_odd_regime_ends_at_the_blow_up(self):
        # g^n = eta + B^q with q = 3 reaches 0 where B = -eta^{1/3}
        params = P(2.0 / 3.0)
        t_star = domain_end(params).t_star
        assert t_star == pytest.approx(22.0104, abs=1e-4)
        assert abs(_g_pow_n(params, t_star)) <= 1e-12
        assert _g_pow_n(params, 0.999 * t_star) > 0.0
        with pytest.raises(DomainError):
            x_eval(params, t_star)

    def test_sigmoid_monotone_bounded(self):
        params = P(1.5)
        xs = [x_eval(params, t) for t in np.linspace(0.0, 60.0, 400)]
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
        assert max(xs) <= 20.0 * (1.0 + 1e-9)

    def test_plateau_then_decay_shape(self):
        params = P(0.75)
        ts = np.linspace(0.0, 40.0, 2001)
        xs = np.array([x_eval(params, t) for t in ts])
        ipk = int(np.argmax(xs))
        assert xs[ipk] > 0.99 * 20.0
        tail = xs[ipk:]
        assert np.all(np.diff(tail) <= 1e-10)
        assert x_eval(params, 200.0) < 0.05

    def test_finite_ceiling_approach(self):
        params = P(0.25)
        t_star = domain_end(params).t_star
        xs = [x_eval(params, t_star * (1.0 - e)) for e in (1e-2, 1e-4, 1e-6)]
        assert xs == sorted(xs)
        assert xs[-1] == pytest.approx(20.0, abs=1e-4)


class TestEquivalenceProperties:
    def test_reparametrization_matches_native_solution(self):
        assert check_curve_equivalence(200, 20, 11).passed

    @pytest.mark.parametrize("p,hi", [(1.5, 10.0), (0.75, 14.0),
                                      (2.0 / 3.0, 14.0), (0.25, 20.0)])
    def test_ode_consistency(self, p, hi):
        # centered differences of the curve against the native rate function
        params = P(p)
        for t in np.linspace(0.2, hi, 9):
            d = 1e-5 * max(1.0, t)
            dx = (x_eval(params, t + d) - x_eval(params, t - d)) / (2.0 * d)
            x = x_eval(params, t)
            rhs = (params.gamma * params.k ** (params.n * (p - 1.0))
                   * x ** (1.0 + params.n * (1.0 - p))
                   * (1.0 - (x / params.k) ** params.n) ** p)
            assert dx == pytest.approx(rhs, rel=1e-5)

    @pytest.mark.parametrize("t0", [0.0, 1.0, 3.0])
    def test_limit_branch_matches_nearby_p_for_any_t0(self, t0):
        # the p = 1 branch's eta is the p -> 1 limit exp(-gamma*n*t0)/A_n
        base = P(1.0, t0=t0)
        for eps in (1e-7, -1e-7):
            near = P(1.0 + eps, t0=t0)
            for t in t0 + np.array([0.0, 0.5, 5.0, 12.0]):
                a, b = x_eval(near, t), x_eval(base, t)
                assert abs(a - b) / b <= 1e-6

    def test_limit_branch_continuity(self):
        base = P(1.0)
        for eps in (1e-7, -1e-7):
            near = P(1.0 + eps)
            for t in (0.5, 3.0, 12.0):
                a = g_eval(near, t)
                b = g_eval(base, t)
                assert abs(a - b) / b <= 1e-6


class TestSignedPow:
    def test_even_odd_integers(self):
        assert signed_pow(-2.0, 2.0) == 4.0
        assert signed_pow(-2.0, 3.0) == -8.0
        assert signed_pow(-8.0, -1.0) == pytest.approx(-0.125)

    def test_non_integer_raises(self):
        with pytest.raises(DomainError):
            signed_pow(-2.0, 1.5)
        with pytest.raises(DomainError):
            signed_pow(np.array([1.0, -2.0]), 1.5)

    def test_arrays_elementwise(self):
        base = np.array([-2.0, -0.5, 0.25, 3.0])
        for q in (2.0, 3.0, -1.0):
            got = signed_pow(base, q)
            assert got.shape == base.shape
            assert np.array_equal(got, [signed_pow(float(b), q) for b in base])


def _time_entry_points():
    """(name, call(t, start)) of every entry point that takes a time; the
    start is the time the span is measured from, the curve's t0 where the
    entry point takes none."""
    from growthfpt import (ExpBoundary, LognormalProcess, OUProcess,
                           fet_pdf_closed, fpt_pdf_closed, psi_kernel,
                           transition_law, transition_law_G, transition_law_L,
                           volterra_fet, volterra_fpt, wiener_spec)
    from growthfpt.process_ou import int_g2
    params = P(1.5)
    lognormal, ou = LognormalProcess(params, 0.1), OUProcess(params, 0.1)
    band = ExpBoundary(A=0.8), ExpBoundary(A=1.2)

    def grid(t, start):  # a solver grid from the start whose last time is t
        return np.append(np.linspace(start, start + 1.5, 4), t)

    return {
        "x_eval": lambda t, s: x_eval(params, t),
        "g_eval": lambda t, s: g_eval(params, t),
        "h_eval": lambda t, s: h_eval(params, t),
        "h_integral": lambda t, s: h_integral(params, s, t),
        "int_g2": lambda t, s: int_g2(params, t),
        "ou_clock": lambda t, s: ou.coord(1.0, s).clock(t),
        "transition_law_L": lambda t, s: transition_law_L(lognormal, 1.0, s, t),
        "transition_law_G": lambda t, s: transition_law_G(ou, 1.0, s, t),
        "transition_law": lambda t, s: transition_law(wiener_spec(1.0), 0.0, s, t),
        "psi_kernel": lambda t, s: psi_kernel(lognormal, band[0], t, 1.0, s),
        "fpt_pdf_closed": lambda t, s: fpt_pdf_closed(lognormal, band[0], 1.0, s, t),
        "fet_pdf_closed": lambda t, s: fet_pdf_closed(lognormal, *band, 1.0, s, t),
        "volterra_fpt": lambda t, s: volterra_fpt(lognormal, band[0], 1.0, s,
                                                  grid(t, s)),
        "volterra_fet": lambda t, s: volterra_fet(lognormal, *band, 1.0, s,
                                                  grid(t, s)),
    }


TIME_ENTRY_POINTS = _time_entry_points()
# a start only where the entry point takes one
TAKES_A_START = set(TIME_ENTRY_POINTS) - {"x_eval", "g_eval", "h_eval", "int_g2"}
# an array of times where it takes one; a solver's times are its grid
ARRAY_TIMES = set(TIME_ENTRY_POINTS) - {"h_integral", "psi_kernel", "volterra_fpt",
                                        "volterra_fet"}


NON_FINITE = {"t_nan": (math.nan, 0.0), "t_inf": (math.inf, 0.0),
              "t_minus_inf": (-math.inf, 0.0), "start_nan": (2.0, math.nan)}


@pytest.mark.parametrize("name,case", [
    (name, case) for case in NON_FINITE for name in TIME_ENTRY_POINTS
    if case != "start_nan" or name in TAKES_A_START])
def test_every_time_must_be_finite(name, case):
    # NaN compared false with every bound: values came back nan or 0.0, and
    # the additive clock failed with an IndexError
    t, start = NON_FINITE[case]
    call = TIME_ENTRY_POINTS[name]
    call(2.0, 0.0)  # the same call with finite times is in order
    with pytest.raises(DomainError, match="times must be finite"):
        call(t, start)
    if name in ARRAY_TIMES:
        with pytest.raises(DomainError, match="times must be finite"):
            call(np.array([1.0, t]), start)
