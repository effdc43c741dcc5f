import math

import numpy as np
import pytest
from scipy.integrate import quad

from growthfpt import (AffineGMBoundary, BandCrossing, DanielsBoundary,
                       DomainError, ExpBoundary, GeneralBoundary, GrowthParams,
                       InvalidParams, LognormalProcess, OrderError, OUProcess,
                       SimConfig, StartOnBoundary, StartOutsideBand,
                       boundary_fns, estimate_fet, estimate_fpt, fet_pdf_closed,
                       fpt_pdf_closed, gm_spec_G, infinitesimal_coeffs,
                       psi_kernel, r_ratio, simulate_paths, transition_law,
                       transition_law_G, transition_law_L, volterra_fet,
                       volterra_fpt, wiener_spec)
from growthfpt.gm_core import on_grid
from growthfpt.growth_curve import _g, h_eval

from conftest import BASE
from test_quadrature import g2_antiderivative_p15

PARAMS = GrowthParams(p=1.5, **BASE)


class TestRRatio:
    def test_wiener(self):
        spec = wiener_spec(1.0)
        for t in (0.5, 1.0, 7.0):
            r, rd = r_ratio(spec, t)
            assert r == pytest.approx(t, rel=1e-14)
            assert rd == pytest.approx(1.0, rel=1e-14)

    def test_ou_clock_increment(self):
        spec = gm_spec_G(OUProcess(PARAMS, 0.1))
        r1, _ = r_ratio(spec, 1.0)
        r0, _ = r_ratio(spec, 0.0)
        expected = 0.01 * (g2_antiderivative_p15(1.0) - g2_antiderivative_p15(0.0))
        assert r1 - r0 == pytest.approx(expected, rel=1e-9)
        assert r1 - r0 == pytest.approx(3.2551e-3, rel=1e-4)

    def test_strictly_increasing_on_random_grids(self):
        rng = np.random.default_rng(8)
        specs = [wiener_spec(0.7), gm_spec_G(OUProcess(PARAMS, 0.1))]
        for spec in specs:
            for _ in range(50):
                ts = np.sort(rng.uniform(0.01, 15.0, size=8))
                rs = [r_ratio(spec, t)[0] for t in ts]
                assert all(b > a for a, b in zip(rs, rs[1:]))


class TestTransitionLaw:
    def test_wiener_values(self):
        law = transition_law(wiener_spec(1.0), 0.0, 0.0, 2.0)
        assert law.mean == 0.0
        assert law.variance == pytest.approx(2.0, rel=1e-14)

    def test_identity_case(self):
        law = transition_law(wiener_spec(1.0), 1.3, 2.0, 2.0)
        assert law.mean == 1.3
        assert law.variance == 0.0
        assert law.cdf(1.2) == 0.0
        assert law.cdf(1.4) == 1.0

    def test_order_error(self):
        with pytest.raises(OrderError):
            transition_law(wiener_spec(1.0), 0.0, 2.0, 1.0)

    def test_cdf_takes_arrays_like_pdf(self):
        # t = tau gives the zero-variance step next to proper laws
        law = transition_law(wiener_spec(1.0), 0.3, 0.5, np.array([0.5, 1.0, 2.0]))
        for x in (-0.4, 0.3, 0.8):
            values = law.cdf(x)
            assert values.shape == (3,)
            for i, t in enumerate((0.5, 1.0, 2.0)):
                scalar = transition_law(wiener_spec(1.0), 0.3, 0.5, t).cdf(x)
                assert type(scalar) is float
                assert values[i] == scalar
        xs = np.array([-0.4, 0.3, 0.8])
        assert np.array_equal(law.cdf(xs), [law.cdf(x)[i] for i, x in enumerate(xs)])

    def test_pdf_normalised(self):
        law = transition_law(gm_spec_G(OUProcess(PARAMS, 0.1)), 1.0, 0.5, 2.0)
        mass, _ = quad(law.pdf, law.mean - 12.0 * math.sqrt(law.variance),
                       law.mean + 12.0 * math.sqrt(law.variance))
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("spec_name", ["wiener", "ou"])
    def test_chapman_kolmogorov(self, spec_name):
        spec = (wiener_spec(0.8) if spec_name == "wiener"
                else gm_spec_G(OUProcess(PARAMS, 0.1)))
        y, tau, s, t = 0.7, 0.3, 1.1, 2.4
        inner = transition_law(spec, y, tau, s)
        target = transition_law(spec, y, tau, t)
        x = target.mean + 0.7 * math.sqrt(target.variance)

        def integrand(z):
            return transition_law(spec, z, s, t).pdf(x) * inner.pdf(z)

        lo = inner.mean - 12.0 * math.sqrt(inner.variance)
        hi = inner.mean + 12.0 * math.sqrt(inner.variance)
        val, _ = quad(integrand, lo, hi, limit=200)
        assert val == pytest.approx(target.pdf(x), abs=1e-6)

    def test_variance_identity_with_clock(self):
        rng = np.random.default_rng(5)
        spec = gm_spec_G(OUProcess(PARAMS, 0.1))
        for _ in range(25):
            tau = rng.uniform(0.0, 4.0)
            t = tau + rng.uniform(0.01, 4.0)
            law = transition_law(spec, 1.0, tau, t)
            r_t, _ = r_ratio(spec, t)
            r_tau, _ = r_ratio(spec, tau)
            alt = spec.k2(t) ** 2 * (r_t - r_tau)
            assert law.variance == pytest.approx(alt, rel=1e-12)


LAWS = {
    "spec": (transition_law, gm_spec_G(OUProcess(PARAMS, 0.1))),
    "lognormal": (transition_law_L, LognormalProcess(PARAMS, 0.05)),
    "ou": (transition_law_G, OUProcess(PARAMS, 0.1)),
}


class TestOneLaw:
    """The three constructors build one law: scalar and array times agree
    exactly, t = tau is a point mass, and states off the space carry none."""

    Y, TAU = 1.4, 0.5
    TS = np.array([0.5, 0.9, 2.0, 7.5])

    @pytest.mark.parametrize("kind", list(LAWS))
    def test_scalar_and_array_times_agree(self, kind):
        make, proc = LAWS[kind]
        law = make(proc, self.Y, self.TAU, self.TS)
        xs = np.array([0.3, 1.0, self.Y, 2.2, 3.9])
        for i, t in enumerate(self.TS):
            one = make(proc, self.Y, self.TAU, float(t))
            assert type(one.mean) is float and type(one.variance) is float
            assert law.mean[i] == one.mean and law.variance[i] == one.variance
            for x in xs:
                assert type(one.pdf(x)) is float and type(one.cdf(x)) is float
                assert law.pdf(x)[i] == one.pdf(x)
                assert law.cdf(x)[i] == one.cdf(x)
            assert np.array_equal(one.pdf(xs), [one.pdf(x) for x in xs])
            assert np.array_equal(one.cdf(xs), [one.cdf(x) for x in xs])

    @pytest.mark.parametrize("kind", list(LAWS))
    def test_start_time_is_a_point_mass(self, kind):
        make, proc = LAWS[kind]
        for law in (make(proc, self.Y, self.TAU, self.TAU),
                    make(proc, self.Y, self.TAU, self.TS)):
            at = (lambda v: v) if np.ndim(law.mean) == 0 else (lambda v: v[0])
            assert at(law.mean) == self.Y and at(law.variance) == 0.0
            assert at(law.pdf(self.Y)) == math.inf
            assert at(law.pdf(self.Y - 1e-9)) == 0.0 and at(law.pdf(self.Y + 1e-9)) == 0.0
            assert at(law.cdf(self.Y - 1e-9)) == 0.0
            assert at(law.cdf(self.Y)) == 1.0 and at(law.cdf(self.Y + 1e-9)) == 1.0
            assert at(law.sample(np.random.default_rng(0))) == self.Y

    def test_lognormal_has_no_mass_off_the_positive_states(self):
        make, proc = LAWS["lognormal"]
        off = np.array([-2.0, -0.0, 0.0])
        for t in (self.TAU, 2.0, self.TS):
            law = make(proc, self.Y, self.TAU, t)
            for x in off:
                assert np.all(law.pdf(x) == 0.0) and np.all(law.cdf(x) == 0.0)
        law = make(proc, self.Y, self.TAU, 2.0)
        assert np.array_equal(law.pdf(off), [0.0, 0.0, 0.0])
        cdf = law.cdf(np.append(off, law.mean))
        assert np.array_equal(cdf[:3], [0.0, 0.0, 0.0]) and cdf[3] > 0.0
        assert law.pdf(law.mean) > 0.0

    @pytest.mark.parametrize("kind", list(LAWS))
    def test_sample_per_time(self, kind):
        make, proc = LAWS[kind]
        law = make(proc, self.Y, self.TAU, self.TS)
        draws = law.sample(np.random.default_rng(3), (20_000, self.TS.size))
        assert draws.shape == (20_000, self.TS.size)
        assert np.all(draws[:, 0] == law.mean[0])
        se = np.sqrt(law.variance[1:] / draws.shape[0])
        assert np.all(np.abs(draws[:, 1:].mean(axis=0) - law.mean[1:]) <= 3.0 * se)

    def test_spec_coordinate_lines(self):
        spec = gm_spec_G(OUProcess(PARAMS, 0.1))
        coord = spec.coord(self.Y, self.TAU)
        b = DanielsBoundary(d1=0.3, d2=1.9)
        m, r, k2 = (on_grid(fn, self.TS) for fn in (spec.m, spec.r, spec.k2))
        c, d = coord.line(b)
        w = coord.to_coord(m + b.d1 * r * k2 + b.d2 * k2, self.TS)
        assert np.allclose(w, c + d * coord.clock(self.TS), rtol=0.0, atol=1e-13)
        assert coord.to_coord(self.Y, self.TAU) == 0.0


@pytest.mark.parametrize("kind", ["lognormal", "ou", "wiener", "spec"])
def test_dw_dt_is_the_coordinate_rate_at_a_fixed_state(kind):
    model = {"lognormal": LognormalProcess(PARAMS, 0.05), "ou": OUProcess(PARAMS, 0.1),
             "wiener": wiener_spec(0.7), "spec": gm_spec_G(OUProcess(PARAMS, 0.1))}[kind]
    coord = model.coord(1.4, 0.5)
    xs, ts, e = np.array([0.7, 1.4, 3.9]), np.array([0.9, 2.0, 7.5]), 1e-5
    central = (coord.to_coord(xs, ts + e) - coord.to_coord(xs, ts - e)) / (2.0 * e)
    assert np.allclose(coord.dw_dt(xs, ts), central, rtol=1e-8, atol=1e-10)
    assert coord.dw_dt(1.4, 2.0) == coord.dw_dt(xs, ts)[1]


class TestInfinitesimalCoeffs:
    def test_wiener(self):
        b1, b2 = infinitesimal_coeffs(wiener_spec(0.02), 0.4, 1.7)
        assert b1 == 0.0
        assert b2 == pytest.approx(4e-4, rel=1e-12)

    def test_ou_drift_is_fertility_times_state(self):
        proc = OUProcess(PARAMS, 0.1)
        spec = gm_spec_G(proc)
        for t in (0.3, 1.0, 4.0):
            for x in (-0.5, 1.0, 6.0):
                b1, b2 = infinitesimal_coeffs(spec, x, t)
                assert b1 == pytest.approx(h_eval(PARAMS, t) * x, rel=1e-9)
                assert b2 == pytest.approx(0.01, rel=1e-9)

    def test_drift_matches_transition_mean_slope(self):
        spec = gm_spec_G(OUProcess(PARAMS, 0.1))
        x, t = 2.0, 1.0
        d = 1e-6
        mean_fwd = transition_law(spec, x, t, t + d).mean
        b1, _ = infinitesimal_coeffs(spec, x, t)
        assert (mean_fwd - x) / d == pytest.approx(b1, rel=1e-4)


class TestPsiKernel:
    def test_vanishes_on_closed_form_boundaries(self):
        rng = np.random.default_rng(17)
        specs = [wiener_spec(1.0), gm_spec_G(OUProcess(PARAMS, 0.1))]
        for spec in specs:
            for _ in range(100):
                b = DanielsBoundary(d1=rng.uniform(-2, 2), d2=rng.uniform(-2, 2))
                bnd = boundary_fns(spec, b, 0.0, 0.0)
                tau = rng.uniform(0.05, 4.0)
                t = tau + rng.uniform(0.05, 4.0)
                val = psi_kernel(spec, bnd, t, bnd.s(tau), tau)
                assert abs(val) < 1e-10

    def test_wiener_constant_boundary_value(self):
        # reduction for k1 = t, k2 = 1, m = 0: -(S - y)/(2 (t - tau)) * pdf
        spec = wiener_spec(1.0)
        bnd = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        val = psi_kernel(spec, bnd, 1.0, 0.0, 0.0)
        phi1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert val == pytest.approx(-0.5 * phi1, rel=1e-13)
        assert val == pytest.approx(-0.12098536225957168, rel=1e-12)

    def test_minus_two_psi_is_the_closed_form_density(self):
        spec = gm_spec_G(OUProcess(PARAMS, 0.1))
        d = DanielsBoundary(d1=0.1, d2=1.4)
        x0 = 1.0
        bnd = boundary_fns(spec, d, x0, 0.0)
        for t in (0.5, 2.0, 8.0):
            closed = fpt_pdf_closed(spec, d, x0, 0.0, t)
            assert -2.0 * psi_kernel(spec, bnd, t, x0, 0.0) == pytest.approx(
                closed, rel=1e-10)

    def test_order_error(self):
        bnd = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        with pytest.raises(OrderError):
            psi_kernel(wiener_spec(1.0), bnd, 1.0, 0.0, 1.0)


class TestCovarianceFactorization:
    @pytest.mark.parametrize("kind", ["lognormal_transformed", "ou"])
    def test_monte_carlo_covariance(self, kind):
        # E[(X(s)-m(s))(X(t)-m(t))] = k1(s) k2(t) for s <= t, within 3 se
        n_paths = 40_000
        if kind == "ou":
            proc = OUProcess(PARAMS, 0.1)
            spec = gm_spec_G(proc)
            cfg = SimConfig(dt=0.5, horizon=2.0, n_paths=n_paths, seed=99)
            ts, paths = simulate_paths(proc, cfg)
            s_idx, t_idx = 2, 4  # times 1.0 and 2.0
            # centre by the conditional mean of the degenerate start; the
            # t0-anchored triple (r(t0) = 0) then gives cov = k1(s) k2(t)
            a = paths[:, s_idx] - PARAMS.x0 * _g(PARAMS, 0.0) / _g(PARAMS, ts[s_idx])
            b = paths[:, t_idx] - PARAMS.x0 * _g(PARAMS, 0.0) / _g(PARAMS, ts[t_idx])
            expected = spec.r(ts[s_idx]) * spec.k2(ts[s_idx]) * spec.k2(ts[t_idx])
        else:
            proc = LognormalProcess(PARAMS, 0.5)
            coord = proc.coord(PARAMS.x0, 0.0)
            cfg = SimConfig(dt=0.5, horizon=2.0, n_paths=n_paths, seed=100)
            ts, paths = simulate_paths(proc, cfg)
            s_idx, t_idx = 2, 4
            a = coord.to_coord(paths[:, s_idx], ts[s_idx])
            b = coord.to_coord(paths[:, t_idx], ts[t_idx])
            # started-at-a-point Wiener: cov = sigma^2 * s
            expected = 0.25 * ts[s_idx]
        prod = a * b
        est = float(np.mean(prod))
        se = float(np.std(prod, ddof=1) / math.sqrt(n_paths))
        assert abs(est - expected) <= 3.0 * se


LOGNORMAL = LognormalProcess(PARAMS, 0.02)
ADDITIVE = OUProcess(PARAMS, 0.1)
NAN = math.nan
G0 = _g(PARAMS, 0.0)
# each row: a process, its boundaries from the start (x0, t0) = (1, 0) of
# PARAMS, and the error of each method, closed, Volterra and Monte Carlo
RULE_CASES = {
    "start_on_boundary": (LOGNORMAL, [ExpBoundary(A=1.0)], [StartOnBoundary] * 3),
    "start_on_a_side": (LOGNORMAL, [ExpBoundary(A=1.0), ExpBoundary(A=1.2)],
                        [StartOutsideBand] * 3),
    "start_outside_band": (LOGNORMAL, [ExpBoundary(A=1.1), ExpBoundary(A=1.2)],
                           [StartOutsideBand] * 3),
    "swapped_sides": (LOGNORMAL, [ExpBoundary(A=1.2), ExpBoundary(A=0.8)],
                      [StartOutsideBand] * 3),
    # the lower side reaches the upper one at t = ln(1.5)/0.05 = 8.1; the
    # closed form takes no band of unequal slopes
    "crossing_sides": (LOGNORMAL, [ExpBoundary(A=0.8, B=0.05), ExpBoundary(A=1.2)],
                       [InvalidParams, BandCrossing, BandCrossing]),
    "nan_exp_boundary": (LOGNORMAL, [ExpBoundary(A=0.8, B=NAN)], [DomainError] * 3),
    "nan_exp_band": (LOGNORMAL, [ExpBoundary(A=0.8, B=NAN), ExpBoundary(A=1.2)],
                     [DomainError] * 3),
    "nan_affine_boundary": (ADDITIVE, [AffineGMBoundary(A=NAN)], [DomainError] * 3),
    "nan_affine_band": (ADDITIVE, [AffineGMBoundary(A=0.8 * G0), AffineGMBoundary(A=NAN)],
                        [DomainError] * 3),
}


@pytest.mark.parametrize("method", ["closed", "volterra", "mc"])
@pytest.mark.parametrize("case", list(RULE_CASES))
def test_one_rule_poses_every_method(case, method):
    """Every method of one boundary or two raises the same error, with the
    same message, for a start on the boundary or off the band, crossing
    sides and a boundary parameter that is NaN."""
    proc, sides, errors = RULE_CASES[case]
    error = errors[["closed", "volterra", "mc"].index(method)]
    single = len(sides) == 1
    message = {StartOnBoundary: "the start lies on the boundary",
               StartOutsideBand: "the start is not strictly inside the band",
               BandCrossing: "lower boundary meets or exceeds the upper one",
               DomainError: "a boundary is not finite",
               InvalidParams: "have no closed form"}[error]
    with pytest.raises(error, match=message):
        if method == "closed":
            (fpt_pdf_closed if single else fet_pdf_closed)(proc, *sides, 1.0, 0.0, 5.0)
        elif method == "volterra":
            (volterra_fpt if single else volterra_fet)(proc, *sides, 1.0, 0.0,
                                                       np.linspace(0.0, 10.0, 51))
        else:
            cfg = SimConfig(dt=0.5, horizon=10.0, n_paths=8, seed=0)
            (estimate_fpt if single else estimate_fet)(proc, *sides, cfg)


@pytest.mark.parametrize("single", [True, False])
def test_a_callables_boundary_that_is_nan_is_an_error(single):
    # the curve a NaN callables boundary gave had mass nan and no error
    nan_side = GeneralBoundary(s=lambda t: np.full(np.shape(t), NAN), s_dot=lambda t: 0.0)
    grid = np.linspace(0.0, 10.0, 51)
    with pytest.raises(DomainError, match="a boundary is not finite"):
        if single:
            volterra_fpt(LOGNORMAL, nan_side, 1.0, 0.0, grid)
        else:
            volterra_fet(LOGNORMAL, ExpBoundary(A=0.8), nan_side, 1.0, 0.0, grid)
