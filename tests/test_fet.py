import math
import warnings

import numpy as np
import pytest

from growthfpt import (AffineGMBoundary, ConfigError, DanielsBoundary,
                       DensityCurve, ExpBoundary, GeneralBoundary, GrowthParams,
                       InvalidParams, LognormalProcess, OUProcess,
                       StartOutsideBand, fet, fet_pdf_closed, fpt_pdf_closed,
                       volterra_fet, wiener_spec)
from growthfpt.growth_curve import _g
from growthfpt.process_ou import int_g2
from growthfpt.validate import mass_to_infinity

from conftest import BASE

PARAMS = GrowthParams(p=1.5, **BASE)
TILTED = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)


def wiener_band(sigma: float, c1: float, c: float, c2: float, slope: float = 0.0):
    """The exit density, as a function of t, of wiener_spec(sigma) started
    at (c, 0) from the band c_i + slope*t."""
    spec, d1 = wiener_spec(sigma), slope / (sigma * sigma)
    sides = DanielsBoundary(d1=d1, d2=c1), DanielsBoundary(d1=d1, d2=c2)
    return lambda t: fet_pdf_closed(spec, *sides, c, 0.0, t)


SYMMETRIC = wiener_band(1.0, -1.0, 0.0, 1.0)


def mean_band(proc, nu1: float, nu2: float):
    """The sides nu_i times the mean curve from the start of the params."""
    return proc.mean_boundary(nu1), proc.mean_boundary(nu2)


class TestSymmetricWienerBand:
    def test_short_time_underflow_guarded(self):
        val = SYMMETRIC(1e-9)
        assert val == 0.0
        val = SYMMETRIC(1e-3)
        assert val >= 0.0 and math.isfinite(val)


class TestGeneralClosedForm:
    def test_mean_exit_of_offset_band(self):
        # classical identity for driftless exits: E[T] = (c2-c)(c-c1)/sigma^2
        pdf = wiener_band(0.7, -0.5, 0.2, 1.0)
        mean, _ = mass_to_infinity(lambda t: t * pdf(t), 80.0)
        assert mean == pytest.approx((1.0 - 0.2) * (0.2 - (-0.5)) / 0.49, rel=5e-3)

    def test_start_outside_band_rejected(self):
        with pytest.raises(StartOutsideBand):
            wiener_band(1.0, -1.0, -1.0, 1.0)(1.0)


def _family(model: str):
    """(model, side(level, tilt), a boundary of another family) of the
    Wiener, lognormal and additive models, the side level times x0 = 1
    (for the additive process, times g(0))."""
    if model == "wiener":
        return (wiener_spec(0.5), lambda level, tilt=0.0: DanielsBoundary(tilt, level),
                ExpBoundary(A=0.8))
    if model == "lognormal":
        return (LognormalProcess(PARAMS, 0.02),
                lambda level, tilt=0.0: ExpBoundary(A=level, B=tilt),
                DanielsBoundary(0.0, 0.8))
    g0 = _g(PARAMS, 0.0)
    return (OUProcess(PARAMS, 0.1),
            lambda level, tilt=0.0: AffineGMBoundary(A=level * g0, B=tilt),
            ExpBoundary(A=0.8))


@pytest.mark.parametrize("model", ["wiener", "lognormal", "ou"])
def test_closed_forms_refuse_what_they_cannot_read(model):
    # a boundary of another family, band sides of two slopes and a start
    # on or outside the band raise; none is read as some other band
    proc, side, foreign = _family(model)
    lower, upper = side(0.8), side(1.2)
    assert fpt_pdf_closed(proc, lower, 1.0, 0.0, 5.0) > 0.0
    assert fet_pdf_closed(proc, lower, upper, 1.0, 0.0, 5.0) > 0.0
    with pytest.raises(ConfigError):
        fpt_pdf_closed(proc, foreign, 1.0, 0.0, 5.0)
    with pytest.raises(ConfigError):
        fet_pdf_closed(proc, lower, foreign, 1.0, 0.0, 5.0)
    with pytest.raises(InvalidParams):
        fet_pdf_closed(proc, lower, side(1.2, 0.01), 1.0, 0.0, 5.0)
    for start in (0.7, 0.8, 1.2, 1.3):
        with pytest.raises(StartOutsideBand):
            fet_pdf_closed(proc, lower, upper, start, 0.0, 5.0)
    with pytest.raises(StartOutsideBand):
        fet_pdf_closed(proc, upper, lower, 1.0, 0.0, 5.0)


def band_cases(ou_sigma: float = 0.1):
    """Five bands, each as (density of t, clock R/L^2 of t, (u, v, mu)):
    untilted and tilted Wiener, lognormal, untilted and tilted OU."""
    ln_proc = LognormalProcess(PARAMS, 0.02)
    ln_band = mean_band(ln_proc, 0.8, 1.25)
    ou, ou_t = OUProcess(PARAMS, ou_sigma), OUProcess(TILTED, ou_sigma)
    g0, g1 = _g(PARAMS, 0.0), 2.0 * _g(TILTED, 1.0)
    clock = lambda proc, t0, L: lambda t: (
        ou_sigma ** 2 * (int_g2(proc.params, t) - int_g2(proc.params, t0)) / L ** 2)
    lu, lv = math.log(0.95 / 0.8), math.log(1.25 / 0.95)
    return {
        "wiener": (wiener_band(0.7, -0.5, 0.2, 1.0),
                   lambda t: 0.49 * t / 1.5 ** 2, (0.7, 0.8, 0.0)),
        "wiener_tilted": (wiener_band(1.3, -0.4, 0.1, 0.6, slope=0.3),
                          lambda t: 1.69 * t, (0.5, 0.5, -0.3 / 1.69)),
        "lognormal": (lambda t: fet_pdf_closed(ln_proc, *ln_band, 0.95, 0.0, t),
                      lambda t: 4e-4 * t / (lu + lv) ** 2, (lu, lv, -0.5)),
        "ou": (lambda t: fet_pdf_closed(ou, *mean_band(ou, 0.8, 1.2), 1.0, 0.0, t),
               clock(ou, 0.0, 0.4 * g0), (0.2 * g0, 0.2 * g0, 0.0)),
        "ou_tilted": (lambda t: fet_pdf_closed(
                          ou_t, AffineGMBoundary(A=0.8 * g1, B=0.02),
                          AffineGMBoundary(A=1.2 * g1, B=0.02), 0.95 * 2.0, 1.0, t),
                      clock(ou_t, 1.0, 0.4 * g1), (0.15 * g1, 0.25 * g1, -0.02)),
    }


# (t, value) at R/L^2 = 0.003, 0.01, 0.03, 0.1, 0.2, 0.35 and (about) 0.5,
# from the image series as summed before the sine series was added: pairs
# of orders +/-n until one fell below 1e-12 of the running sum.
IMAGE_SERIES_VALUES = {
    "wiener": [(0.01378, 4.3042598033056425e-14), (0.04592, 0.00078785794986379796),
               (0.1378, 0.28507080757134362), (0.4592, 0.78481846843813141),
               (0.9184, 0.50663714265546611), (1.607, 0.24197368170413736),
               (2.294, 0.11564435997615233)],
    "wiener_tilted": [(0.001775, 3.294166630526826e-15), (0.005917, 0.0025213129271397174),
                      (0.01775, 2.0181859689483272), (0.05917, 6.1220466272085989),
                      (0.1183, 3.9577207014151736), (0.2071, 1.8848458594860633),
                      (0.2956, 0.89890208271720395)],
    "lognormal": [(1.494, 3.7992010346120899e-11), (4.979, 0.00020256102924766007),
                  (14.94, 0.0056138608531153354), (49.79, 0.0070961911509795205),
                  (99.59, 0.0043259993235149515), (174.3, 0.0020417849096204628),
                  (248.8, 0.00097139141797693003)],
    "ou": [(0.05338, 9.7959436609806013e-17), (0.2467, 3.8091419624264066e-05),
           (47.37, 0.00018855884026722718), (494.8, 0.00056474697709061033),
           (1135.0, 0.00036543042287255281), (2095.0, 0.00017450282511321258),
           (3000.0, 8.6844985536498151e-05)],
    "ou_tilted": [(1.262, 4.9315347400077199e-10), (8.671, 2.9631769526715653e-05),
                  (133.2, 0.00044375574859760046), (581.1, 0.00054051343436421241),
                  (1221.0, 0.00033787780071111866), (2181.0, 0.00016123494991820969),
                  (3000.0, 8.574287425344185e-05)],
}

# (t, value) from the image series in 40-digit mpmath with orders -30..30,
# for densities far in the short-time tail.
TAIL_VALUES = {
    "wiener": [(0.0009, 7.8493579275669689e-238), (0.0015, 1.1801735476387596e-141),
               (0.003, 1.0065017473772309e-69), (0.006, 5.5268332918843827e-34)],
    "wiener_tilted": [(0.0002, 2.6623381508814519e-156), (0.0004, 1.9039178863638474e-76),
                      (0.0008, 9.573367857682584e-37), (0.0015, 2.0398846746640059e-18)],
    "lognormal": [(0.06, 1.5878783466462289e-265), (0.1, 5.6203569359473843e-159),
                  (0.2, 2.8807610112260042e-79), (0.5, 9.1067832899454673e-32)],
}


class TestBandSeries:
    def test_short_clocks_keep_the_image_series_values(self):
        for name, (pdf, rl, _) in band_cases().items():
            for t, want in IMAGE_SERIES_VALUES[name]:
                assert rl(t) <= 0.5
                assert pdf(t) == pytest.approx(want, rel=1e-13), (name, t)

    def test_short_time_tail_to_the_rounding_of_its_exponent(self):
        # the relative error of exp(-x^2/(2R)) is about the exponent's
        # magnitude times the rounding of R and x
        eps = np.finfo(float).eps
        cases = band_cases()
        for name, points in TAIL_VALUES.items():
            for t, want in points:
                tol = 4.0 * eps * (1.0 - math.log(want))
                assert cases[name][0](t) == pytest.approx(want, rel=tol), (name, t)

    def test_image_and_sine_sums_agree_where_both_hold(self, monkeypatch):
        # each side's strip ratio, which its exit density is a passage
        # density times, summed by each form alone: at the counts summed,
        # where both hold, and with 13 orders and 8 terms from 0.1 to 2 L^2,
        # so the two forms are one function beyond the switch
        for orders, modes, lo, hi in ((fet.ORDERS, fet.MODES, 0.25, 0.6), (6, 8, 0.1, 2.0)):
            monkeypatch.setattr(fet, "ORDERS", orders)
            monkeypatch.setattr(fet, "MODES", modes)
            for name, (_, _, (u, v, _)) in band_cases().items():
                R = np.geomspace(lo, hi, 40) * (u + v) ** 2
                ratio = fet._strip_ratio(np.array([u, v]), u + v)
                for side in (0, 1):
                    monkeypatch.setattr(fet, "_SINE_FROM", math.inf)
                    image = ratio(side, R)
                    monkeypatch.setattr(fet, "_SINE_FROM", 0.0)
                    sine = ratio(side, R)
                    err = np.max(np.abs(image - sine) / sine)
                    assert err <= 1e-12, (orders, modes, name, side)

    def test_strip_ratio_lies_between_zero_and_one(self):
        # an exit density through a side is at most the passage density
        # through that line alone; an exponent floored at EXP_FLOOR but not
        # set to 0 left the ratio at -1.8e-299 at 150 L^2 for a = (0.3, 0.7)
        rng = np.random.default_rng(3901)
        strips = [(1.0, 0.3)] + [(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.001, 0.999))
                                 for _ in range(300)]
        for L, share in strips:
            a = np.array([share, 1.0 - share]) * L
            tau = np.geomspace(1e-3, 1e4, 500) * L * L
            ratio = fet._strip_ratio(a, L)
            for side in (0, 1):
                r = ratio(side, tau)
                assert np.all(r >= 0.0) and np.all(r <= 1.0 + 1e-12), (L, share, side)

    def test_positive_out_to_fifty_band_widths_squared(self):
        for name, (pdf, rl, _) in band_cases(ou_sigma=1.0).items():
            start = 1.0 if name == "ou_tilted" else 0.0
            span = 1.0
            while rl(start + span) < 50.0:
                span *= 2.0
            ts = start + np.geomspace(1e-6 * span, span, 400)
            ts = ts[rl(ts) >= 0.005]
            assert rl(ts[-1]) >= 50.0 and np.all(pdf(ts) > 0.0), name

    def test_symmetric_band_long_time_tail(self):
        # sine series: (pi/2) sum_j (2j+1) (-1)^j exp(-(2j+1)^2 pi^2 t/8)
        val = SYMMETRIC(40.0)
        assert val == pytest.approx(5.8149532460820993e-22, rel=1e-12)
        assert f"{val:.6e}" == "5.814953e-22"
        for t in (30.0, 60.0):
            decay = math.log(SYMMETRIC(t)) - math.log(SYMMETRIC(t + 1.0))
            assert decay == pytest.approx(math.pi ** 2 / 8.0, abs=1e-12)
        # far past the last term's exponent floor, where sqrt(2 pi R^3)
        # overflows, and for a tilted band where (c + dR)^2 does: exactly 0,
        # with no overflow on the way
        tilted = wiener_band(1.0, -1.0, 0.0, 1.0, slope=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t in (1e210, 1e300):
                assert SYMMETRIC(t) == 0.0 and tilted(t) == 0.0

    def test_array_call_equals_scalar_calls(self):
        # the grids cross the image/sine switch at R = L^2/2
        cases = band_cases(ou_sigma=1.0)
        for name, t_hi in (("wiener", 8.0), ("wiener_tilted", 2.0),
                           ("lognormal", 1500.0), ("ou", 1.0)):
            pdf, rl, _ = cases[name]
            ts = np.linspace(t_hi / 400.0, t_hi, 400)
            assert rl(ts[0]) < 0.5 < rl(ts[-1]), name
            vals = pdf(ts)
            assert all(vals[i] == pdf(float(t)) for i, t in enumerate(ts)), name


class TestLognormalBand:
    def test_equivalence_with_wiener_coordinates(self):
        proc = LognormalProcess(PARAMS, 0.02)
        zband = wiener_band(0.02, math.log(0.8), 0.0, math.log(1.25),
                            slope=0.02 ** 2 / 2.0)
        for t in (1.0, 10.0, 60.0, 220.0):
            a = fet_pdf_closed(proc, *mean_band(proc, 0.8, 1.25), 1.0, 0.0, t)
            b = zband(t)
            assert a == pytest.approx(b, rel=1e-10)

    def test_equivalence_with_gm_machinery(self):
        proc = LognormalProcess(PARAMS, 0.02)
        coord = proc.coord(1.0, PARAMS.t0)
        spec, transform = coord.spec, coord.to_coord
        a_coef = 0.5  # slope sigma^2/2 over k1' = sigma^2
        gm_band = [DanielsBoundary(d1=a_coef, d2=math.log(nu * PARAMS.x0))
                   for nu in (0.8, 1.25)]
        z0 = transform(PARAMS.x0, 0.0)
        for t in (5.0, 40.0, 150.0):
            a = fet_pdf_closed(proc, *mean_band(proc, 0.8, 1.25), 1.0, 0.0, t)
            b = fet_pdf_closed(spec, *gm_band, z0, 0.0, t)
            assert a == pytest.approx(b, rel=1e-10)

    def test_total_mass(self):
        proc = LognormalProcess(PARAMS, 0.02)
        band = mean_band(proc, 0.8, 1.25)
        mass, _ = mass_to_infinity(
            lambda t: fet_pdf_closed(proc, *band, 1.0, 0.0, t), 2500.0,
            n_seg=120)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_p_invariance(self):
        vals = []
        for p in (1.5, 1.0, 0.75, 2.0 / 3.0, 0.25):
            proc = LognormalProcess(GrowthParams(p=p, **BASE), 0.02)
            vals.append(fet_pdf_closed(proc, *mean_band(proc, 0.8, 1.2), 1.0, 0.0, 55.0))
        assert max(vals) - min(vals) <= 1e-12 * max(vals)

    def test_off_centre_start_proportion(self):
        # nu = 0.95 starts the path at 0.95 x0, nearer the lower boundary
        proc = LognormalProcess(PARAMS, 0.02)
        coord = proc.coord(1.0, PARAMS.t0)
        spec, transform = coord.spec, coord.to_coord
        gm_band = [DanielsBoundary(d1=0.5, d2=math.log(nu)) for nu in (0.8, 1.25)]
        z0 = transform(0.95 * PARAMS.x0, 0.0)
        assert z0 == pytest.approx(math.log(0.95), rel=1e-12)
        for t in (5.0, 40.0, 150.0):
            a = fet_pdf_closed(proc, *mean_band(proc, 0.8, 1.25), 0.95, 0.0, t)
            b = fet_pdf_closed(spec, *gm_band, z0, 0.0, t)
            assert a == pytest.approx(b, rel=1e-10)


class TestOUBand:
    def test_total_mass_long_horizon(self):
        proc = OUProcess(PARAMS, 0.1)
        band = mean_band(proc, 0.8, 1.2)
        mass, _ = mass_to_infinity(
            lambda t: fet_pdf_closed(proc, *band, 1.0, 0.0, t),
            25_000.0, n_seg=160)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_start_on_lower_boundary_rejected(self):
        proc = OUProcess(PARAMS, 0.1)
        with pytest.raises(StartOutsideBand):
            fet_pdf_closed(proc, *mean_band(proc, 0.8, 1.2), 0.8, 0.0, 10.0)

    def test_tilted_band_with_offset_start_matches_volterra(self):
        from growthfpt import boundary_fns, gm_spec_G
        params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)
        proc = OUProcess(params, 0.1)
        scale = 2.0 * _g(params, 1.0)
        c1, c, c2, B = 0.8, 1.0, 1.2, 0.02
        band = [AffineGMBoundary(A=ci * scale, B=B) for ci in (c1, c2)]
        b1, b2 = (boundary_fns(proc, side, 2.0, 1.0) for side in band)
        grid = np.linspace(1.0, 801.0, 2001)
        _, _, tot = volterra_fet(gm_spec_G(proc), b1, b2, 2.0, 1.0, grid)
        closed = fet_pdf_closed(proc, *band, c * 2.0, 1.0, grid[1:])
        peak = closed.max()
        mask = closed > 0.01 * peak
        rel = np.abs(tot.values[1:][mask] - closed[mask]) / closed[mask]
        assert rel.max() < 1e-10
        # the triple's k2 = 1/g maps the band onto the Daniels lines of the
        # coordinate from the start, where k2 = 1: both solves agree
        coord = proc.coord(2.0, 1.0)
        lines = [DanielsBoundary(d1=d, d2=c0) for c0, d in (
            coord.line(AffineGMBoundary(A=ci * scale, B=B)) for ci in (c1, c2))]
        _, _, direct = volterra_fet(coord.spec, *lines, 0.0, 1.0, grid)
        assert np.max(np.abs(direct.values - tot.values)) <= 1e-12 * tot.values.max()

    def test_monte_carlo_histogram_agreement(self):
        from growthfpt import SimConfig, density_distance, estimate_fet
        proc = OUProcess(PARAMS, 0.1)
        scale = PARAMS.x0 * _g(PARAMS, 0.0)
        s1 = AffineGMBoundary(A=0.8 * scale)
        s2 = AffineGMBoundary(A=1.2 * scale)
        cfg = SimConfig(dt=4.0, horizon=8000.0, n_paths=100_000, seed=57)
        sample = estimate_fet(proc, s1, s2, cfg)
        grid = np.linspace(0.0, 8000.0, 2001)
        curve = DensityCurve.from_function(
            lambda t: fet_pdf_closed(proc, s1, s2, 1.0, 0.0, t), grid, 0.0)
        l1, _ = density_distance(sample, curve, bins=40)
        assert l1 < 0.05


class TestVolterraSystem:
    def test_total_is_sum_of_sides(self):
        spec = wiener_spec(1.0)
        b1 = GeneralBoundary(s=lambda t: -1.0, s_dot=lambda t: 0.0)
        b2 = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        lo, up, tot = volterra_fet(spec, b1, b2, 0.0, 0.0,
                                   np.linspace(0.0, 6.0, 1201))
        assert np.allclose(lo.values + up.values, tot.values, atol=1e-15)

    def test_grid_off_start_rejected(self):
        from growthfpt import GridError
        b1 = GeneralBoundary(s=lambda t: -1.0, s_dot=lambda t: 0.0)
        b2 = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        with pytest.raises(GridError):
            volterra_fet(wiener_spec(1.0), b1, b2, 0.0, 0.0,
                         np.linspace(0.5, 6.0, 101))

    def test_closed_form_band_accuracy(self):
        spec = wiener_spec(1.0)
        b1 = GeneralBoundary(s=lambda t: -1.0, s_dot=lambda t: 0.0)
        b2 = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        grid = np.linspace(0.0, 8.0, 4001)
        _, _, tot = volterra_fet(spec, b1, b2, 0.0, 0.0, grid)
        closed = SYMMETRIC(grid[1:])
        peak = closed.max()
        mask = closed > 0.01 * peak
        rel = np.abs(tot.values[1:][mask] - closed[mask]) / closed[mask]
        assert rel.max() < 0.01

    def test_symmetric_sides_agree(self):
        spec = wiener_spec(1.0)
        b1 = GeneralBoundary(s=lambda t: -1.0, s_dot=lambda t: 0.0)
        b2 = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        lo, up, _ = volterra_fet(spec, b1, b2, 0.0, 0.0,
                                 np.linspace(0.0, 6.0, 2001))
        peak = max(lo.values.max(), 1e-300)
        mask = lo.values > 0.01 * peak
        rel = np.abs(lo.values[mask] - up.values[mask]) / lo.values[mask]
        assert rel.max() < 0.01

    def test_band_crossing_and_start_validation(self):
        from growthfpt import BandCrossing
        spec = wiener_spec(1.0)
        down = GeneralBoundary(s=lambda t: 1.0 - 0.3 * t, s_dot=lambda t: -0.3)
        up = GeneralBoundary(s=lambda t: -1.0 + 0.3 * t, s_dot=lambda t: 0.3)
        grid = np.linspace(0.0, 10.0, 101)
        with pytest.raises(BandCrossing):
            volterra_fet(spec, up, down, 0.0, 0.0, grid)
        b1 = GeneralBoundary(s=lambda t: -1.0, s_dot=lambda t: 0.0)
        b2 = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        with pytest.raises(StartOutsideBand):
            volterra_fet(spec, b1, b2, 1.0, 0.0, grid)

    def test_general_band_side_split_matches_monte_carlo(self):
        # different slopes per boundary: no closed form exists, so the coupled
        # solver's side attribution is validated by simulation.  In the log
        # coordinate of the multiplicative process at sigma = 1 these
        # boundaries are exactly the affine lines -1 + 0.05 t and 1.2 + 0.02 t.
        from growthfpt import SimConfig, density_distance, estimate_fet
        from growthfpt.montecarlo import EmpiricalHittingSample
        proc = LognormalProcess(PARAMS, 1.0)
        s1x = ExpBoundary(A=math.exp(-1.0), B=0.05 - 0.5)
        s2x = ExpBoundary(A=math.exp(1.2), B=0.02 - 0.5)
        spec = wiener_spec(1.0)
        b1 = GeneralBoundary(s=lambda t: -1.0 + 0.05 * t, s_dot=lambda t: 0.05)
        b2 = GeneralBoundary(s=lambda t: 1.2 + 0.02 * t, s_dot=lambda t: 0.02)
        lo, up, tot = volterra_fet(spec, b1, b2, 0.0, 0.0,
                                   np.linspace(0.0, 8.0, 3201))
        cfg = SimConfig(dt=0.004, horizon=8.0, n_paths=30_000, seed=71_717)
        sample = estimate_fet(proc, s1x, s2x, cfg)
        share = float(np.sum(sample.exit_sides == "lower")) / cfg.n_paths
        se = math.sqrt(lo.mass * (1.0 - lo.mass) / cfg.n_paths)
        assert abs(share - lo.mass) <= 3.5 * se
        total_sample = EmpiricalHittingSample(
            hit_times=sample.hit_times, exit_sides=None,
            censored_count=sample.censored_count, n_paths=cfg.n_paths)
        _, ks = density_distance(total_sample, tot, bins=40)
        assert ks < 0.015

    def test_general_band_against_fine_reference(self):
        # tilted, slowly narrowing band with no closed form: self-consistency
        spec = wiener_spec(1.0)
        b1 = GeneralBoundary(s=lambda t: -1.0 + 0.05 * t, s_dot=lambda t: 0.05)
        b2 = GeneralBoundary(s=lambda t: 1.2 + 0.02 * t, s_dot=lambda t: 0.02)
        coarse = volterra_fet(spec, b1, b2, 0.0, 0.0, np.linspace(0.0, 6.0, 601))[2]
        fine = volterra_fet(spec, b1, b2, 0.0, 0.0, np.linspace(0.0, 6.0, 2401))[2]
        interp = np.interp(coarse.times, fine.times, fine.values)
        assert float(np.trapezoid(np.abs(coarse.values - interp),
                                  coarse.times)) < 2e-3


def _line_band(band: str):
    """(coord, lines) of a band of lines from the start (2.1, 1): the
    lognormal band (0.8, 1.2) of the mean, the same OU band, and a lognormal
    band whose sides tilt apart (slopes 2.7 and 6.1)."""
    if band == "ou":
        proc = OUProcess(TILTED, 0.3)
        scale = 2.0 * _g(TILTED, 1.0)
        bounds = [AffineGMBoundary(A=nu * scale) for nu in (0.8, 1.2)]
    else:
        proc = LognormalProcess(TILTED, 0.03)
        tilts = (0.002, 0.005) if band == "tilted" else (0.0, 0.0)
        bounds = [ExpBoundary(A=nu * 2.0, B=B) for nu, B in zip((0.8, 1.2), tilts)]
    coord = proc.coord(2.1, 1.0)
    return coord, [coord.line(b) for b in bounds]


@pytest.mark.parametrize("band", ["lognormal", "ou", "tilted"])
def test_band_of_lines_matches_its_callables(band):
    # a band given as Daniels lines solves as the same band given as
    # callables.  Only the lognormal band (constant rate, equal slopes)
    # drops each side's own sources, whose kernel vanishes, and takes the
    # Toeplitz row; the other bands sum every source either way
    from growthfpt.fpt import _lag_only
    from growthfpt.gm_core import to_clock
    coord, lines = _line_band(band)
    daniels = [DanielsBoundary(d1=d, d2=c) for c, d in lines]
    fns = [GeneralBoundary(s=lambda t, c=c, d=d: c + d * coord.clock(t),
                           s_dot=lambda t, d=d: d * coord.rate(t)) for c, d in lines]
    grid = np.linspace(1.0, 41.0, 801)
    r, rate, *_, rows = to_clock(coord.spec, daniels, 0.0, grid)
    assert _lag_only(r, rate, rows) == (band == "lognormal")
    solved = volterra_fet(coord.spec, *daniels, 0.0, 1.0, grid)
    summed = volterra_fet(coord.spec, *fns, 0.0, 1.0, grid)
    peak = summed[2].values.max()
    assert min(side.mass for side in summed[:2]) > 0.05
    for a, b in zip(solved, summed):
        assert np.max(np.abs(a.values - b.values)) <= 1e-14 * peak


class TestPeakSharpening:
    def test_narrower_band_raises_the_peak(self):
        proc = LognormalProcess(PARAMS, 0.02)
        ts = np.linspace(0.5, 400.0, 1500)
        peaks = []
        for nu1 in (0.8, 0.85, 0.9):
            peaks.append(fet_pdf_closed(proc, *mean_band(proc, nu1, 1.3), 1.0, 0.0,
                                        ts).max())
        assert peaks[0] < peaks[1] < peaks[2]
