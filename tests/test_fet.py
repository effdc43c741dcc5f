import math

import numpy as np
import pytest

from growthfpt import (BandSpec, DensityCurve, GeneralBoundary, GrowthParams,
                       LognormalProcess, OUProcess, ProportionalBand,
                       StartOutsideBand, fet, fet_pdf_gm_closed,
                       fet_pdf_lognormal_band, fet_pdf_ou_band,
                       fet_pdf_wiener_symmetric, volterra_fet, wiener_band_pdf,
                       wiener_spec)
from growthfpt.growth_curve import _g
from growthfpt.process_ou import int_g2
from growthfpt.validate import mass_to_infinity

from conftest import BASE

PARAMS = GrowthParams(p=1.5, **BASE)
TILTED = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)


class TestSymmetricWienerBand:
    def test_matches_general_band_formula(self):
        spec = wiener_spec(1.0)
        for t in (0.1, 0.7, 2.0, 6.0):
            a = fet_pdf_wiener_symmetric(1.0, 1.0, t)
            b = fet_pdf_gm_closed(spec, 0.0, BandSpec(c1=-1.0, c=0.0, c2=1.0),
                                  0.0, 0.0, t)
            assert a == pytest.approx(b, rel=1e-12)

    def test_short_time_underflow_guarded(self):
        val = fet_pdf_wiener_symmetric(1.0, 1.0, 1e-9)
        assert val == 0.0
        val = fet_pdf_wiener_symmetric(1.0, 1.0, 1e-3)
        assert val >= 0.0 and math.isfinite(val)


class TestGeneralClosedForm:
    def test_mean_exit_of_offset_band(self):
        # classical identity for driftless exits: E[T] = (c2-c)(c-c1)/sigma^2
        spec = wiener_spec(0.7)
        band = BandSpec(c1=-0.5, c=0.2, c2=1.0)
        mean, _ = mass_to_infinity(
            lambda t: t * fet_pdf_gm_closed(spec, 0.0, band, 0.2, 0.0, t), 80.0)
        assert mean == pytest.approx((1.0 - 0.2) * (0.2 - (-0.5)) / 0.49, rel=5e-3)

    def test_inconsistent_start_rejected(self):
        from growthfpt import InvalidParams
        with pytest.raises(InvalidParams):
            fet_pdf_gm_closed(wiener_spec(1.0), 0.0,
                              BandSpec(c1=-1.0, c=0.0, c2=1.0), 0.5, 0.0, 1.0)

    def test_start_outside_band_rejected(self):
        with pytest.raises(StartOutsideBand):
            BandSpec(c1=-1.0, c=-1.0, c2=1.0)


def band_cases(ou_sigma: float = 0.1):
    """Five bands, each as (density of t, clock R/L^2 of t, (u, v, mu)):
    untilted and tilted Wiener, lognormal, untilted and tilted OU."""
    w, wt = BandSpec(c1=-0.5, c=0.2, c2=1.0), BandSpec(c1=-0.4, c=0.1, c2=0.6, slope=0.3)
    ln_proc = LognormalProcess(PARAMS, 0.02)
    ln_band = ProportionalBand(nu1=0.8, nu=0.95, nu2=1.25)
    ou, ou_t = OUProcess(PARAMS, ou_sigma), OUProcess(TILTED, ou_sigma)
    g0, g1 = _g(PARAMS, 0.0), 2.0 * _g(TILTED, 1.0)
    clock = lambda proc, t0, L: lambda t: (
        ou_sigma ** 2 * (int_g2(proc.params, t) - int_g2(proc.params, t0)) / L ** 2)
    lu, lv = math.log(0.95 / 0.8), math.log(1.25 / 0.95)
    return {
        "wiener": (lambda t: wiener_band_pdf(w, 0.7, t),
                   lambda t: 0.49 * t / 1.5 ** 2, (0.7, 0.8, 0.0)),
        "wiener_tilted": (lambda t: wiener_band_pdf(wt, 1.3, t),
                          lambda t: 1.69 * t, (0.5, 0.5, -0.3 / 1.69)),
        "lognormal": (lambda t: fet_pdf_lognormal_band(ln_proc, ln_band, 1.0, 0.0, t),
                      lambda t: 4e-4 * t / (lu + lv) ** 2, (lu, lv, -0.5)),
        "ou": (lambda t: fet_pdf_ou_band(ou, 0.8, 1.0, 1.2, 0.0, 1.0, 0.0, t),
               clock(ou, 0.0, 0.4 * g0), (0.2 * g0, 0.2 * g0, 0.0)),
        "ou_tilted": (lambda t: fet_pdf_ou_band(ou_t, 0.8, 0.95, 1.2, 0.02, 2.0, 1.0, t),
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

    def test_image_and_sine_sums_agree_where_both_hold(self):
        for name, (_, _, (u, v, mu)) in band_cases().items():
            R = np.geomspace(0.1, 2.0, 40) * (u + v) ** 2
            image, sine = fet._image_sum(R, u, v, mu), fet._sine_sum(R, u, v, mu)
            assert np.max(np.abs(image - sine) / sine) <= 1e-12, name

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
        val = fet_pdf_wiener_symmetric(1.0, 1.0, 40.0)
        assert val == pytest.approx(5.8149532460820993e-22, rel=1e-12)
        assert f"{val:.6e}" == "5.814953e-22"
        for t in (30.0, 60.0):
            decay = (math.log(fet_pdf_wiener_symmetric(1.0, 1.0, t))
                     - math.log(fet_pdf_wiener_symmetric(1.0, 1.0, t + 1.0)))
            assert decay == pytest.approx(math.pi ** 2 / 8.0, abs=1e-12)

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
        band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.25)
        zband = BandSpec(c1=math.log(0.8), c=0.0, c2=math.log(1.25),
                         slope=0.02 ** 2 / 2.0)
        for t in (1.0, 10.0, 60.0, 220.0):
            a = fet_pdf_lognormal_band(proc, band, 1.0, 0.0, t)
            b = wiener_band_pdf(zband, 0.02, t)
            assert a == pytest.approx(b, rel=1e-10)

    def test_equivalence_with_gm_machinery(self):
        proc = LognormalProcess(PARAMS, 0.02)
        band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.25)
        coord = proc.coord(1.0, PARAMS.t0)
        spec, transform = coord.spec, coord.to_coord
        s2 = 0.02 ** 2
        a_coef = 0.5  # slope sigma^2/2 over k1' = sigma^2
        gm_band = BandSpec(c1=math.log(0.8 * PARAMS.x0), c=math.log(PARAMS.x0),
                           c2=math.log(1.25 * PARAMS.x0))
        z0 = transform(PARAMS.x0, 0.0)
        for t in (5.0, 40.0, 150.0):
            a = fet_pdf_lognormal_band(proc, band, 1.0, 0.0, t)
            b = fet_pdf_gm_closed(spec, a_coef, gm_band, z0, 0.0, t)
            assert a == pytest.approx(b, rel=1e-10)

    def test_total_mass(self):
        proc = LognormalProcess(PARAMS, 0.02)
        band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.25)
        mass, _ = mass_to_infinity(
            lambda t: fet_pdf_lognormal_band(proc, band, 1.0, 0.0, t), 2500.0,
            n_seg=120)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_p_invariance(self):
        vals = []
        for p in (1.5, 1.0, 0.75, 2.0 / 3.0, 0.25):
            proc = LognormalProcess(GrowthParams(p=p, **BASE), 0.02)
            band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.2)
            vals.append(fet_pdf_lognormal_band(proc, band, 1.0, 0.0, 55.0))
        assert max(vals) - min(vals) <= 1e-12 * max(vals)

    def test_band_validation(self):
        with pytest.raises(StartOutsideBand):
            ProportionalBand(nu1=1.0, nu=1.0, nu2=1.2)

    def test_off_centre_start_proportion(self):
        # nu = 0.95 starts the path at 0.95 x0, nearer the lower boundary
        proc = LognormalProcess(PARAMS, 0.02)
        band = ProportionalBand(nu1=0.8, nu=0.95, nu2=1.25)
        coord = proc.coord(1.0, PARAMS.t0)
        spec, transform = coord.spec, coord.to_coord
        gm_band = BandSpec(c1=math.log(0.8), c=math.log(0.95), c2=math.log(1.25))
        z0 = transform(0.95 * PARAMS.x0, 0.0)
        assert z0 == pytest.approx(math.log(0.95), rel=1e-12)
        for t in (5.0, 40.0, 150.0):
            a = fet_pdf_lognormal_band(proc, band, 1.0, 0.0, t)
            b = fet_pdf_gm_closed(spec, 0.5, gm_band, z0, 0.0, t)
            assert a == pytest.approx(b, rel=1e-10)


class TestOUBand:
    def test_total_mass_long_horizon(self):
        proc = OUProcess(PARAMS, 0.1)
        mass, _ = mass_to_infinity(
            lambda t: fet_pdf_ou_band(proc, 0.8, 1.0, 1.2, 0.0, 1.0, 0.0, t),
            25_000.0, n_seg=160)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_start_on_lower_boundary_rejected(self):
        proc = OUProcess(PARAMS, 0.1)
        with pytest.raises(StartOutsideBand):
            fet_pdf_ou_band(proc, 0.8, 0.8, 1.2, 0.0, 1.0, 0.0, 10.0)

    def test_tilted_band_with_offset_start_matches_volterra(self):
        from growthfpt.fpt import affine_gm_boundary_fns
        from growthfpt import AffineGMBoundary, DanielsBoundary, gm_spec_G
        params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)
        proc = OUProcess(params, 0.1)
        scale = 2.0 * _g(params, 1.0)
        c1, c, c2, B = 0.8, 1.0, 1.2, 0.02
        b1 = affine_gm_boundary_fns(proc, AffineGMBoundary(A=c1 * scale, B=B), 1.0)
        b2 = affine_gm_boundary_fns(proc, AffineGMBoundary(A=c2 * scale, B=B), 1.0)
        grid = np.linspace(1.0, 801.0, 2001)
        _, _, tot = volterra_fet(gm_spec_G(proc), b1, b2, 2.0, 1.0, grid)
        closed = fet_pdf_ou_band(proc, c1, c, c2, B, 2.0, 1.0, grid[1:])
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
        from growthfpt import AffineGMBoundary, SimConfig, density_distance, estimate_fet
        proc = OUProcess(PARAMS, 0.1)
        scale = PARAMS.x0 * _g(PARAMS, 0.0)
        s1 = AffineGMBoundary(A=0.8 * scale)
        s2 = AffineGMBoundary(A=1.2 * scale)
        cfg = SimConfig(dt=4.0, horizon=8000.0, n_paths=100_000, seed=57)
        sample = estimate_fet(proc, s1, s2, cfg)
        grid = np.linspace(0.0, 8000.0, 2001)
        curve = DensityCurve.from_function(
            lambda t: fet_pdf_ou_band(proc, 0.8, 1.0, 1.2, 0.0, 1.0, 0.0, t),
            grid, 0.0)
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
        closed = fet_pdf_wiener_symmetric(1.0, 1.0, grid[1:])
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
        from growthfpt import (ExpBoundary, LognormalProcess, SimConfig,
                               density_distance, estimate_fet, wiener_spec)
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
    from growthfpt import AffineGMBoundary, ExpBoundary
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
    from growthfpt import DanielsBoundary
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
            band = ProportionalBand(nu1=nu1, nu=1.0, nu2=1.3)
            peaks.append(fet_pdf_lognormal_band(proc, band, 1.0, 0.0, ts).max())
        assert peaks[0] < peaks[1] < peaks[2]
