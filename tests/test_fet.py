import math

import numpy as np
import pytest

from growthfpt import (BandSpec, DensityCurve, GeneralBoundary, GrowthParams,
                       LognormalProcess, OUProcess, ProportionalBand,
                       SeriesControl, SeriesDivergence, StartOutsideBand,
                       fet_pdf_gm_closed, fet_pdf_lognormal_band,
                       fet_pdf_ou_band, fet_pdf_wiener_symmetric,
                       integrate_adaptive, volterra_fet, wiener_band_pdf,
                       wiener_spec)
from growthfpt.growth_curve import _g
from growthfpt.validate import mass_to_infinity

from conftest import BASE

PARAMS = GrowthParams(p=1.5, **BASE)


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
        mean = integrate_adaptive(
            lambda t: t * fet_pdf_gm_closed(spec, 0.0, band, 0.2, 0.0, t)
            if t > 0 else 0.0, 0.0, 80.0)
        assert mean == pytest.approx((1.0 - 0.2) * (0.2 - (-0.5)) / 0.49, rel=5e-3)

    def test_inconsistent_start_rejected(self):
        from growthfpt import InvalidParams
        with pytest.raises(InvalidParams):
            fet_pdf_gm_closed(wiener_spec(1.0), 0.0,
                              BandSpec(c1=-1.0, c=0.0, c2=1.0), 0.5, 0.0, 1.0)

    def test_start_outside_band_rejected(self):
        with pytest.raises(StartOutsideBand):
            BandSpec(c1=-1.0, c=-1.0, c2=1.0)

    def test_series_divergence_cap(self):
        # wide clock against a narrow band needs many images
        ctl = SeriesControl(rel_tol=1e-12, n_max=5)
        with pytest.raises(SeriesDivergence):
            fet_pdf_gm_closed(wiener_spec(1.0), 0.0,
                              BandSpec(c1=-0.05, c=0.0, c2=0.05),
                              0.0, 0.0, 10.0, ctl)

    def test_truncation_stability(self):
        loose = SeriesControl(rel_tol=1e-9)
        tight = SeriesControl(rel_tol=1e-13)
        for t in (0.5, 2.0, 8.0):
            a = fet_pdf_wiener_symmetric(1.0, 1.0, t, loose)
            b = fet_pdf_wiener_symmetric(1.0, 1.0, t, tight)
            assert abs(a - b) <= 1e-9 * max(abs(b), 1.0)


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
        from growthfpt import to_wiener_spec
        spec, transform, _ = to_wiener_spec(proc)
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
        mass = mass_to_infinity(
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
        from growthfpt import to_wiener_spec
        spec, transform, _ = to_wiener_spec(proc)
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
        mass = mass_to_infinity(
            lambda t: fet_pdf_ou_band(proc, 0.8, 1.0, 1.2, 0.0, 1.0, 0.0, t),
            25_000.0, n_seg=160)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_start_on_lower_boundary_rejected(self):
        proc = OUProcess(PARAMS, 0.1)
        with pytest.raises(StartOutsideBand):
            fet_pdf_ou_band(proc, 0.8, 0.8, 1.2, 0.0, 1.0, 0.0, 10.0)

    def test_tilted_band_with_offset_start_matches_volterra(self):
        from growthfpt.fpt import affine_gm_boundary_fns
        from growthfpt import AffineGMBoundary, gm_spec_G
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
        closed = np.array([fet_pdf_wiener_symmetric(1.0, 1.0, t)
                           for t in grid[1:]])
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


class TestPeakSharpening:
    def test_narrower_band_raises_the_peak(self):
        proc = LognormalProcess(PARAMS, 0.02)
        ts = np.linspace(0.5, 400.0, 1500)
        peaks = []
        for nu1 in (0.8, 0.85, 0.9):
            band = ProportionalBand(nu1=nu1, nu=1.0, nu2=1.3)
            vals = [fet_pdf_lognormal_band(proc, band, 1.0, 0.0, float(t))
                    for t in ts]
            peaks.append(max(vals))
        assert peaks[0] < peaks[1] < peaks[2]
