import hashlib
import math

import numpy as np
import pytest

from growthfpt import (AffineGMBoundary, DanielsBoundary, DensityCurve,
                       DomainError, ExpBoundary, GeneralBoundary, GridError,
                       GrowthParams, LognormalProcess, OrderError, OUProcess,
                       SimConfig, StartOnBoundary, boundary_fns, domain_end,
                       estimate_fpt, fet_pdf_closed, fpt_pdf_closed, gm_spec_G,
                       volterra_fet, volterra_fpt, wiener_spec)
from growthfpt.growth_curve import _g, h_eval
from growthfpt.validate import mass_to_infinity

from conftest import BASE

PARAMS = GrowthParams(p=1.5, **BASE)
PHI_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)


class TestClosedFormGM:
    def test_wiener_level_crossing(self):
        # |S| / sqrt(2 pi t^3) * exp(-S^2 / 2t) at S = 1, t = 1
        spec = wiener_spec(1.0)
        val = fpt_pdf_closed(spec, DanielsBoundary(0.0, 1.0), 0.0, 0.0, 1.0)
        assert val == pytest.approx(PHI_1, rel=1e-13)
        for t in (0.3, 2.0, 7.0):
            direct = abs(1.0) / math.sqrt(2.0 * math.pi * t ** 3) * math.exp(
                -1.0 / (2.0 * t))
            assert fpt_pdf_closed(spec, DanielsBoundary(0.0, 1.0),
                                     0.0, 0.0, t) == pytest.approx(direct, rel=1e-12)

    def test_vanishes_at_time_origin(self):
        spec = wiener_spec(1.0)
        assert fpt_pdf_closed(spec, DanielsBoundary(0.0, 1.0),
                                 0.0, 0.0, 1e-6) < 1e-300

    def test_downcrossing_symmetry(self):
        spec = wiener_spec(1.0)
        up = fpt_pdf_closed(spec, DanielsBoundary(0.0, 1.0), 0.0, 0.0, 1.3)
        down = fpt_pdf_closed(spec, DanielsBoundary(0.0, -1.0), 0.0, 0.0, 1.3)
        assert up == pytest.approx(down, rel=1e-13)

    def test_start_on_boundary(self):
        with pytest.raises(StartOnBoundary):
            fpt_pdf_closed(wiener_spec(1.0), DanielsBoundary(0.0, 1.0),
                              1.0, 0.0, 1.0)

    def test_order_error(self):
        with pytest.raises(OrderError):
            fpt_pdf_closed(wiener_spec(1.0), DanielsBoundary(0.0, 1.0),
                              0.0, 1.0, 1.0)

    def test_matches_lognormal_after_transform(self):
        proc = LognormalProcess(PARAMS, 0.02)
        bnd = ExpBoundary(A=0.8, B=0.0)
        coord = proc.coord(1.0, PARAMS.t0)
        spec, transform = coord.spec, coord.to_coord
        # image of the boundary is affine: intercept ln A, slope B + sigma^2/2
        s2 = proc.sigma ** 2
        d1 = (bnd.B + 0.5 * s2) / s2
        d2 = math.log(bnd.A)
        z0 = transform(1.0, 0.0)
        for t in (5.0, 30.0, 41.4, 120.0):
            a = fpt_pdf_closed(proc, bnd, 1.0, 0.0, t)
            b = fpt_pdf_closed(spec, DanielsBoundary(d1=d1, d2=d2), z0, 0.0, t)
            assert a == pytest.approx(b, rel=1e-10)

    def test_transform_route_with_offset_start_and_tilt(self):
        # t0 > 0 with a tilted boundary exercises every anchoring convention
        params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)
        proc = LognormalProcess(params, 0.03)
        bnd = ExpBoundary(A=0.8 * 2.0 * math.exp(-0.002), B=0.002)
        coord = proc.coord(1.0, params.t0)
        spec, transform = coord.spec, coord.to_coord
        # the clock starts at t0, so the image's intercept is ln A + B t0
        s2 = proc.sigma ** 2
        d1 = (bnd.B + 0.5 * s2) / s2
        d2 = math.log(bnd.A) + bnd.B * params.t0
        z0 = transform(2.0, 1.0)
        fns = boundary_fns(proc, bnd, params.x0, params.t0)
        assert fns.s(1.0) == pytest.approx(bnd.A * math.exp(bnd.B), rel=1e-12)
        for t in (2.0, 10.0, 60.0):
            a = fpt_pdf_closed(proc, bnd, 2.0, 1.0, t)
            b = fpt_pdf_closed(spec, DanielsBoundary(d1=d1, d2=d2), z0, 1.0, t)
            assert a == pytest.approx(b, rel=1e-10)


class TestClosedFormLognormal:
    def test_mode_location(self):
        # hitting time of a drifted Brownian level: mode 2 (sqrt(9+a^2)-3)/s^2
        proc = LognormalProcess(PARAMS, 0.02)
        bnd = ExpBoundary(A=0.8)
        ts = np.linspace(20.0, 70.0, 5001)
        vals = fpt_pdf_closed(proc, bnd, 1.0, 0.0, ts)
        mode = float(ts[int(np.argmax(vals))])
        a = -math.log(0.8)
        expected = 2.0 * (math.sqrt(9.0 + a * a) - 3.0) / 0.02 ** 2
        assert mode == pytest.approx(expected, abs=0.02)
        assert abs(mode - 41.39) <= 0.1

    def test_p_invariance(self):
        vals = []
        for p in (1.5, 1.0, 0.75, 2.0 / 3.0, 0.25):
            proc = LognormalProcess(GrowthParams(p=p, **BASE), 0.02)
            vals.append(fpt_pdf_closed(proc, ExpBoundary(A=0.8), 1.0, 0.0, 40.0))
        assert max(vals) - min(vals) <= 1e-12 * max(vals)

    def test_scale_invariance(self):
        proc = LognormalProcess(GrowthParams(gamma=0.5, n=1.0, p=1.5, k=200.0,
                                             x0=5.0, t0=0.0), 0.02)
        ref = LognormalProcess(PARAMS, 0.02)
        for t in (10.0, 41.0, 90.0):
            a = fpt_pdf_closed(proc, ExpBoundary(A=0.8 * 5.0), 5.0, 0.0, t)
            b = fpt_pdf_closed(ref, ExpBoundary(A=0.8), 1.0, 0.0, t)
            assert a == pytest.approx(b, rel=1e-12)

    def test_boundary_functions_track_the_mean_proportion(self):
        proc = LognormalProcess(PARAMS, 0.02)
        fns = boundary_fns(proc, ExpBoundary(A=0.8), PARAMS.x0, PARAMS.t0)
        for t in (0.0, 1.0, 10.0):
            expected = 0.8 * _g(PARAMS, 0.0) / _g(PARAMS, t)
            assert fns.s(t) == pytest.approx(expected, rel=1e-12)

    def test_volterra_on_the_log_image_from_a_late_start(self):
        # the boundary is anchored at the start t0 = 3, not at t0 of the
        # curve: its log image is the line the closed form uses, so Volterra
        # on that image reproduces the closed form
        proc = LognormalProcess(PARAMS, 0.1)
        bnd, t0 = ExpBoundary(A=0.8), 3.0
        coord = proc.coord(1.0, PARAMS.t0)
        spec, transform = coord.spec, coord.to_coord
        fns = boundary_fns(proc, bnd, PARAMS.x0, t0)
        image = GeneralBoundary(
            s=lambda t: transform(fns.s(t), t),
            s_dot=lambda t: fns.s_dot(t) / fns.s(t) - h_eval(PARAMS, t) + 0.005)
        grid = np.linspace(t0, t0 + 60.0, 1201)
        curve = volterra_fpt(spec, image, transform(1.0, t0), t0, grid)
        closed = fpt_pdf_closed(proc, bnd, 1.0, t0, grid[1:])
        assert np.max(np.abs(curve.values[1:] - closed)) <= 1e-12 * closed.max()
        assert curve.mass > 0.8


class TestClosedFormOU:
    def test_nonnegative_and_vanishing_at_origin(self):
        proc = OUProcess(PARAMS, 0.1)
        bnd = AffineGMBoundary(A=0.8 * _g(PARAMS, 0.0))
        assert fpt_pdf_closed(proc, bnd, 1.0, 0.0, 1e-5) >= 0.0
        assert fpt_pdf_closed(proc, bnd, 1.0, 0.0, 1e-5) < 1e-300
        for t in (0.5, 2.0, 20.0):
            assert fpt_pdf_closed(proc, bnd, 1.0, 0.0, t) >= 0.0

    def test_mass_matches_monte_carlo_hit_fraction(self):
        proc = OUProcess(PARAMS, 0.1)
        nu = 0.8
        bnd = AffineGMBoundary(A=nu * 1.0 * _g(PARAMS, 0.0))
        mass, _ = mass_to_infinity(lambda t: fpt_pdf_closed(proc, bnd, 1.0, 0.0, t), 50.0)
        cfg = SimConfig(dt=0.1, horizon=50.0, n_paths=100_000, seed=31)
        sample = estimate_fpt(proc, bnd, cfg)
        frac = sample.hit_times.size / sample.n_paths
        assert abs(mass - frac) < 1e-3

    def test_domain_error_at_ceiling(self):
        # t_star = 24.267 ends the curve: the passage and the exit densities
        # raise at it and beyond it
        params = GrowthParams(p=0.25, **BASE)
        proc = OUProcess(params, 0.1)
        bnd = AffineGMBoundary(A=0.8 * _g(params, 0.0))
        upper = AffineGMBoundary(A=1.2 * _g(params, 0.0))
        t_star = domain_end(params).t_star
        assert fpt_pdf_closed(proc, bnd, 1.0, 0.0, 0.99 * t_star) >= 0.0
        for t in (t_star, 30.0, np.array([1.0, t_star])):
            with pytest.raises(DomainError):
                fpt_pdf_closed(proc, bnd, 1.0, 0.0, t)
            with pytest.raises(DomainError):
                fet_pdf_closed(proc, bnd, upper, 1.0, 0.0, t)

    def test_agrees_with_volterra(self):
        proc = OUProcess(PARAMS, 0.1)
        bnd = AffineGMBoundary(A=0.8 * _g(PARAMS, 0.0))
        grid = np.linspace(0.0, 20.0, 2001)
        curve = volterra_fpt(proc, boundary_fns(proc, bnd, 1.0, 0.0), 1.0, 0.0, grid)
        closed = np.array([fpt_pdf_closed(proc, bnd, 1.0, 0.0, t) for t in grid[1:]])
        peak = closed.max()
        mask = closed > 0.01 * peak
        rel = np.abs(curve.values[1:][mask] - closed[mask]) / closed[mask]
        assert rel.max() < 0.01

    def test_offset_start_and_tilt_agree_with_volterra(self):
        params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)
        proc = OUProcess(params, 0.1)
        bnd = AffineGMBoundary(A=0.8 * 2.0 * _g(params, 1.0), B=0.05)
        grid = np.linspace(1.0, 21.0, 2001)
        curve = volterra_fpt(gm_spec_G(proc), boundary_fns(proc, bnd, 2.0, 1.0),
                             2.0, 1.0, grid)
        closed = np.array([fpt_pdf_closed(proc, bnd, 2.0, 1.0, t) for t in grid[1:]])
        assert np.max(np.abs(curve.values[1:] - closed)) < 1e-12


def _tilted_offset_case(family):
    """(process, boundary, fns) at the offset start (x0, t0) = (2, 1) with
    a tilted boundary of the family."""
    params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)
    if family == "multiplicative":
        proc = LognormalProcess(params, 0.03)
        bnd = ExpBoundary(A=0.8 * 2.0 * math.exp(-0.002), B=0.002)
    else:
        proc = OUProcess(params, 0.1)
        bnd = AffineGMBoundary(A=0.8 * 2.0 * _g(params, 1.0), B=0.05)
    return proc, bnd, boundary_fns(proc, bnd, 2.0, 1.0)


@pytest.mark.parametrize("family", ["multiplicative", "additive"])
def test_line_pins_the_state_space_forms(family):
    # the state-space boundary maps onto its line c + d*R, and the state
    # map and its inverse undo each other, from a start off both anchors
    proc, bnd, fns = _tilted_offset_case(family)
    coord = proc.coord(2.5, 1.0)
    ts = np.linspace(1.0, 21.0, 201)
    c, d = coord.line(bnd)
    assert np.max(np.abs(coord.to_coord(fns.s(ts), ts) - (c + d * coord.clock(ts)))) <= 1e-12
    xs = np.linspace(0.5, 4.0, 201)
    assert np.max(np.abs(coord.to_state(coord.to_coord(xs, ts), ts) - xs)) <= 1e-12


def _line_fns(coord, c: float, d: float) -> GeneralBoundary:
    """The line c + d*R of the coordinate as value and derivative callables."""
    return GeneralBoundary(s=lambda t: c + d * coord.clock(t),
                           s_dot=lambda t: d * coord.rate(t))


@pytest.mark.parametrize("family", ["multiplicative", "additive"])
def test_daniels_line_and_its_callables_solve_alike(family):
    # one line c + d*R of the coordinate, given to the solver as a Daniels
    # line of coord.spec and as value and derivative callables: the line
    # drops the sources on itself, whose kernel vanishes, and the callables
    # sum them, so both solve to the line's closed form.  The line is that
    # form to rounding; the callables keep the full sum's rounding, 3.4e-15
    # and 1.07e-14 of the grid's peak on these grids (the values before
    # lines dropped their sources; the additive density still rises at t = 21)
    proc, bnd, _ = _tilted_offset_case(family)
    coord = proc.coord(2.0, 1.0)
    c, d = coord.line(bnd)
    grid = np.linspace(1.0, 21.0, 401)
    daniels = DanielsBoundary(d1=d, d2=c)
    line = volterra_fpt(coord.spec, daniels, 0.0, 1.0, grid).values
    callables = volterra_fpt(coord.spec, _line_fns(coord, c, d), 0.0, 1.0, grid).values
    closed = fpt_pdf_closed(coord.spec, daniels, 0.0, 1.0, grid[1:])
    summed = {"multiplicative": 3.4e-15, "additive": 1.1e-14}[family]
    assert line[0] == callables[0] == 0.0 and closed.max() > 0.0
    assert np.max(np.abs(line[1:] - closed)) <= 1e-14 * closed.max()
    assert np.max(np.abs(callables[1:] - closed)) <= summed * closed.max()


@pytest.mark.parametrize("level", [0.8, 1.25])
@pytest.mark.parametrize("family", ["multiplicative", "additive"])
def test_daniels_line_is_its_closed_form(family, level):
    # a Daniels line, below or above the start, tilted and started at
    # t0 = 1, solves to its closed form at every grid point, in the
    # coordinate from the start and on the process's own triple; the grid
    # holds the density's peak
    proc, bnd, _ = _tilted_offset_case(family)
    bnd = type(bnd)(A=bnd.A * level / 0.8, B=bnd.B)
    coord = proc.coord(2.0, 1.0)
    c, d = coord.line(bnd)
    specs = [(coord.spec, DanielsBoundary(d1=d, d2=c), 0.0)]
    if family == "additive":  # Y = X g = w + w0 in the triple's k2 = 1/g
        w0 = 2.0 * _g(proc.params, 1.0)
        specs.append((gm_spec_G(proc), DanielsBoundary(d1=d, d2=c + w0), 2.0))
    grid = np.linspace(1.0, 41.0 if family == "multiplicative" else 1001.0, 801)
    for spec, line, x0 in specs:
        solved = volterra_fpt(spec, line, x0, 1.0, grid).values
        closed = fpt_pdf_closed(spec, line, x0, 1.0, grid[1:])
        assert solved[0] == 0.0 and 0 < closed.argmax() < closed.size - 1
        assert np.max(np.abs(solved[1:] - closed)) <= 1e-12 * closed.max()


# SHA-256 of the values of two solves from callables, recorded at f653364,
# before lines dropped their own sources: callables keep the full sum
CALLABLES_DIGESTS = {
    "sinusoid": "52121567a1823771b3d89adc254e36bb29e0c006ffca35c6b22c0605e0297216",
    "band": "b60b04d67cdac92441bbeb5d9c77e837d48c60e6ccad42d3257d6f00bf861f2e",
}


def test_callables_keep_their_bits():
    spec = wiener_spec(1.0)
    wavy = GeneralBoundary(s=lambda t: 1.0 + 0.25 * np.sin(t),
                           s_dot=lambda t: 0.25 * np.cos(t))
    sol = volterra_fpt(spec, wavy, 0.0, 0.0, np.linspace(0.0, 5.0, 401)).values
    lower = GeneralBoundary(s=lambda t: -0.8 + 0.2 * np.sin(t),
                            s_dot=lambda t: 0.2 * np.cos(t))
    upper = GeneralBoundary(s=lambda t: 1.0 + 0.1 * t, s_dot=lambda t: 0.1)
    g1, g2, _ = volterra_fet(spec, lower, upper, 0.0, 0.0, np.linspace(0.0, 4.0, 401))
    band = np.concatenate((g1.values, g2.values))
    assert {name: hashlib.sha256(v.tobytes()).hexdigest()
            for name, v in (("sinusoid", sol), ("band", band))} == CALLABLES_DIGESTS


class TestVolterraSolver:
    def test_closed_form_boundary_is_exact(self):
        spec = wiener_spec(1.0)
        grid = np.linspace(0.0, 5.0, 801)
        bnd = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        curve = volterra_fpt(spec, bnd, 0.0, 0.0, grid)
        closed = np.array([fpt_pdf_closed(spec, DanielsBoundary(0.0, 1.0),
                                             0.0, 0.0, t) for t in grid[1:]])
        assert np.max(np.abs(curve.values[1:] - closed)) < 1e-10

    def test_convergence_under_step_halving(self):
        # non-closed-form boundary so the integral term actually contributes;
        # errors against a much finer reference must drop at least first-order
        spec = wiener_spec(1.0)
        bnd = GeneralBoundary(s=lambda t: 1.0 + 0.25 * np.sin(t),
                              s_dot=lambda t: 0.25 * np.cos(t))
        sols = {}
        for K in (500, 1000, 8000):
            grid = np.linspace(0.0, 5.0, K + 1)
            sols[K] = volterra_fpt(spec, bnd, 0.0, 0.0, grid)
        ref = sols[8000]
        e = {}
        for K in (500, 1000):
            interp = np.interp(sols[K].times, ref.times, ref.values)
            e[K] = float(np.trapezoid(np.abs(sols[K].values - interp),
                                      sols[K].times))
        ratio = e[500] / e[1000]
        assert ratio >= 1.8  # at least first-order decrease
        assert e[1000] < 1e-5

    def test_downcrossing_matches_reflected_problem(self):
        spec = wiener_spec(1.0)
        grid = np.linspace(0.0, 4.0, 801)
        below = GeneralBoundary(s=lambda t: -1.0, s_dot=lambda t: 0.0)
        curve = volterra_fpt(spec, below, 0.0, 0.0, grid)
        closed = np.array([fpt_pdf_closed(spec, DanielsBoundary(0.0, -1.0),
                                             0.0, 0.0, t) for t in grid[1:]])
        assert np.max(np.abs(curve.values[1:] - closed)) < 1e-10
        # a boundary with an active kernel: the mirror image of the
        # above-start sinusoid is crossed from above with the same density
        above = GeneralBoundary(s=lambda t: 1.0 + 0.25 * np.sin(t),
                                s_dot=lambda t: 0.25 * np.cos(t))
        mirrored = GeneralBoundary(s=lambda t: -1.0 - 0.25 * np.sin(t),
                                   s_dot=lambda t: -0.25 * np.cos(t))
        up = volterra_fpt(spec, above, 0.0, 0.0, grid)
        down = volterra_fpt(spec, mirrored, 0.0, 0.0, grid)
        assert up.values.max() > 0.1
        assert np.max(np.abs(up.values - down.values)) < 1e-12

    def test_grid_and_start_validation(self):
        spec = wiener_spec(1.0)
        bnd = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
        with pytest.raises(GridError):
            volterra_fpt(spec, bnd, 0.0, 0.0, np.array([0.0, 0.1, 0.3]))
        with pytest.raises(StartOnBoundary):
            volterra_fpt(spec, bnd, 1.0, 0.0, np.linspace(0.0, 1.0, 11))


class TestDensityCurve:
    def test_mass_and_nonnegativity(self):
        ts = np.linspace(0.0, 5.0, 101)
        vals = np.exp(-ts)
        curve = DensityCurve(times=ts, values=vals)
        assert curve.mass <= 1.0 + 1e-6
        assert np.all(curve.values >= 0.0)

    def test_rejects_significantly_negative_values(self):
        ts = np.linspace(0.0, 1.0, 11)
        vals = np.full(11, 1.0)
        vals[5] = -0.1
        with pytest.raises(DomainError):
            DensityCurve(times=ts, values=vals)

    def test_rejects_mass_above_one(self):
        ts = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError):
            DensityCurve(times=ts, values=np.full(11, 1.5))

    @pytest.mark.parametrize("times,values", [([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
                                              ([0.0, 1.0, 2.0], [0.0, np.inf, 0.0]),
                                              ([0.0, 1.0, np.nan], [0.0, 0.5, 0.0])])
    def test_rejects_non_finite_times_and_values(self, times, values):
        # a NaN value gave a curve of mass nan
        with pytest.raises(DomainError, match="must be finite"):
            DensityCurve(times=times, values=values)

    def test_cumulative_matches_mass(self):
        ts = np.linspace(0.0, 5.0, 101)
        curve = DensityCurve(times=ts, values=np.exp(-ts))
        cum = curve.cumulative()
        assert cum[-1] == pytest.approx(curve.mass, rel=1e-12)
        assert np.all(np.diff(cum) >= 0.0)


def test_affine_callables_integrate_the_clock_once_per_grid(monkeypatch):
    # a scalar read of int_g2 for each of the spec's clock, the callables'
    # coordinate and the spec's coordinate in to_clock, then one grid read
    # each for the spec's clock, s and s_dot (which maps the line back
    # itself), bit for bit the solve of an s_dot from callables of its own
    from growthfpt import process_ou
    proc = OUProcess(PARAMS, 0.1)
    params = proc.params
    bnd = AffineGMBoundary(A=1.2 * params.x0 * _g(params, params.t0), B=0.01)
    grid = np.linspace(params.t0, params.t0 + 20.0, 401)
    fns = boundary_fns(proc, bnd, params.x0, params.t0)
    again = GeneralBoundary(s=fns.s, s_dot=lambda t: boundary_fns(
        proc, bnd, params.x0, params.t0).s_dot(t))
    want = volterra_fpt(gm_spec_G(proc), again, params.x0, params.t0, grid).values
    sizes = []
    int_g2 = process_ou.int_g2
    monkeypatch.setattr(process_ou, "int_g2",
                        lambda p, ts: sizes.append(np.size(ts)) or int_g2(p, ts))
    got = volterra_fpt(gm_spec_G(proc), boundary_fns(proc, bnd, params.x0, params.t0),
                       params.x0, params.t0, grid).values
    assert sizes == [1, 1, 1, 401, 401, 401]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("estimate", ["fpt", "fet"])
@pytest.mark.parametrize("family", ["multiplicative", "additive"])
def test_volterra_takes_the_process_as_the_closed_forms_do(family, estimate):
    # the solvers take the process itself, its boundaries as lines or as
    # their state-space callables (boundary_fns), which sum every source.
    # A lone line is its closed form; a band solves as the same lines posed
    # on the coordinate's own triple, within the discretisation of its
    # cross term of the closed form.  The start 2.1 lies off the curve's
    # x0 = 2 and off the band's centre
    proc, bnd, _ = _tilted_offset_case(family)
    levels = (0.8,) if estimate == "fpt" else (0.8, 1.2)
    bounds = [type(bnd)(A=bnd.A * nu / 0.8, B=bnd.B) for nu in levels]
    end = 41.0 if family == "multiplicative" else 1001.0 if estimate == "fpt" else 401.0
    grid = np.linspace(1.0, end, 801)
    coord = proc.coord(2.1, 1.0)
    daniels = [DanielsBoundary(d1=d, d2=c) for c, d in map(coord.line, bounds)]
    fns = [boundary_fns(proc, b, 2.1, 1.0) for b in bounds]
    if estimate == "fpt":
        closed = fpt_pdf_closed(proc, *bounds, 2.1, 1.0, grid[1:])
        lines, calls = (volterra_fpt(proc, *sides, 2.1, 1.0, grid).values[1:]
                        for sides in (bounds, fns))
        want = closed
    else:
        closed = fet_pdf_closed(proc, *bounds, 2.1, 1.0, grid[1:])
        lines, calls = (volterra_fet(proc, *sides, 2.1, 1.0, grid)[2].values[1:]
                        for sides in (bounds, fns))
        want = volterra_fet(coord.spec, *daniels, 0.0, 1.0, grid)[2].values[1:]
        assert np.max(np.abs(want - closed)) <= 1e-9 * closed.max()
    peak = closed.max()
    assert 0 < closed.argmax() < closed.size - 1
    assert np.max(np.abs(lines - want)) <= 1e-14 * peak
    assert np.max(np.abs(calls - want)) <= 1e-12 * peak
