import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

from growthfpt import (AffineGMBoundary, ConfigError, DensityCurve,
                       EmptySample, ExpBoundary, GeneralBoundary,
                       GrowthParams, LognormalProcess, OUProcess, SimConfig,
                       density_distance, estimate_fet, estimate_fpt,
                       fet_pdf_closed, fpt_pdf_closed, simulate_paths,
                       transition_law_G, transition_law_L, volterra_fet, x_eval)
from growthfpt.growth_curve import _g
from growthfpt import montecarlo
from growthfpt.montecarlo import (LOG_U_MIN, EmpiricalHittingSample, _hit_clock,
                                  _streams, _strip_stay)
from growthfpt.validate import mass_to_infinity

from conftest import BASE

PARAMS = GrowthParams(p=1.5, **BASE)


class TestSimulatePaths:
    def test_vanishing_noise_tracks_the_curve(self):
        proc = LognormalProcess(PARAMS, 1e-12)
        cfg = SimConfig(dt=0.5, horizon=5.0, n_paths=3, seed=1)
        ts, paths = simulate_paths(proc, cfg)
        det = np.array([x_eval(PARAMS, t) for t in ts])
        assert np.max(np.abs(paths - det[None, :])) < 1e-9

    def test_fewer_paths_are_a_prefix(self):
        # the path normals are one stream, row-major: a smaller ensemble
        # takes its first rows
        proc = LognormalProcess(PARAMS, 0.1)
        short = simulate_paths(proc, SimConfig(dt=0.25, horizon=5.0, n_paths=1500, seed=4))[1]
        full = simulate_paths(proc, SimConfig(dt=0.25, horizon=5.0, n_paths=2048, seed=4))[1]
        assert np.array_equal(short, full[:1500])

    def test_ensemble_mean_matches_curve(self):
        proc = LognormalProcess(PARAMS, 0.02)
        cfg = SimConfig(dt=0.25, horizon=1.0, n_paths=100_000, seed=5)
        ts, paths = simulate_paths(proc, cfg)
        law = transition_law_L(proc, 1.0, 0.0, 1.0)
        se = math.sqrt(law.variance / cfg.n_paths)
        assert abs(float(paths[:, -1].mean()) - x_eval(PARAMS, 1.0)) <= 3.0 * se

    @pytest.mark.parametrize("p,horizon", [(1.5, 10.0), (0.75, 10.0),
                                           (2.0 / 3.0, 10.0), (0.25, 16.0)])
    def test_lognormal_moments_across_regimes(self, p, horizon):
        params = GrowthParams(p=p, **BASE)
        proc = LognormalProcess(params, 0.02)
        cfg = SimConfig(dt=horizon / 5.0, horizon=horizon, n_paths=30_000, seed=9)
        ts, paths = simulate_paths(proc, cfg)
        for j in range(1, ts.size):
            law = transition_law_L(proc, params.x0, params.t0, float(ts[j]))
            col = paths[:, j]
            se_mean = math.sqrt(law.variance / cfg.n_paths)
            assert abs(float(col.mean()) - law.mean) <= 3.0 * se_mean
            # sample variance of a lognormal: se via the fourth moment
            s2 = law.R  # variance of ln X(t)
            m4 = (law.mean ** 4 * (math.exp(6.0 * s2) - 4.0 * math.exp(3.0 * s2)
                                   + 6.0 * math.exp(s2) - 3.0))
            se_var = math.sqrt(max(m4 - law.variance ** 2, 0.0) / cfg.n_paths)
            assert abs(float(col.var(ddof=1)) - law.variance) <= 4.0 * se_var

    def test_ou_moments(self):
        proc = OUProcess(PARAMS, 0.1)
        cfg = SimConfig(dt=0.5, horizon=2.0, n_paths=100_000, seed=19)
        ts, paths = simulate_paths(proc, cfg)
        for j in (1, 4):
            law = transition_law_G(proc, 1.0, 0.0, float(ts[j]))
            se_mean = math.sqrt(law.variance / cfg.n_paths)
            se_var = law.variance * math.sqrt(2.0 / (cfg.n_paths - 1))
            col = paths[:, j]
            assert abs(float(col.mean()) - law.mean) <= 3.0 * se_mean
            assert abs(float(col.var(ddof=1)) - law.variance) <= 3.0 * se_var

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=2.0, horizon=1.0, n_paths=10, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(dt=0.3, horizon=1.0, n_paths=10, seed=0)  # not a multiple
        params = GrowthParams(p=0.25, **BASE)
        proc = OUProcess(params, 0.1)
        with pytest.raises(ConfigError):
            simulate_paths(proc, SimConfig(dt=1.0, horizon=30.0, n_paths=2, seed=0))

    @pytest.mark.parametrize("field,value", [("n_paths", 2.5), ("seed", 1.5),
                                             ("n_paths", True), ("seed", "7")])
    def test_path_count_and_seed_are_integers(self, field, value):
        # each was accepted and then failed inside numpy with a TypeError
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SimConfig(**dict(dict(dt=0.5, horizon=5.0, n_paths=10, seed=0), **{field: value}))
        assert SimConfig(dt=0.5, horizon=5.0, n_paths=np.int64(10), seed=np.int32(3)).n_paths == 10

    @pytest.mark.parametrize("horizon,dt", [(math.inf, 0.1), (1e308, 1e-10)])
    def test_step_count_overflow_is_a_config_error(self, horizon, dt):
        # horizon / dt is inf: no step count, and no OverflowError from round
        with pytest.raises(ConfigError, match="finite step count"):
            SimConfig(dt=dt, horizon=horizon, n_paths=10, seed=0)


class TestEstimateFPT:
    def test_kolmogorov_distance_to_closed_form(self):
        proc = LognormalProcess(PARAMS, 0.02)
        bnd = ExpBoundary(A=0.8)
        cfg = SimConfig(dt=0.2, horizon=150.0, n_paths=20_000, seed=11)
        sample = estimate_fpt(proc, bnd, cfg)
        grid = np.linspace(0.0, 150.0, 3001)
        curve = DensityCurve.from_function(
            lambda t: fpt_pdf_closed(proc, bnd, 1.0, 0.0, t), grid, 0.0)
        _, ks = density_distance(sample, curve)
        assert ks < 0.01

    def test_unreachable_boundary_censors_everything(self):
        # fifty times the mean proportion; on the OU process no hit leaves
        # no time to map, and its clock is never called on no times
        cfg = SimConfig(dt=0.1, horizon=2.0, n_paths=500, seed=3)
        scale = PARAMS.x0 * _g(PARAMS, PARAMS.t0)
        for proc, bnd in ((LognormalProcess(PARAMS, 0.001), ExpBoundary(A=50.0)),
                          (OUProcess(PARAMS, 0.001), AffineGMBoundary(A=50.0 * scale))):
            sample = estimate_fpt(proc, bnd, cfg)
            assert sample.hit_times.size == 0
            assert sample.censored_count == cfg.n_paths

    def test_bridge_correction_reduces_bias(self):
        # coarse steps undercount crossings seen only at the grid points; the
        # estimator must land closer to the analytic window mass than the
        # first grid crossing of simulate_paths' paths
        proc = LognormalProcess(PARAMS, 0.02)
        bnd = ExpBoundary(A=1.2)
        target, _ = mass_to_infinity(
            lambda t: fpt_pdf_closed(proc, bnd, 1.0, 0.0, t), 400.0)
        cfg = SimConfig(dt=2.0, horizon=400.0, n_paths=40_000, seed=23)
        estimated = estimate_fpt(proc, bnd, cfg).hit_times.size / cfg.n_paths
        ts, paths = simulate_paths(proc, cfg)
        on_grid = np.mean(np.any(paths >= 1.2 * x_eval(PARAMS, ts), axis=1))
        assert abs(estimated - target) < abs(on_grid - target)

    @staticmethod
    def _assert_coarse_step_law(sigma, A, B, dt, horizon, n):
        # a tilted boundary is a line in the log coordinate, where the bridge
        # probability built from both ends of each step is exact: the hit
        # fraction must match the Bachelier-Levy mass at any step size, and
        # so must the hits of each step the mass of its cell
        proc = LognormalProcess(PARAMS, sigma)
        cfg = SimConfig(dt=dt, horizon=horizon, n_paths=n, seed=8)
        sample = estimate_fpt(proc, ExpBoundary(A=A, B=B), cfg)
        # W_t - (B + sigma^2/2) t, variance sigma^2 per unit time, reaching ln A
        a, drift = math.log(A), -(B + 0.5 * sigma ** 2)
        level, mu = abs(a), math.copysign(1.0, a) * drift

        def mass(t):
            sd = sigma * np.sqrt(t)
            return (norm.cdf((mu * t - level) / sd) + math.exp(2.0 * mu * level / sigma ** 2)
                    * norm.cdf((-level - mu * t) / sd))

        p = float(mass(horizon))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(sample.hit_times.size / n - p) <= 3.0 * se
        # a hit in step k is recorded at its midpoint or its right end
        n_steps = round(horizon / dt)
        k = np.ceil((sample.hit_times - PARAMS.t0) / dt - 1e-9).astype(int) - 1
        observed = np.append(np.bincount(k, minlength=n_steps), sample.censored_count)
        cdf = np.append(0.0, mass(dt * np.arange(1, n_steps + 1)))
        expected = n * np.append(np.diff(cdf), 1.0 - cdf[-1])
        assert observed.size == n_steps + 1
        # cells pooled in time order until each expects at least 5 paths; a
        # short remainder joins the last cell
        o, e, cells = 0.0, 0.0, []
        for oi, ei in zip(observed, expected):
            o, e = o + oi, e + ei
            if e >= 5.0:
                cells.append((o, e))
                o = e = 0.0
        cells[-1] = (cells[-1][0] + o, cells[-1][1] + e)
        o, e = np.array(cells).T
        assert chi2.sf(np.sum((o - e) ** 2 / e), o.size - 1) > 1e-3

    # the last case is a line most paths stay well away from
    COARSE_STEP_CASES = [(0.3, 0.8, -0.1, 0.5, 20.0), (0.3, 1.25, 0.1, 0.5, 20.0),
                         (0.3, 0.8, -0.1, 1.0, 20.0), (0.3, 1.25, 0.1, 1.0, 20.0),
                         (0.015, 1.2, 0.0, 0.5, 60.0)]

    @pytest.mark.parametrize("sigma,A,B,dt,horizon", COARSE_STEP_CASES,
                             ids=[f"{dt}-{A}-{B}" for _, A, B, dt, _ in COARSE_STEP_CASES])
    def test_coarse_step_mass_matches_closed_form(self, sigma, A, B, dt, horizon):
        self._assert_coarse_step_law(sigma, A, B, dt, horizon, 200_000)

    @pytest.mark.parametrize("sigma,A,B,dt,horizon", [
        (0.3, 0.8, -0.1, 1.0, 20.0), (0.3, 0.8, -0.1, 0.5, 20.0),
        (0.3, 1.25, 0.1, 1.0, 20.0), (0.3, 1.25, 0.1, 0.5, 20.0),
        (0.015, 1.2, 0.0, 0.5, 60.0)])
    def test_coarse_step_hit_times_follow_the_closed_form(self, sigma, A, B, dt, horizon):
        # hit times drawn from the bridge's law, not put at a step's
        # midpoint: the sub-CDF lies within the DKW bound at alpha = 1e-3
        # of the Bachelier-Levy mass at any step size
        n = 200_000
        sample = estimate_fpt(LognormalProcess(PARAMS, sigma), ExpBoundary(A=A, B=B),
                              SimConfig(dt=dt, horizon=horizon, n_paths=n, seed=8))
        a, drift = math.log(A), -(B + 0.5 * sigma ** 2)
        level, mu = abs(a), math.copysign(1.0, a) * drift
        t = sample.hit_times - PARAMS.t0
        sd = sigma * np.sqrt(t)
        mass = (norm.cdf((mu * t - level) / sd) + math.exp(2.0 * mu * level / sigma ** 2)
                * norm.cdf((-level - mu * t) / sd))
        # the empirical sub-CDF just before and at each hit
        k = np.arange(t.size)
        ks = max(np.max(np.abs(k / n - mass)), np.max(np.abs((k + 1) / n - mass)))
        assert ks <= math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))

    def test_ou_hit_times_follow_the_closed_form(self):
        # the OU clock is far from linear over a step of 0.5 (its rate falls
        # fivefold over the first one), so a hit's clock time must be
        # mapped to a time by the clock itself, not by the grid's chords
        proc = OUProcess(PARAMS, 0.1)
        bnd = AffineGMBoundary(A=1.1 * PARAMS.x0 * _g(PARAMS, PARAMS.t0), B=0.01)
        sample = estimate_fpt(proc, bnd, SimConfig(dt=0.5, horizon=30.0, n_paths=100_000,
                                                   seed=9))
        grid = np.linspace(0.0, 30.0, 120_001)
        curve = DensityCurve.from_function(
            lambda t: fpt_pdf_closed(proc, bnd, PARAMS.x0, PARAMS.t0, t), grid, PARAMS.t0)
        _, ks = density_distance(sample, curve)
        assert ks <= math.sqrt(math.log(2.0 / 1e-3) / (2.0 * sample.n_paths))

    @pytest.mark.parametrize("case", ["lognormal_gate", "ou_band"])
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_band_hit_times_follow_the_closed_form(self, case, dt):
        # sides of one slope exit by the strip's law given each path's ends,
        # whatever dt: the exit mass within 3 standard errors and the sub-CDF
        # within the DKW bound at alpha = 1e-3.  On a grid of these steps a
        # lognormal gate path can cross both sides within a step, and the
        # OU clock's rate falls fivefold over the first one
        if case == "lognormal_gate":
            proc, horizon, seed = LognormalProcess(PARAMS, 0.3), 2.0, 8
            lower, upper = ExpBoundary(A=0.8), ExpBoundary(A=1.25)
        else:
            proc, horizon, seed = OUProcess(PARAMS, 0.19), 30.0, 9
            lower, upper = proc.mean_boundary(0.8), proc.mean_boundary(1.2)
        n = 200_000
        sample = estimate_fet(proc, lower, upper,
                              SimConfig(dt=dt, horizon=horizon, n_paths=n, seed=seed))
        grid = PARAMS.t0 + np.linspace(0.0, horizon, 120_001)
        curve = DensityCurve.from_function(
            lambda t: fet_pdf_closed(proc, lower, upper, PARAMS.x0, PARAMS.t0, t), grid,
            PARAMS.t0)
        p = float(curve.cumulative()[-1])
        assert abs(sample.hit_times.size / n - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
        _, ks = density_distance(sample, curve)
        assert ks <= math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))

    def test_reproducible(self):
        proc = LognormalProcess(PARAMS, 0.02)
        bnd = ExpBoundary(A=0.8)
        cfg = SimConfig(dt=0.5, horizon=50.0, n_paths=2000, seed=101)
        a = estimate_fpt(proc, bnd, cfg)
        b = estimate_fpt(proc, bnd, cfg)
        assert np.array_equal(a.hit_times, b.hit_times)
        assert a.censored_count == b.censored_count

    def test_offset_start_time(self):
        # t0 = 1 with a tilted boundary: hit times live in (t0, t0 + horizon]
        params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=2.0, t0=1.0)
        proc = LognormalProcess(params, 0.03)
        bnd = ExpBoundary(A=0.8 * 2.0 * math.exp(-0.002), B=0.002)
        cfg = SimConfig(dt=0.2, horizon=80.0, n_paths=20_000, seed=404)
        sample = estimate_fpt(proc, bnd, cfg)
        assert sample.hit_times.min() > 1.0
        assert sample.hit_times.max() <= 81.0
        grid = np.linspace(1.0, 81.0, 2001)
        curve = DensityCurve.from_function(
            lambda t: fpt_pdf_closed(proc, bnd, 2.0, 1.0, t), grid, 1.0)
        _, ks = density_distance(sample, curve)
        assert ks < 0.01


@pytest.mark.parametrize("case", ["exp_on_ou", "affine_on_lognormal", "general"])
@pytest.mark.parametrize("estimate", ["fpt", "fet"])
def test_estimators_take_only_the_process_lines(case, estimate):
    # the bridge is exact for the lines of the process's own boundary family
    # and for nothing else
    proc = {"exp_on_ou": OUProcess, "affine_on_lognormal": LognormalProcess,
            "general": LognormalProcess}[case](PARAMS, 0.1)
    bnd = {"exp_on_ou": ExpBoundary(A=0.8),
           "affine_on_lognormal": AffineGMBoundary(A=0.8 * _g(PARAMS, 0.0)),
           "general": GeneralBoundary(s=lambda t: 0.8, s_dot=lambda t: 0.0)}[case]
    cfg = SimConfig(dt=0.5, horizon=5.0, n_paths=10, seed=0)
    with pytest.raises(ConfigError):
        if estimate == "fpt":
            estimate_fpt(proc, bnd, cfg)
        else:
            estimate_fet(proc, bnd, bnd, cfg)


@pytest.mark.parametrize("run", ["simulate_paths", "line", "two_slopes", "strip"])
def test_samples_do_not_depend_on_the_piece_size(run, monkeypatch):
    # pieces of 400 values (a partial last piece of 300 paths under one
    # step per path, of 18 paths of simulate_paths, 21 values wide), one
    # piece for the whole ensemble, and pieces of one row, which split every
    # proposal round down to its last path
    proc = OUProcess(PARAMS, 0.1)
    cfg = SimConfig(dt=0.25, horizon=5.0, n_paths=1500, seed=77)
    scale = PARAMS.x0 * _g(PARAMS, 0.0)
    lower = AffineGMBoundary(A=0.97 * scale)
    upper = AffineGMBoundary(A=1.03 * scale, B=0.01)
    calls = {
        "simulate_paths": lambda cfg: simulate_paths(proc, cfg)[1],
        "line": lambda cfg: estimate_fpt(proc, upper, cfg),
        "two_slopes": lambda cfg: estimate_fet(proc, lower, upper, cfg),
        "strip": lambda cfg: estimate_fet(
            proc, AffineGMBoundary(A=0.97 * scale, B=0.01), upper, cfg),
    }
    outs = []
    for piece in (400, 2 ** 30, 1):
        monkeypatch.setattr(montecarlo, "PIECE", piece)
        outs.append(calls[run](cfg))
    # a negative seed is taken modulo 2**64
    outs.append(calls[run](dataclasses.replace(cfg, seed=cfg.seed - 2 ** 64)))
    a = outs[0]
    for b in outs[1:]:
        if run == "simulate_paths":
            assert np.array_equal(a, b)
            continue
        # both sides of the band, and censored paths, must be present
        assert 0 < a.censored_count < cfg.n_paths
        if a.exit_sides is not None:
            assert set(a.exit_sides) == {"lower", "upper"}
            assert np.array_equal(a.exit_sides, b.exit_sides)
        assert np.array_equal(a.hit_times, b.hit_times)
        assert a.censored_count == b.censored_count
        assert a.path_steps == b.path_steps
    if run in ("line", "two_slopes", "strip"):
        assert a.path_steps == cfg.n_paths


def _pinned_case(case):
    """(estimator, args, config) of a fixed-seed pinned-sample case."""
    scale = PARAMS.x0 * _g(PARAMS, 0.0)
    ou, lognormal = OUProcess(PARAMS, 0.19), LognormalProcess(PARAMS, 0.05)
    return {
        # the additive benchmark's band exits: most bridge exponents are
        # at or below -708, where exp underflows
        "ou_band": (estimate_fet, (ou, ou.mean_boundary(0.8), ou.mean_boundary(1.2)),
                    SimConfig(dt=0.5, horizon=30.0, n_paths=2048, seed=5)),
        "ou_tilted_line": (estimate_fpt, (OUProcess(PARAMS, 0.1),
                                          AffineGMBoundary(A=1.03 * scale, B=0.01)),
                           SimConfig(dt=0.25, horizon=5.0, n_paths=2048, seed=77)),
        "lognormal_band": (estimate_fet, (lognormal, ExpBoundary(A=0.9), ExpBoundary(A=1.1)),
                           SimConfig(dt=0.5, horizon=18.5, n_paths=2500, seed=31)),
        # sides of two slopes, one slope apart in the clock s = R/(1 + kR)
        "tilted_band": (estimate_fet, (lognormal, ExpBoundary(A=0.9),
                                       ExpBoundary(A=1.1, B=0.002)),
                        SimConfig(dt=0.5, horizon=18.5, n_paths=2500, seed=31)),
        "lognormal_tilted_line": (estimate_fpt, (LognormalProcess(PARAMS, 0.3),
                                                 ExpBoundary(A=0.8, B=-0.1)),
                                  SimConfig(dt=1.0, horizon=20.0, n_paths=2048, seed=8)),
    }[case]


# (SHA-256 of hit_times.tobytes(), of the exit sides joined by commas or
# None, censored_count).  Each kind of draw has its own SFC64 stream, spawned
# in a fixed order from the seed (_streams), and takes it in path order over
# the whole ensemble.  Every case takes one step per path (_strip_hits): one
# normal per path, one uniform per candidate, then per proposal round the
# side uniforms (a band only), each hit time's normal and uniform and the
# accept uniforms (a band only).  A band of two slopes (tilted_band) runs
# this in the clock s in which its sides have one slope, and maps each hit's
# s to R = s/(1 - ks); each hit's clock time maps to a time by Newton's
# method on the clock
PINNED_SAMPLES = {
    "ou_band": ("0f421bdd0bb37179297aec50c02a46b8bf332ad76d11eef5a73c8d4e15549b13",
                "d8afe83679245d9aa0e554598191b4c88438a71009616a516b1b04bbb0d24fb4", 1590),
    "ou_tilted_line": ("42973e6e0db4e11707fe5133b219f33764a457f37a395c83f02fc4fdc9b64afe",
                       None, 785),
    "lognormal_band": ("4586c64e3540928ffda85378ae165778bf343d899096a6098c766d67094ac4af",
                       "7ab91bd21308b4ed9a358ff0bef928260e6c82527775506f949868e2cb87a134", 15),
    "lognormal_tilted_line": ("2442f7d696084caed816823e05d9db0b3044f0d2cdfe001fc1cc5b9114542b02",
                              None, 554),
    "tilted_band": ("5b3de4a188e095234a7622465bbe34d67f8824767286cd1d3d4b7bc4edcb1bab",
                    "43f9707a19fe997c5cf5599fbbbd7a7bb6821cc97c08e5651cfd8114a9b04d4f", 28),
}


@pytest.mark.parametrize("calls", [1, 2])
@pytest.mark.parametrize("case", sorted(PINNED_SAMPLES))
def test_pinned_samples(case, calls):
    # the samples of fixed seeds are a fixed function of the random streams:
    # a faster sampler must reproduce them bit for bit, and a second call
    # in the same process draws its streams afresh from the seed
    estimate, args, cfg = _pinned_case(case)
    for _ in range(calls):
        sample = estimate(*args, cfg)
        sides = (None if sample.exit_sides is None else
                 hashlib.sha256(",".join(sample.exit_sides).encode()).hexdigest())
        assert (hashlib.sha256(sample.hit_times.tobytes()).hexdigest(), sides,
                sample.censored_count) == PINNED_SAMPLES[case]


@pytest.mark.parametrize("case", ["tilted_band", "far_line", "lognormal_band"])
def test_path_steps_count_the_steps_simulated(case):
    # a line, or a band of either one slope or two, takes each path to the
    # horizon in one step, whatever dt
    if case == "far_line":
        estimate, args = estimate_fpt, (LognormalProcess(PARAMS, 0.015), ExpBoundary(A=1.2))
        cfg = SimConfig(dt=0.5, horizon=60.0, n_paths=5000, seed=3)
    else:
        estimate, args, cfg = _pinned_case(case)
    sample = estimate(*args, cfg)
    assert 0 < sample.hit_times.size < cfg.n_paths
    assert sample.path_steps == cfg.n_paths


@pytest.mark.parametrize("b", [0.0, -0.0, 1e-300, -1e-300, 5e-324])
def test_hit_clock_is_in_the_clock_span_for_an_end_on_the_line(b):
    # the mean a/|b| is infinite or 1e300: the draw takes the bridge's limit
    # there, so each hit still gets a time
    V = 2.0
    tau = _hit_clock(0.5, np.full(1000, b), V, *_streams(3, 2))
    assert np.all(np.isfinite(tau)) and np.all((tau > 0.0) & (tau <= V))


class _Draws:
    """Stands in for a generator: returns the given values, as normals or
    as uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, size):
        return self.values[:size]

    random = standard_normal


# phi: (z, u, tau) of a hit at a = 0.001, V = 1 and end distance b = 1000 phi
# from the normal z and the uniform u, by Michael, Schucany and Haas in
# 50-digit mpmath: x = 1 + y/(2 phi) - sqrt(4 phi y + y^2)/(2 phi), y = z^2,
# X = x where u <= 1/(1 + x), else 1/x (1/x in the first case of each phi),
# U = (a/b) X and tau = V U/(1 + U).  numpy's wald, on the same normal,
# misses x by up to 3.6e-5 relative (phi 1e-5, z = 3)
HIT_CLOCK_VALUES = {
    1e-5: [(0.01, 0.999, 0.5437140173348243), (0.3, 0.25, 1.1108519260395432e-05),
           (3.0, 0.25, 1.1111085185259397e-07)],
    1e-4: [(0.01, 0.999, 0.025512416161051304), (0.3, 0.25, 1.1086365218662364e-05),
           (3.0, 0.25, 1.1110862969876466e-07)],
    1e-3: [(0.01, 0.999, 0.0013682814525398563), (0.3, 0.25, 1.0870731558235782e-05),
           (3.0, 0.25, 1.1108641426947106e-07)],
}


@pytest.mark.parametrize("phi", sorted(HIT_CLOCK_VALUES))
def test_hit_clock_is_the_exact_root(phi):
    z, u, tau = np.array(HIT_CLOCK_VALUES[phi]).T
    got = _hit_clock(0.001, np.full(z.size, 1000.0 * phi), 1.0, _Draws(z), _Draws(u))
    assert np.max(np.abs(got - tau) / tau) <= 1e-14


def test_strip_stay_in_the_clock_s_is_the_two_line_bridge_series():
    # a bridge over [0, V] from 0 to an end at distance b above the lower of
    # two lines whose band narrows or widens from L0 to LV is, in the clock
    # s = R/(1 + kR), k = (LV - L0)/(L0 V), a bridge over [0, V L0/LV] to the
    # distance b L0/LV in a strip of width L0: its stay probability must be
    # Anderson's (1960) series for two lines of any slopes, term by term;
    # to |n| = 200 it omits below e^-40 at the narrowest, longest draw
    rng = np.random.default_rng(38)
    n = np.arange(-200, 201.0)
    worst = 0.0
    for _ in range(2000):
        L0, V = rng.uniform(0.1, 2.0), rng.uniform(0.01, 4.0)
        LV = L0 * rng.uniform(0.2, 5.0)
        a, b = L0 * rng.uniform(0.01, 0.99), LV * rng.uniform(0.01, 0.99)
        series = np.sum(np.exp(-2.0 * n * (n * L0 * LV + L0 * b - LV * a) / V)
                        - np.exp(-2.0 * (n * L0 + a) * (n * LV + b) / V))
        got = _strip_stay(a, np.array([b * L0 / LV]), V * L0 / LV, L0)[0]
        worst = max(worst, abs(got - series))
    assert worst <= 1e-14


def test_log_u_min_is_the_log_of_the_smallest_positive_uniform():
    # random() returns integer multiples of 2**-53 below 1, so a positive
    # draw has log u >= LOG_U_MIN: a step whose exponent lies at or below
    # it can fire only on a drawn 0
    k = _streams(3, 1)[0].random(10 ** 6) * 2.0 ** 53
    assert np.array_equal(k, np.floor(k)) and k.max() < 2.0 ** 53
    assert LOG_U_MIN == np.log(2.0 ** -53)


class TestEstimateFET:
    def _wiener_band_process(self, sigma=1.0):
        # boundaries whose log-coordinate images are the constant levels +-1
        proc = LognormalProcess(PARAMS, sigma)
        s1 = ExpBoundary(A=math.exp(-1.0), B=-sigma ** 2 / 2.0)
        s2 = ExpBoundary(A=math.exp(1.0), B=-sigma ** 2 / 2.0)
        return proc, s1, s2

    def test_symmetric_band_exit_statistics(self):
        proc, s1, s2 = self._wiener_band_process()
        cfg = SimConfig(dt=0.01, horizon=14.0, n_paths=20_000, seed=13)
        sample = estimate_fet(proc, s1, s2, cfg)
        assert sample.censored_count < 20
        mean = float(sample.hit_times.mean())
        # Var(T) = 2/3 for the unit symmetric band at unit variance rate
        se = math.sqrt(2.0 / 3.0 / sample.hit_times.size)
        assert abs(mean - 1.0) <= 3.0 * se
        n_up = int(np.sum(sample.exit_sides == "upper"))
        n = sample.hit_times.size
        assert abs(n_up / n - 0.5) <= 3.0 * 0.5 / math.sqrt(n)

    def test_sides_and_counts_consistent(self):
        proc = LognormalProcess(PARAMS, 0.02)
        cfg = SimConfig(dt=0.5, horizon=600.0, n_paths=5000, seed=29)
        sample = estimate_fet(proc, ExpBoundary(A=0.8), ExpBoundary(A=1.2), cfg)
        assert sample.exit_sides.shape == sample.hit_times.shape
        assert set(np.unique(sample.exit_sides)) <= {"lower", "upper"}
        assert sample.hit_times.size + sample.censored_count == cfg.n_paths
        assert np.all(np.diff(sample.hit_times) >= 0.0)

    @staticmethod
    def _two_slope_band(case):
        """(process, lower, upper, horizon, seed) of a band of two slopes:
        in the coordinate the lognormal band at sigma = 1 has sides
        -1 - 0.05 R and 0.8 + 0.1 R, and widens from 1.8 to 3.0; the OU band
        sides -0.21 + 6 R and 0.21 - 12 R, and narrows from 0.42 to 0.11.
        The seeds were picked once."""
        if case == "diverging":
            return (LognormalProcess(PARAMS, 1.0), ExpBoundary(A=math.exp(-1.0), B=-0.55),
                    ExpBoundary(A=math.exp(0.8), B=-0.4), 8.0, 3801)
        scale = PARAMS.x0 * _g(PARAMS, PARAMS.t0)
        return (OUProcess(PARAMS, 0.19), AffineGMBoundary(A=0.8 * scale, B=6.0),
                AffineGMBoundary(A=1.2 * scale, B=-12.0), 30.0, 3802)

    @pytest.mark.parametrize("case", ["diverging", "converging"])
    def test_two_slopes_exit_by_the_band_law(self, case):
        # sides of two slopes exit in one step per path by the law of the
        # band of one slope that the clock s = R/(1 + kR) maps them to: each
        # side's mass within 3 standard errors of the coupled Volterra
        # solution's, and the sub-CDF within the DKW bound at alpha = 1e-3
        proc, lower, upper, horizon, seed = self._two_slope_band(case)
        n = 200_000
        cfg = SimConfig(dt=0.5, horizon=horizon, n_paths=n, seed=seed)
        sample = estimate_fet(proc, lower, upper, cfg)
        assert sample.path_steps == n
        assert set(sample.exit_sides) == {"lower", "upper"}
        curves = volterra_fet(proc, lower, upper, PARAMS.x0, PARAMS.t0,
                              PARAMS.t0 + np.linspace(0.0, horizon, 2001))
        for side, curve in zip(("lower", "upper"), curves):
            p = curve.mass
            share = np.count_nonzero(sample.exit_sides == side) / n
            assert abs(share - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
        _, ks = density_distance(sample, curves[2])
        assert ks <= math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))


class TestDensityDistance:
    def _gaussian_curve(self, mean, lo, hi, n=4001):
        ts = np.linspace(lo, hi, n)
        return DensityCurve(times=ts, values=norm.pdf(ts, loc=mean, scale=1.0))

    def _quantile_sample(self, mean, n=100_000):
        qs = (np.arange(n) + 0.5) / n
        return EmpiricalHittingSample(
            hit_times=norm.ppf(qs, loc=mean, scale=1.0),
            exit_sides=None, censored_count=0, n_paths=n)

    def test_self_distance_vanishes(self):
        sample = self._quantile_sample(0.0)
        curve = self._gaussian_curve(0.0, -8.0, 8.0)
        l1, ks = density_distance(sample, curve, bins=200)
        assert l1 < 1e-3  # residual is pure histogram-binning bias
        assert ks < 1e-4

    def test_unit_mean_shift_l1(self):
        # exact overlap distance between N(0,1) and N(1,1): 2(2 Phi(1/2) - 1)
        sample = self._quantile_sample(0.0)
        curve = self._gaussian_curve(1.0, -8.0, 9.0)
        l1, _ = density_distance(sample, curve, bins=400)
        expected = 2.0 * (2.0 * norm.cdf(0.5) - 1.0)
        assert expected == pytest.approx(0.76584985, abs=1e-8)
        assert l1 == pytest.approx(expected, abs=5e-3)

    def test_empty_sample_raises(self):
        curve = self._gaussian_curve(0.0, -8.0, 8.0)
        empty = EmpiricalHittingSample(hit_times=np.array([]), exit_sides=None,
                                       censored_count=10, n_paths=10)
        with pytest.raises(EmptySample):
            density_distance(empty, curve)
