import hashlib
import math
import os

import numpy as np
import pytest
from scipy.stats import norm

from growthfpt import (AffineGMBoundary, ConfigError, DensityCurve,
                       EmptySample, ExpBoundary, GeneralBoundary,
                       GrowthParams, LognormalProcess, OUProcess, SimConfig,
                       StartOutsideBand, density_distance, estimate_fet,
                       estimate_fpt, fpt_pdf_lognormal, simulate_paths,
                       transition_law_G, transition_law_L, x_eval)
from growthfpt.growth_curve import _g
from growthfpt.montecarlo import BLOCK0, CHUNK, EmpiricalHittingSample, _chunk_rng
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

    @pytest.mark.parametrize("run", ["simulate_paths", "estimate_fpt",
                                     "estimate_fet"])
    def test_seed_reproducibility_across_thread_counts(self, run, monkeypatch):
        proc = OUProcess(PARAMS, 0.1)
        cfg = SimConfig(dt=0.25, horizon=5.0, n_paths=4096, seed=77)
        scale = PARAMS.x0 * _g(PARAMS, 0.0)
        lower = AffineGMBoundary(A=0.97 * scale)
        upper = AffineGMBoundary(A=1.03 * scale, B=0.01)
        calls = {
            "simulate_paths": lambda: simulate_paths(proc, cfg)[1],
            "estimate_fpt": lambda: estimate_fpt(proc, upper, cfg),
            "estimate_fet": lambda: estimate_fet(proc, lower, upper, cfg),
        }
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("GROWTHFPT_THREADS", threads)
            outs.append(calls[run]())
        a, b = outs
        if run == "simulate_paths":
            assert np.array_equal(a, b)
            return
        # both sides of the band, and censored paths, must be present
        assert 0 < a.censored_count < cfg.n_paths
        if run == "estimate_fet":
            assert set(a.exit_sides) == {"lower", "upper"}
            assert np.array_equal(a.exit_sides, b.exit_sides)
        assert np.array_equal(a.hit_times, b.hit_times)
        assert a.censored_count == b.censored_count

    def test_partial_last_chunk_is_a_prefix(self):
        # a chunk's rows are a fixed prefix of its stream, whatever the rows
        proc = LognormalProcess(PARAMS, 0.1)
        short = simulate_paths(proc, SimConfig(dt=0.25, horizon=5.0, n_paths=1500, seed=4))[1]
        full = simulate_paths(proc, SimConfig(dt=0.25, horizon=5.0, n_paths=2048, seed=4))[1]
        assert np.array_equal(short, full[:1500])

    def test_chunk_streams_keyed_by_seed_and_chunk(self):
        def draws(seed, chunk):
            return _chunk_rng(seed, chunk).standard_normal(8)

        assert np.array_equal(draws(5, 3), draws(5, 3))
        assert not np.array_equal(draws(1, 0), draws(1, 1))
        assert not np.array_equal(draws(1, 0), draws(2, 0))
        # a negative seed is masked to 64 bits
        assert np.array_equal(draws(-1, 0), draws(2 ** 64 - 1, 0))
        proc = LognormalProcess(PARAMS, 0.1)
        cfg = SimConfig(dt=0.5, horizon=5.0, n_paths=10, seed=-7)
        assert np.array_equal(simulate_paths(proc, cfg)[1], simulate_paths(proc, cfg)[1])

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="the platform reports no CPU affinity")
    def test_pool_sized_by_cpu_affinity(self, monkeypatch):
        from growthfpt.montecarlo import _n_threads
        monkeypatch.delenv("GROWTHFPT_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _n_threads() == 1
        monkeypatch.setenv("GROWTHFPT_THREADS", "3")
        assert _n_threads() == 3

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
            lambda t: fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, t), grid, 0.0)
        _, ks = density_distance(sample, curve)
        assert ks < 0.01

    def test_unreachable_boundary_censors_everything(self):
        proc = LognormalProcess(PARAMS, 0.001)
        bnd = ExpBoundary(A=50.0)  # fifty times the mean proportion
        cfg = SimConfig(dt=0.1, horizon=2.0, n_paths=500, seed=3)
        sample = estimate_fpt(proc, bnd, cfg)
        assert sample.hit_times.size == 0
        assert sample.censored_count == cfg.n_paths

    def test_bridge_correction_reduces_bias(self):
        # coarse steps undercount crossings; the within-step correction must
        # land closer to the analytic window mass
        proc = LognormalProcess(PARAMS, 0.02)
        bnd = ExpBoundary(A=1.2)
        target, _ = mass_to_infinity(
            lambda t: fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, t), 400.0)
        base = dict(dt=2.0, horizon=400.0, n_paths=40_000, seed=23)
        frac_on = estimate_fpt(proc, bnd, SimConfig(bridge_correction=True, **base))
        frac_off = estimate_fpt(proc, bnd, SimConfig(bridge_correction=False, **base))
        err_on = abs(frac_on.hit_times.size / 40_000 - target)
        err_off = abs(frac_off.hit_times.size / 40_000 - target)
        assert err_on < err_off

    def test_without_bridge_hits_are_grid_times(self):
        # only crossings seen at the grid points count, at the step's right end
        proc = LognormalProcess(PARAMS, 0.05)
        cfg = SimConfig(dt=0.5, horizon=40.0, n_paths=3000, seed=17,
                        bridge_correction=False)
        t = estimate_fpt(proc, ExpBoundary(A=0.9), cfg).hit_times
        assert t.size > 100
        steps = (t - PARAMS.t0) / cfg.dt
        assert np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-9)
        assert np.all(np.round(steps) >= 1)

    @pytest.mark.parametrize("A,B", [(0.8, -0.1), (1.25, 0.1)])
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_coarse_step_mass_matches_closed_form(self, A, B, dt):
        # a tilted boundary is a line in the log coordinate, where the bridge
        # probability built from both ends of each step is exact: the hit
        # fraction must match the Bachelier-Levy mass at any step size
        sigma, horizon, n = 0.3, 20.0, 200_000
        proc = LognormalProcess(PARAMS, sigma)
        cfg = SimConfig(dt=dt, horizon=horizon, n_paths=n, seed=8)
        sample = estimate_fpt(proc, ExpBoundary(A=A, B=B), cfg)
        # W_t - (B + sigma^2/2) t, variance sigma^2 per unit time, reaching ln A
        a, drift = math.log(A), -(B + 0.5 * sigma ** 2)
        level, mu = abs(a), math.copysign(1.0, a) * drift
        sd = sigma * math.sqrt(horizon)
        mass = (norm.cdf((mu * horizon - level) / sd) + math.exp(2.0 * mu * level / sigma ** 2)
                * norm.cdf((-level - mu * horizon) / sd))
        se = math.sqrt(mass * (1.0 - mass) / n)
        assert abs(sample.hit_times.size / n - mass) <= 3.0 * se

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
            lambda t: fpt_pdf_lognormal(proc, bnd, 2.0, 1.0, t), grid, 1.0)
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
        # a partial last chunk
        "lognormal_band": (estimate_fet, (lognormal, ExpBoundary(A=0.9), ExpBoundary(A=1.1)),
                           SimConfig(dt=0.5, horizon=18.5, n_paths=2500, seed=31)),
        "lognormal_tilted_line": (estimate_fpt, (LognormalProcess(PARAMS, 0.3),
                                                 ExpBoundary(A=0.8, B=-0.1)),
                                  SimConfig(dt=1.0, horizon=20.0, n_paths=2048, seed=8)),
        "no_bridge": (estimate_fpt, (lognormal, ExpBoundary(A=0.9)),
                      SimConfig(dt=0.5, horizon=40.0, n_paths=3000, seed=17,
                                bridge_correction=False)),
    }[case]


# (SHA-256 of hit_times.tobytes(), of the exit sides joined by commas or
# None, censored_count), recorded with the exp-form bridge test
PINNED_SAMPLES = {
    "ou_band": ("f697fb3c1c7747ba38229e8629c6f2e9da0cfd15ca43f2747ae54674bf93168f",
                "4a422a1d58ceed33eea0b23ef3149bc8d78c0f75d1ea3a454beb989e9d0aaaad", 1612),
    "ou_tilted_line": ("b0f3e73bc1cd2f81ce6e6bf8142ff6aec82bdab3c7672a20c13894268c504c4d",
                       None, 809),
    "lognormal_band": ("9c440d84580cec6ef6e24222e828773805ecba628895bca4399bc50dee38ae54",
                       "344887a831d1881e5bd20c4c5419ba9f6292ce927332b91a3454f41521be07f8", 13),
    "lognormal_tilted_line": ("c42c2c6c92ea9ff2ca96dca2b9be1a007063032f5c7ed2cda06da2aee6f65d56",
                              None, 588),
    "no_bridge": ("d9eb0b47729c5d6aac4a41e2a5509fc9c2a1a1313a80093d7318b8abe79277f5",
                  None, 822),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(PINNED_SAMPLES))
def test_pinned_samples(case, threads, monkeypatch):
    # the samples of fixed seeds are a fixed function of the random streams:
    # a faster block step must reproduce them bit for bit
    monkeypatch.setenv("GROWTHFPT_THREADS", threads)
    estimate, args, cfg = _pinned_case(case)
    sample = estimate(*args, cfg)
    sides = (None if sample.exit_sides is None else
             hashlib.sha256(",".join(sample.exit_sides).encode()).hexdigest())
    assert (hashlib.sha256(sample.hit_times.tobytes()).hexdigest(), sides,
            sample.censored_count) == PINNED_SAMPLES[case]


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

    def test_start_on_boundary_rejected(self):
        proc = LognormalProcess(PARAMS, 0.02)
        s1 = ExpBoundary(A=1.0)  # equals x0 at t0
        s2 = ExpBoundary(A=1.2)
        cfg = SimConfig(dt=0.1, horizon=10.0, n_paths=10, seed=0)
        with pytest.raises(StartOutsideBand):
            estimate_fet(proc, s1, s2, cfg)

    def test_sides_and_counts_consistent(self):
        proc = LognormalProcess(PARAMS, 0.02)
        cfg = SimConfig(dt=0.5, horizon=600.0, n_paths=5000, seed=29)
        sample = estimate_fet(proc, ExpBoundary(A=0.8), ExpBoundary(A=1.2), cfg)
        assert sample.exit_sides.shape == sample.hit_times.shape
        assert set(np.unique(sample.exit_sides)) <= {"lower", "upper"}
        assert sample.hit_times.size + sample.censored_count == cfg.n_paths
        assert np.all(np.diff(sample.hit_times) >= 0.0)

    def test_block_edges(self):
        # a partial last chunk and a step count that no time block divides:
        # some paths exit within the first block, some run to the horizon
        proc = LognormalProcess(PARAMS, 0.05)
        cfg = SimConfig(dt=0.5, horizon=18.5, n_paths=2500, seed=31)
        assert cfg.n_paths % CHUNK and round(cfg.horizon / cfg.dt) == 37
        sample = estimate_fet(proc, ExpBoundary(A=0.9), ExpBoundary(A=1.1), cfg)
        t = sample.hit_times
        assert t.size + sample.censored_count == cfg.n_paths
        assert 0 < sample.censored_count and t.min() <= PARAMS.t0 + BLOCK0 * cfg.dt
        steps = (t - PARAMS.t0) / cfg.dt
        on_grid_or_midpoint = np.isclose(2.0 * steps, np.round(2.0 * steps), rtol=0.0,
                                         atol=1e-9)
        assert np.all(on_grid_or_midpoint)
        assert np.all((t > PARAMS.t0) & (t <= PARAMS.t0 + cfg.horizon))
        assert set(np.unique(sample.exit_sides)) == {"lower", "upper"}


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
