"""End-to-end acceptance checks.

Every check prints one [PASS]/[FAIL] line (visible with `pytest -s` or on
failure) and then asserts.  Tolerances are fixed here, not tuned at runtime.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from growthfpt import (AffineGMBoundary, DanielsBoundary,
                       DensityCurve, ExpBoundary, GeneralBoundary,
                       GrowthParams, LognormalProcess, OUProcess,
                       ProportionalBand, SimConfig, daniels_boundary_fns,
                       density_distance, domain_end, estimate_fet,
                       estimate_fpt, fet_pdf_lognormal_band,
                       fet_pdf_wiener_symmetric, fpt_pdf_gm_closed, fpt_pdf_lognormal, fpt_pdf_ou,
                       gm_spec_G, integrate_adaptive, psi_kernel,
                       simulate_paths, transition_law_G, volterra_fpt,
                       wiener_spec, x_eval)
from growthfpt.fpt import affine_gm_boundary_fns
from growthfpt.growth_curve import _g
from growthfpt.validate import direct_solution, mass_to_infinity

from conftest import BASE, random_valid_params

P15 = GrowthParams(p=1.5, **BASE)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def rk4(f, x0, t0, t1, steps):
    xs = [x0]
    h = (t1 - t0) / steps
    x = x0
    t = t0
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        xs.append(x)
    return np.array(xs)


def native_rate(params: GrowthParams):
    def f(x):
        return (params.gamma * params.k ** (params.n * (params.p - 1.0))
                * x ** (1.0 + params.n * (1.0 - params.p))
                * (1.0 - (x / params.k) ** params.n) ** params.p)
    return f


# --------------------------------------------------------------------------
# 1. curve equivalence: reparametrized vs native solution, and vs the ODE
# --------------------------------------------------------------------------

def test_curve_equivalence():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        params = random_valid_params(rng)
        t_star = domain_end(params).t_star
        hi = params.t0 + min(10.0, 0.8 * (t_star - params.t0))
        for t in rng.uniform(params.t0, hi, size=20):
            a = x_eval(params, float(t))
            b = direct_solution(params, float(t))
            worst = max(worst, abs(a - b) / abs(b))
    ok_param = worst <= 1e-10

    worst_ode = 0.0
    windows = {1.5: 10.0, 1.0: 10.0, 0.75: 14.0, 2.0 / 3.0: 14.0, 0.25: 20.0}
    for p, hi in windows.items():
        params = GrowthParams(p=p, **BASE)
        sol = rk4(native_rate(params), params.x0, 0.0, hi, 40_000)
        probes = np.linspace(0.0, hi, 101)
        for t in probes[1:]:
            idx = int(round(t / hi * 40_000))
            a = x_eval(params, float(t))
            worst_ode = max(worst_ode, abs(a - sol[idx]) / abs(a))
    ok_ode = worst_ode <= 1e-6

    report("criterion 1 (curve equivalence)", ok_param and ok_ode,
           f"reparam max rel {worst:.2e} (<=1e-10), "
           f"RK4 max rel {worst_ode:.2e} (<=1e-6)")
    assert ok_param and ok_ode


# --------------------------------------------------------------------------
# 2. regime reproduction
# --------------------------------------------------------------------------

def test_regime_reproduction():
    # sigmoid: monotone rise to within 1% of the carrying capacity
    params = GrowthParams(p=1.5, **BASE)
    ts = np.linspace(0.0, 40.0, 2001)
    xs = np.array([x_eval(params, t) for t in ts])
    ok_sig = bool(np.all(np.diff(xs) >= -1e-12) and xs[-1] >= 0.99 * 20.0)

    # even integer exponent: peak near k then monotone decay below x0 by t=40
    params = GrowthParams(p=0.75, **BASE)
    xs = np.array([x_eval(params, t) for t in ts])
    ipk = int(np.argmax(xs))
    ok_decay = bool(xs[ipk] > 0.99 * 20.0
                    and np.all(np.diff(xs[ipk:]) <= 1e-10)
                    and x_eval(params, 40.0) < 1.0)

    # odd integer exponent: plateau near k, then unbounded increase (the
    # curve blows up at a finite time just past t = 22)
    params = GrowthParams(p=2.0 / 3.0, **BASE)
    plateau = x_eval(params, 16.0)
    rising = [x_eval(params, t) for t in (17.0, 19.0, 20.8, 21.5, 21.9)]
    ok_growth = bool(abs(plateau - 20.0) < 0.25
                     and all(b > a for a, b in zip(rising, rising[1:]))
                     and max(rising) > 2.0 * 20.0)

    # non-integer exponent: the curve attains k at a finite, known time
    params = GrowthParams(p=0.25, **BASE)
    t_star = domain_end(params).t_star
    ok_ceiling = bool(abs(t_star - 24.267) <= 1e-3
                      and x_eval(params, t_star) == 20.0
                      and abs(x_eval(params, t_star - 1e-5) - 20.0) < 1e-3)

    ok = ok_sig and ok_decay and ok_growth and ok_ceiling
    report("criterion 2 (regime reproduction)", ok,
           f"sigmoid {ok_sig}, decay {ok_decay}, growth-to-blow-up {ok_growth}, "
           f"ceiling t*={t_star:.5f} {ok_ceiling}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the odd-integer regime's curve diverges at t ~= 22.01 and its real "
           "continuation at t = 40 is negative (~ -0.318); a pointwise probe at "
           "t = 40 therefore cannot exceed 2k.  The regime's actual behaviour "
           "(plateau, then unbounded increase past 2k before the blow-up) is "
           "asserted in test_regime_reproduction.")
def test_regime_plateau_growth_pointwise_probe_at_40():
    params = GrowthParams(p=2.0 / 3.0, **BASE)
    val = x_eval(params, 40.0)
    ok = val > 2.0 * 20.0
    report("criterion 2 (p=2/3 pointwise x(40) > 2k)", ok, f"x(40) = {val:.4f}")
    assert ok


# --------------------------------------------------------------------------
# 3. passage-time mass identities for the proportional boundary
# --------------------------------------------------------------------------

def test_fpt_mass_identities():
    proc = LognormalProcess(P15, 0.02)
    m08 = mass_to_infinity(
        lambda t: fpt_pdf_lognormal(proc, ExpBoundary(A=0.8), 1.0, 0.0, t))
    m12 = mass_to_infinity(
        lambda t: fpt_pdf_lognormal(proc, ExpBoundary(A=1.2), 1.0, 0.0, t))
    ts = np.linspace(20.0, 70.0, 5001)
    vals = [fpt_pdf_lognormal(proc, ExpBoundary(A=0.8), 1.0, 0.0, float(t))
            for t in ts]
    mode = float(ts[int(np.argmax(vals))])
    ok = (abs(m08 - 1.0) <= 1e-4
          and abs(m12 - 1.0 / 1.2) <= 1e-3
          and abs(mode - 41.39) <= 0.1)
    report("criterion 3 (passage mass identities)", ok,
           f"mass(0.8)={m08:.6f}, mass(1.2)={m12:.6f} (target {1/1.2:.6f}), "
           f"mode={mode:.3f} (target 41.39 +- 0.1)")
    assert ok


# --------------------------------------------------------------------------
# 4. Volterra solver vs closed forms, plus convergence under step halving
# --------------------------------------------------------------------------

def test_volterra_vs_closed():
    spec = wiener_spec(1.0)
    grid = np.linspace(0.0, 5.0, 4001)
    bnd = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
    curve = volterra_fpt(spec, bnd, 0.0, 0.0, grid)
    closed = fpt_pdf_gm_closed(spec, DanielsBoundary(0.0, 1.0), 0.0, 0.0, grid[1:])
    mask = closed > 0.01 * closed.max()
    dev_w = float(np.max(np.abs(curve.values[1:][mask] - closed[mask])
                         / closed[mask]))

    proc = OUProcess(P15, 0.1)
    bnd_ou = AffineGMBoundary(A=0.8 * _g(P15, 0.0))
    grid_ou = np.linspace(0.0, 20.0, 4001)
    curve_ou = volterra_fpt(gm_spec_G(proc),
                            affine_gm_boundary_fns(proc, bnd_ou, 0.0),
                            1.0, 0.0, grid_ou)
    closed_ou = fpt_pdf_ou(proc, bnd_ou, 1.0, 0.0, grid_ou[1:])
    mask = closed_ou > 0.01 * closed_ou.max()
    dev_o = float(np.max(np.abs(curve_ou.values[1:][mask] - closed_ou[mask])
                         / closed_ou[mask]))

    # convergence order measured on a boundary with an active integral term
    # (on the two closed-form problems above the kernel vanishes identically
    # and the scheme is exact at any step, so no order is observable there)
    sin_bnd = GeneralBoundary(s=lambda t: 1.0 + 0.25 * np.sin(t),
                              s_dot=lambda t: 0.25 * np.cos(t))
    sols = {K: volterra_fpt(spec, sin_bnd, 0.0, 0.0, np.linspace(0.0, 5.0, K + 1))
            for K in (500, 1000, 8000)}
    ref = sols[8000]
    errs = {}
    for K in (500, 1000):
        interp = np.interp(sols[K].times, ref.times, ref.values)
        errs[K] = float(np.trapezoid(np.abs(sols[K].values - interp),
                                     sols[K].times))
    ratio = errs[500] / errs[1000]
    ok = dev_w < 0.01 and dev_o < 0.01 and ratio >= 1.8 and errs[1000] < errs[500]
    report("criterion 4 (Volterra vs closed forms)", ok,
           f"wiener dev {dev_w:.2e}, ou dev {dev_o:.2e}, halving error ratio "
           f"{ratio:.2f} (>=1.8: first order or better)")
    assert ok


# --------------------------------------------------------------------------
# 5. kernel vanishing on closed-form boundaries
# --------------------------------------------------------------------------

def test_kernel_vanishing():
    rng = np.random.default_rng(55)
    worst = 0.0
    for spec in (wiener_spec(1.0), gm_spec_G(OUProcess(P15, 0.1))):
        for _ in range(500):
            d = DanielsBoundary(d1=rng.uniform(-2.0, 2.0),
                                d2=rng.uniform(-2.0, 2.0))
            s, s_dot = daniels_boundary_fns(spec, d)
            tau = rng.uniform(0.05, 4.0)
            t = tau + rng.uniform(0.05, 4.0)
            val = psi_kernel(spec, GeneralBoundary(s=s, s_dot=s_dot),
                             t, s(tau), tau)
            worst = max(worst, abs(val))
    ok = worst < 1e-10
    report("criterion 5 (kernel vanishing)", ok,
           f"max |Psi| {worst:.2e} over 1000 draws (<1e-10)")
    assert ok


# --------------------------------------------------------------------------
# 6. symmetric-band exit identities, closed form and Monte Carlo
# --------------------------------------------------------------------------

def test_fet_identities():
    mean = integrate_adaptive(
        lambda t: t * fet_pdf_wiener_symmetric(1.0, 1.0, t), 1e-9, 50.0)
    mass = integrate_adaptive(
        lambda t: fet_pdf_wiener_symmetric(1.0, 1.0, t), 1e-9, 50.0)
    ok_closed = abs(mean - 1.0) <= 5e-3 and abs(mass - 1.0) <= 1e-4

    # the same band, exercised through the simulator: the log coordinate of
    # the multiplicative process at sigma = 1 is a unit Wiener process, and
    # these boundaries map onto the constant levels -1 and +1
    proc = LognormalProcess(P15, 1.0)
    s1 = ExpBoundary(A=math.exp(-1.0), B=-0.5)
    s2 = ExpBoundary(A=math.exp(1.0), B=-0.5)
    # dt = 0.005 keeps the in-step hit-placement bias (~dt/5) well inside
    # the 3-se band on the mean
    cfg = SimConfig(dt=0.005, horizon=14.0, n_paths=100_000, seed=661)
    sample = estimate_fet(proc, s1, s2, cfg)
    n = sample.hit_times.size
    mc_mean = float(sample.hit_times.mean())
    se = math.sqrt(2.0 / 3.0 / n)  # Var(T) = 2/3 for this band
    n_up = int(np.sum(sample.exit_sides == "upper"))
    ok_mc = (abs(mc_mean - 1.0) <= 3.0 * se
             and abs(n_up / n - 0.5) <= 3.0 * 0.5 / math.sqrt(n))
    ok = ok_closed and ok_mc
    report("criterion 6 (symmetric band exit identities)", ok,
           f"mean {mean:.5f}, mass {mass:.6f}; "
           f"MC mean {mc_mean:.4f} (3se {3 * se:.4f}), upper share "
           f"{n_up / n:.4f}")
    assert ok


# --------------------------------------------------------------------------
# 7. Monte Carlo agreement with the closed forms
# --------------------------------------------------------------------------

def test_mc_agreement():
    proc = LognormalProcess(P15, 0.02)
    bnd = ExpBoundary(A=0.8)
    cfg = SimConfig(dt=0.2, horizon=150.0, n_paths=100_000, seed=71)
    sample = estimate_fpt(proc, bnd, cfg)
    grid = np.linspace(0.0, 150.0, 3001)
    curve = DensityCurve.from_function(
        lambda t: fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, t), grid, 0.0)
    _, ks = density_distance(sample, curve)

    band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.2)
    cfg_b = SimConfig(dt=0.5, horizon=800.0, n_paths=100_000, seed=72)
    sample_b = estimate_fet(proc, ExpBoundary(A=0.8), ExpBoundary(A=1.2), cfg_b)
    grid_b = np.linspace(0.0, 800.0, 3001)
    curve_b = DensityCurve.from_function(
        lambda t: fet_pdf_lognormal_band(proc, band, 1.0, 0.0, t), grid_b, 0.0)
    l1, _ = density_distance(sample_b, curve_b, bins=40)

    ok = ks < 0.01 and l1 < 0.05
    report("criterion 7 (Monte Carlo agreement)", ok,
           f"KS {ks:.4f} (<0.01), band L1 {l1:.4f} (<0.05), 1e5 paths each")
    assert ok


# --------------------------------------------------------------------------
# 8. the conditional-variance form of the additive process, pinned by MC
# --------------------------------------------------------------------------

def test_variance_form_pinned():
    proc = OUProcess(P15, 0.1)
    cfg = SimConfig(dt=0.5, horizon=1.0, n_paths=1_000_000, seed=81)
    _, paths = simulate_paths(proc, cfg)
    v_mc = float(np.var(paths[:, -1], ddof=1))
    v_true = transition_law_G(proc, 1.0, 0.0, 1.0).variance
    # the alternative ordering integrates [g(tau)/g(theta)]^2 instead
    v_alt = 0.01 * integrate_adaptive(
        lambda th: (_g(P15, 0.0) / _g(P15, th)) ** 2, 0.0, 1.0)
    se = v_true * math.sqrt(2.0 / (cfg.n_paths - 1))
    ok = abs(v_mc - v_true) <= 3.0 * se and abs(v_mc - v_alt) > 10.0 * se
    report("criterion 8 (variance form pinned by MC)", ok,
           f"MC {v_mc:.6f} vs {v_true:.6f} (|d| {abs(v_mc - v_true) / se:.2f} se) "
           f"vs alternative {v_alt:.6f} ({abs(v_mc - v_alt) / se:.0f} se away)")
    assert ok


# --------------------------------------------------------------------------
# 9. invariance of the proportional densities under the shape parameter
# --------------------------------------------------------------------------

def test_p_invariance():
    ps = (1.5, 1.0, 0.75, 2.0 / 3.0, 0.25)
    fpt_vals, fet_vals = [], []
    for p in ps:
        proc = LognormalProcess(GrowthParams(p=p, **BASE), 0.02)
        fpt_vals.append(fpt_pdf_lognormal(proc, ExpBoundary(A=0.8), 1.0, 0.0, 40.0))
        band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.2)
        fet_vals.append(fet_pdf_lognormal_band(proc, band, 1.0, 0.0, 55.0))
    spread_fpt = max(fpt_vals) - min(fpt_vals)
    spread_fet = max(fet_vals) - min(fet_vals)
    ok = (spread_fpt <= 1e-12 * max(fpt_vals)
          and spread_fet <= 1e-12 * max(fet_vals))
    report("criterion 9 (shape-parameter invariance)", ok,
           f"fpt spread {spread_fpt:.2e}, fet spread {spread_fet:.2e}")
    assert ok


# --------------------------------------------------------------------------
# 10. sensitivity monotonicity across the tested grids
# --------------------------------------------------------------------------

def test_sensitivity_monotonicity():
    proc = {s: LognormalProcess(P15, s) for s in (0.01, 0.02, 0.04)}
    ts = np.linspace(0.5, 400.0, 8000)
    peak_t, peak_v = [], []
    for s in (0.01, 0.02, 0.04):
        vals = np.array([fpt_pdf_lognormal(proc[s], ExpBoundary(A=0.8),
                                           1.0, 0.0, float(t)) for t in ts])
        peak_t.append(float(ts[int(np.argmax(vals))]))
        peak_v.append(float(vals.max()))
    ok_fpt = peak_t[0] > peak_t[1] > peak_t[2] and peak_v[0] < peak_v[1] < peak_v[2]

    proc_l = LognormalProcess(P15, 0.02)
    fet_peaks = []
    for nu1 in (0.8, 0.85, 0.9):
        band = ProportionalBand(nu1=nu1, nu=1.0, nu2=1.3)
        vals = [fet_pdf_lognormal_band(proc_l, band, 1.0, 0.0, float(t))
                for t in np.linspace(0.5, 400.0, 2000)]
        fet_peaks.append(max(vals))
    ok_fet = fet_peaks[0] < fet_peaks[1] < fet_peaks[2]

    ok = ok_fpt and ok_fet
    report("criterion 10 (sensitivity monotonicity)", ok,
           f"fpt peak times {peak_t} decreasing, peak values increasing "
           f"{ok_fpt}; fet peaks {['%.4f' % v for v in fet_peaks]} "
           f"increasing {ok_fet}")
    assert ok
