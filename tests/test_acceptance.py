"""End-to-end acceptance checks.

The shared oracles live in `growthfpt.validate`, one function each; this
file calls them at full scale with its own seeds, prints each result's
[PASS]/[FAIL] line (visible with `pytest -s` or on failure) and asserts it.
Only the parts that run at full scale alone are written here: the RK4 half
of the curve check, the Monte Carlo half of the band identities, and the
regime and sensitivity criteria.  Tolerances are fixed, not tuned at runtime.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from growthfpt import (ExpBoundary, GrowthParams, LognormalProcess,
                       ProportionalBand, SimConfig, domain_end, estimate_fet,
                       fet_pdf_lognormal_band, fpt_pdf_lognormal, x_eval)
from growthfpt.validate import (BASE, P15, CheckResult,
                                check_curve_equivalence, check_fpt_mass,
                                check_fpt_mode, check_kernel_vanishing,
                                check_mc_fet, check_mc_fpt, check_variance_form,
                                check_volterra_vs_closed, check_wiener_band)


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
    reparam = check_curve_equivalence(200, 20, 1001)
    print(reparam.line)

    worst_ode = 0.0
    windows = {1.5: 10.0, 1.0: 10.0, 0.75: 14.0, 2.0 / 3.0: 14.0, 0.25: 20.0}
    for p, hi in windows.items():
        params = GrowthParams(p=p, **BASE)
        sol = rk4(native_rate(params), params.x0, 0.0, hi, 40_000)
        probes = np.linspace(0.0, hi, 101)[1:]
        idx = np.rint(probes / hi * 40_000).astype(int)
        a = x_eval(params, probes)
        worst_ode = max(worst_ode, float(np.max(np.abs(a - sol[idx]) / np.abs(a))))
    ode = CheckResult("curve against an RK4 solution of the native ODE",
                      worst_ode <= 1e-6, f"max rel {worst_ode:.2e} (<=1e-6)")
    print(ode.line)
    assert reparam.passed and ode.passed


# --------------------------------------------------------------------------
# 2. regime reproduction
# --------------------------------------------------------------------------

def test_regime_reproduction():
    # sigmoid: monotone rise to within 1% of the carrying capacity
    params = GrowthParams(p=1.5, **BASE)
    ts = np.linspace(0.0, 40.0, 2001)
    xs = x_eval(params, ts)
    ok_sig = bool(np.all(np.diff(xs) >= -1e-12) and xs[-1] >= 0.99 * 20.0)

    # even integer exponent: peak near k then monotone decay below x0 by t=40
    params = GrowthParams(p=0.75, **BASE)
    xs = x_eval(params, ts)
    ipk = int(np.argmax(xs))
    ok_decay = bool(xs[ipk] > 0.99 * 20.0
                    and np.all(np.diff(xs[ipk:]) <= 1e-10)
                    and x_eval(params, 40.0) < 1.0)

    # odd integer exponent: plateau near k, then unbounded increase (the
    # curve blows up at a finite time just past t = 22)
    params = GrowthParams(p=2.0 / 3.0, **BASE)
    plateau = x_eval(params, 16.0)
    rising = x_eval(params, np.array([17.0, 19.0, 20.8, 21.5, 21.9]))
    ok_growth = bool(abs(plateau - 20.0) < 0.25
                     and np.all(np.diff(rising) > 0.0)
                     and rising.max() > 2.0 * 20.0)

    # non-integer exponent: the curve attains k at a finite, known time
    params = GrowthParams(p=0.25, **BASE)
    t_star = domain_end(params).t_star
    ok_ceiling = bool(abs(t_star - 24.267) <= 1e-3
                      and x_eval(params, t_star) == 20.0
                      and abs(x_eval(params, t_star - 1e-5) - 20.0) < 1e-3)

    res = CheckResult("regime reproduction",
                      ok_sig and ok_decay and ok_growth and ok_ceiling,
                      f"sigmoid {ok_sig}, decay {ok_decay}, growth-to-blow-up "
                      f"{ok_growth}, ceiling t*={t_star:.5f} {ok_ceiling}")
    print(res.line)
    assert res.passed


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
    res = CheckResult("p=2/3 pointwise x(40) > 2k", val > 2.0 * 20.0,
                      f"x(40) = {val:.4f}")
    print(res.line)
    assert res.passed


# --------------------------------------------------------------------------
# 3. passage-time mass identities for the proportional boundary
# --------------------------------------------------------------------------

def test_fpt_mass_identities():
    mass, mode = check_fpt_mass(), check_fpt_mode(5001)
    print(mass.line)
    print(mode.line)
    assert mass.passed and mode.passed


# --------------------------------------------------------------------------
# 4. Volterra solver vs closed forms
# --------------------------------------------------------------------------

def test_volterra_vs_closed():
    res = check_volterra_vs_closed(4000)
    print(res.line)
    assert res.passed


# --------------------------------------------------------------------------
# 5. kernel vanishing on closed-form boundaries
# --------------------------------------------------------------------------

def test_kernel_vanishing():
    res = check_kernel_vanishing(500, 55)
    print(res.line)
    assert res.passed


# --------------------------------------------------------------------------
# 6. symmetric-band exit identities, closed form and Monte Carlo
# --------------------------------------------------------------------------

def test_fet_identities():
    closed = check_wiener_band(50.0)
    print(closed.line)

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
    mc = CheckResult("symmetric band exits by Monte Carlo",
                     abs(mc_mean - 1.0) <= 3.0 * se
                     and abs(n_up / n - 0.5) <= 3.0 * 0.5 / math.sqrt(n),
                     f"MC mean {mc_mean:.4f} (3se {3 * se:.4f}), upper share "
                     f"{n_up / n:.4f}")
    print(mc.line)
    assert closed.passed and mc.passed


# --------------------------------------------------------------------------
# 7. Monte Carlo agreement with the closed forms
# --------------------------------------------------------------------------

def test_mc_agreement():
    fpt, fet = check_mc_fpt(100_000, 71), check_mc_fet(100_000, 72)
    print(fpt.line)
    print(fet.line)
    assert fpt.passed and fet.passed


# --------------------------------------------------------------------------
# 8. the conditional-variance form of the additive process, pinned by MC
# --------------------------------------------------------------------------

def test_variance_form_pinned():
    res = check_variance_form(1_000_000, 81)
    print(res.line)
    assert res.passed


# --------------------------------------------------------------------------
# 9. sensitivity monotonicity across the tested grids
# --------------------------------------------------------------------------

def test_sensitivity_monotonicity():
    proc = {s: LognormalProcess(P15, s) for s in (0.01, 0.02, 0.04)}
    ts = np.linspace(0.5, 400.0, 8000)
    peak_t, peak_v = [], []
    for s in (0.01, 0.02, 0.04):
        vals = fpt_pdf_lognormal(proc[s], ExpBoundary(A=0.8), 1.0, 0.0, ts)
        peak_t.append(float(ts[int(np.argmax(vals))]))
        peak_v.append(float(vals.max()))
    ok_fpt = peak_t[0] > peak_t[1] > peak_t[2] and peak_v[0] < peak_v[1] < peak_v[2]

    proc_l = LognormalProcess(P15, 0.02)
    fet_peaks = []
    for nu1 in (0.8, 0.85, 0.9):
        band = ProportionalBand(nu1=nu1, nu=1.0, nu2=1.3)
        vals = fet_pdf_lognormal_band(proc_l, band, 1.0, 0.0,
                                      np.linspace(0.5, 400.0, 2000))
        fet_peaks.append(float(vals.max()))
    ok_fet = fet_peaks[0] < fet_peaks[1] < fet_peaks[2]

    res = CheckResult("sensitivity monotonicity", ok_fpt and ok_fet,
                      f"fpt peak times {peak_t} decreasing, peak values "
                      f"increasing {ok_fpt}; fet peaks "
                      f"{['%.4f' % v for v in fet_peaks]} increasing {ok_fet}")
    print(res.line)
    assert res.passed
