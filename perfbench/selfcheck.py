"""Each oracle checked against a second route.

Run as `python3 perfbench/selfcheck.py`; it prints one line per check and
exits 1 if any fails.  The benchmark runs the same checks before it times
anything, and reports correct = false if one fails.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy import integrate

import oracles

# (gamma, n, p, k, x0, t0, t_end): sigmoid, Gompertz, plateau-then-decay,
# plateau-then-growth (stopped short of its blow-up), finite-time ceiling
CURVES = [
    (0.5, 1.0, 1.5, 20.0, 1.0, 0.0, 40.0),
    (0.3, 2.0, 1.0, 15.0, 2.0, 1.0, 30.0),
    (0.5, 1.0, 0.5, 20.0, 1.0, 0.0, 30.0),
    (0.5, 1.0, 2.0 / 3.0, 20.0, 1.0, 0.0, 21.0),
    (0.4, 0.7, 0.35, 30.0, 1.5, 0.5, 12.0),
]


def _rel(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def check_curve():
    worst_x = worst_h = 0.0
    for gamma, n, p, k, x0, t0, t_end in CURVES:
        c = oracles.Curve(gamma, n, p, k, x0, t0)
        # integrate the native ODE up to just before any ceiling it reaches
        stop = min(t_end, t0 + 0.98 * (c.t_plateau() - t0))
        ts = np.linspace(t0, stop, 41)
        sol = integrate.solve_ivp(lambda t, y: c.ode_rhs(y), (t0, stop), [x0],
                                  t_eval=ts, rtol=1e-12, atol=1e-14,
                                  method="DOP853")
        worst_x = max(worst_x, _rel(c.x(ts), sol.y[0]))
        # the native right-hand side cancels near the plateau, so h is
        # compared on the scale of its largest value
        h_ode = c.ode_rhs(sol.y[0]) / sol.y[0]
        worst_h = max(worst_h, float(np.max(np.abs(c.h(ts) - h_ode))
                                     / np.max(np.abs(h_ode))))
    ok = worst_x < 1e-8 and worst_h < 1e-8
    return "curve closed form vs ODE solve", ok, f"x {worst_x:.1e}, h {worst_h:.1e}"


def check_ig():
    worst = 0.0
    for a, kappa, s2 in ((0.3, 0.02, 0.01), (-0.2, 0.005, 0.04),
                         (0.25, -0.05, 0.09), (-0.5, -0.01, 0.01)):
        for T in (5.0, 40.0, 150.0):
            q = integrate.quad(lambda t: float(oracles.ig_pdf(a, kappa, s2,
                                                              np.array([t]))[0]),
                               0.0, T, epsabs=1e-14, epsrel=1e-12, limit=400,
                               points=[min(T, a * a / s2)])[0]
            worst = max(worst, abs(q - float(oracles.ig_cdf(a, kappa, s2,
                                                          np.array([T]))[0])))
        far = float(oracles.ig_cdf(a, kappa, s2, np.array([1e9]))[0])
        worst = max(worst, abs(far - oracles.ig_mass(a, kappa, s2)))
    return "passage CDF vs integrated density", worst < 1e-9, f"abs {worst:.1e}"


def check_band_series():
    worst = 0.0
    for x, L, mu, s2 in ((0.2, 0.5, -0.005, 0.01), (0.1, 0.4, 0.0, 1.0),
                         (0.3, 0.35, 0.02, 0.04)):
        tau = np.linspace(0.15, 1.2, 15) * L * L / s2
        s_lo, s_up = oracles.band_sides_sine(x, L, mu, s2, tau)
        i_lo, i_up = oracles.band_sides_image(x, L, mu, s2, tau)
        worst = max(worst, _rel(s_lo, i_lo), _rel(s_up, i_up))
    return "band sine series vs image series", worst < 1e-10, f"rel {worst:.1e}"


def check_band_mass():
    worst = 0.0
    for x, L, mu, s2 in ((0.2, 0.5, -0.005, 0.01), (0.15, 0.4, 0.01, 0.02)):
        def side(i, t):
            return float(oracles.band_sides(x, L, mu, s2, np.array([t]))[i][0])
        scale = L * L / s2
        p_up = oracles.ruin_upper(x, L, mu, s2)
        for i, target in ((0, 1.0 - p_up), (1, p_up)):
            got = integrate.quad(lambda t: side(i, t), 0.0, 60.0 * scale,
                                 epsabs=1e-13, epsrel=1e-11, limit=400,
                                 points=[0.1 * scale, scale])[0]
            worst = max(worst, abs(got - target))
        T = 0.6 * scale
        cdf = oracles.band_side_cdf(x, L, mu, s2, T)
        for i in (0, 1):
            got = integrate.quad(lambda t: side(i, t), 0.0, T, epsabs=1e-13,
                                 epsrel=1e-11, limit=400, points=[0.1 * scale])[0]
            worst = max(worst, abs(got - cdf[i]))
    return ("band exit masses vs gambler's ruin and side CDFs", worst < 1e-9,
            f"abs {worst:.1e}")


def check_clock():
    worst = 0.0
    for gamma, n, p, k, x0, t0, t_end in CURVES[:3] + CURVES[4:]:
        c = oracles.Curve(gamma, n, p, k, x0, t0)
        stop = min(t_end, t0 + 0.98 * (c.t_plateau() - t0))
        ts = np.linspace(t0, stop, 9)
        fine = np.linspace(t0, stop, 20001)
        ref = 0.09 * integrate.cumulative_simpson(
            (x0 / c.x(fine)) ** 2, x=fine, initial=0.0)[::2500]
        worst = max(worst, _rel(c.clock(0.3, ts)[1:], ref[1:]))
    return "additive clock by quad vs Simpson", worst < 1e-9, f"rel {worst:.1e}"


CHECKS = [check_curve, check_ig, check_band_series, check_band_mass, check_clock]


def run() -> list[tuple[str, bool, str]]:
    return [check() for check in CHECKS]


def main() -> int:
    results = run()
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
