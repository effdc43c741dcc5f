"""First-exit-time densities from a band between two boundaries.

For bands of the form s_i = m + a*k1 + c_i*k2 around a start
x0 = m + a*k1 + c*k2 (c1 < c < c2) the total exit density has an
image-expansion ("theta series") closed form: with R = r(t) - r(t0),
L = c2 - c1, u = c - c1, v = c2 - c,

    gamma(t) = k2(t) r'(t) / R * sum_{n in Z} exp(-2 n^2 L^2 / R) *
        { (u + 2nL) exp(-2nL u / R) f(s1(t), t | x0, t0)
        + (v - 2nL) exp(+2nL v / R) f(s2(t), t | x0, t0) }.

The sum is truncated symmetrically: terms are added in +/-n pairs until a
pair contributes less than rel_tol of the running total, with exponents
guarded against underflow and a hard cap on n.

The lognormal band is wiener_band_pdf after the log map.

For general C^1 bands the pair (gamma1, gamma2) of exit-through-lower /
exit-through-upper densities solves a coupled system of second-kind Volterra
equations with the passage equation's kernel.  It is solved by the
single-boundary solver itself (fpt._volterra), given both boundaries with
side signs +1 (lower) and -1 (upper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (BandCrossing, DomainError, InvalidParams, OrderError,
                     SeriesDivergence, StartOutsideBand)
from .fpt import DensityCurve, GeneralBoundary, _solver_grid, _volterra
from .gm_core import GMSpec, GMValues, evaluate, law_between, on_grid
from .growth_curve import _as_out, _core
from .process_lognormal import LognormalProcess
from .process_ou import OUProcess, gm_spec_G

_EXP_FLOOR = -700.0  # exp() underflows around -745; keep a margin


@dataclass(frozen=True)
class BandSpec:
    """Affine band in Wiener coordinates: boundaries c_i + slope*t."""

    c1: float
    c: float
    c2: float
    slope: float = 0.0

    def __post_init__(self) -> None:
        if not (self.c1 < self.c < self.c2):
            raise StartOutsideBand(
                f"need c1 < c < c2, got {self.c1}, {self.c}, {self.c2}")


@dataclass(frozen=True)
class ProportionalBand:
    """Band boundaries as fixed proportions nu1 < nu2 of the conditional mean
    curve, with the start at proportion nu (nu = 1 starts exactly at x0)."""

    nu1: float
    nu: float
    nu2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.nu1 < self.nu < self.nu2):
            raise StartOutsideBand(
                f"need 0 < nu1 < nu < nu2, got {self.nu1}, {self.nu}, {self.nu2}")


@dataclass(frozen=True)
class SeriesControl:
    rel_tol: float = 1e-12
    n_max: int = 10_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise InvalidParams("rel_tol must be positive")
        if self.n_max < 1:
            raise InvalidParams("n_max must be >= 1")


DEFAULT_SERIES = SeriesControl()


def _guarded_exp(arg):
    """exp(arg), 0 at or below _EXP_FLOOR; every caller's arg is <= 0."""
    return np.exp(arg) * (arg > _EXP_FLOOR)


def _theta_sum(R, L: float, u: float, v: float, f1, f2,
               ctl: SeriesControl) -> np.ndarray:
    """The image sum of the band-exit closed form (prefactor excluded), for
    a scalar or an array of clock values R > 0 (f1, f2 alike).

    The +/-n pairs are added one order at a time, for all elements at once,
    until every element's last pair falls below rel_tol of its running
    total."""
    R, f1, f2 = (np.asarray(x, dtype=float) for x in (R, f1, f2))

    def term(n: int) -> np.ndarray:
        base = -2.0 * n * n * L * L / R
        t1 = (u + 2.0 * n * L) * _guarded_exp(base - 2.0 * n * L * u / R) * f1
        t2 = (v - 2.0 * n * L) * _guarded_exp(base + 2.0 * n * L * v / R) * f2
        return t1 + t2

    total = term(0)
    for n in range(1, ctl.n_max + 1):
        delta = term(n) + term(-n)
        total = total + delta
        if np.all(np.abs(delta) <= ctl.rel_tol * np.maximum(np.abs(total), 1e-300)):
            return total
    raise SeriesDivergence(
        f"image sum did not stabilise within n_max={ctl.n_max} terms")


def fet_pdf_gm_closed(spec: GMSpec, a: float, band: BandSpec, x0: float,
                      t0: float, t,
                      ctl: SeriesControl = DEFAULT_SERIES):
    """Total exit density gamma(t | x0, t0) for an affine-in-(k1, k2) band.

    Boundaries are s_i = m + a*k1 + band.ci*k2 and the start must satisfy
    x0 = m(t0) + a*k1(t0) + band.c*k2(t0); band.slope is ignored here (it is
    the Wiener-coordinate reading of `a`).  `t` is a scalar or an array.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= t0):
        raise OrderError(f"need t > t0, got t={t}, t0={t0}")
    return _band_pdf(evaluate(spec, t0), evaluate(spec, t), a, band, x0, ctl)


def _band_pdf(at_0: GMValues, at_t: GMValues, a: float, band: BandSpec,
              x0: float, ctl: SeriesControl):
    """fet_pdf_gm_closed from the spec's values at t0 and at t."""
    x0_implied = at_0.m + a * at_0.k1 + band.c * at_0.k2
    scale = max(abs(x0), abs(x0_implied), 1.0)
    if abs(x0 - x0_implied) > 1e-9 * scale:
        raise InvalidParams(
            f"x0={x0} inconsistent with m + a*k1 + c*k2 = {x0_implied} at t0")
    R = at_t.r - at_0.r
    moved = R > 0.0
    R = np.where(moved, R, 1.0)  # placeholder clock where the density is 0
    law = law_between(at_0, at_t, x0)
    f1 = np.where(moved, law.pdf(at_t.m + a * at_t.k1 + band.c1 * at_t.k2), 0.0)
    f2 = np.where(moved, law.pdf(at_t.m + a * at_t.k1 + band.c2 * at_t.k2), 0.0)
    L = band.c2 - band.c1
    u = band.c - band.c1
    v = band.c2 - band.c
    pref = at_t.k2 * at_t.r_dot / R
    dens = pref * _theta_sum(R, L, u, v, f1, f2, ctl)
    return _as_out(np.where(moved, dens, 0.0))


def wiener_band_pdf(band: BandSpec, sigma: float, dt,
                    ctl: SeriesControl = DEFAULT_SERIES):
    """Exit density of a Wiener process (variance sigma^2 per unit time)
    from the affine band c_i + slope*t after elapsed time dt (a scalar or an
    array), the start sitting at intercept offset c with c1 < c < c2."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise OrderError(f"elapsed time must be positive, got {dt}")
    R = sigma * sigma * dt
    L = band.c2 - band.c1
    u = band.c - band.c1
    v = band.c2 - band.c
    a1 = -((band.slope * dt + band.c1 - band.c) ** 2) / (2.0 * R)
    a2 = -((band.slope * dt + band.c2 - band.c) ** 2) / (2.0 * R)
    norm = 1.0 / np.sqrt(2.0 * math.pi * R)
    f1 = norm * _guarded_exp(a1)
    f2 = norm * _guarded_exp(a2)
    return _as_out((1.0 / dt) * _theta_sum(R, L, u, v, f1, f2, ctl))


def fet_pdf_lognormal_band(proc: LognormalProcess, band: ProportionalBand,
                           x0: float, t0: float, t,
                           ctl: SeriesControl = DEFAULT_SERIES):
    """Exit density of the multiplicative-noise process from the band of
    mean proportions [nu1, nu2], started at proportion nu of x0; `t` is a
    scalar or an array.

    In the Wiener coordinate z = ln x + ln g(t) - ln g(t0) + sigma^2 t/2,
    measured from the start, the band is c_i + sigma^2/2 * (t - t0) with
    c1 = -ln(nu/nu1) and c2 = ln(nu2/nu), so this is wiener_band_pdf.  Only
    those ratios and (sigma, t - t0) enter: the value is independent of the
    curve shape p and of x0 itself.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= t0):
        raise OrderError(f"need t > t0, got t={t}, t0={t0}")
    zband = BandSpec(c1=-math.log(band.nu / band.nu1), c=0.0,
                     c2=math.log(band.nu2 / band.nu),
                     slope=0.5 * proc.sigma * proc.sigma)
    return wiener_band_pdf(zband, proc.sigma, t - t0, ctl)


def fet_pdf_wiener_symmetric(c_half_width: float, sigma: float, dt: float,
                             ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Exit density from a constant symmetric band started at its midpoint.

    Specialises the general affine-band formula with slope 0 and
    c = (c1 + c2)/2 rather than transcribing any pre-simplified display.
    """
    if not (c_half_width > 0.0):
        raise InvalidParams("half width must be positive")
    band = BandSpec(c1=-c_half_width, c=0.0, c2=c_half_width, slope=0.0)
    return wiener_band_pdf(band, sigma, dt, ctl)


def fet_pdf_ou_band(proc: OUProcess, c1: float, c: float, c2: float, B: float,
                    x0: float, t0: float, t,
                    ctl: SeriesControl = DEFAULT_SERIES):
    """Exit density of the additive-noise process from a proportional band.

    With B = 0 the boundaries are s_i(t) = c_i * x0 * g(t0)/g(t), i.e. fixed
    proportions of the conditional mean started from x0, and the start state
    is c * x0 (c = 1 starts exactly at x0).  B tilts the band along the
    intrinsic clock the same way the affine passage boundary does.  `t` is a
    scalar or an increasing array.
    """
    if not (c1 < c < c2):
        raise StartOutsideBand(f"need c1 < c < c2, got {c1}, {c}, {c2}")
    params = proc.params
    t = np.asarray(t, dtype=float)
    if np.any(t >= _core(params).t_star):
        raise DomainError(f"t={t} at or beyond the domain end")
    if np.any(t <= t0):
        raise OrderError(f"need t > t0, got t={t}, t0={t0}")
    spec = gm_spec_G(proc)
    at_0 = evaluate(spec, t0)
    scale = x0 / float(at_0.k2)  # x0 * g(t0)
    shift = B * float(at_0.r)
    band = BandSpec(c1=c1 * scale - shift, c=c * scale - shift,
                    c2=c2 * scale - shift)
    x_start = float(at_0.m + B * at_0.k1 + band.c * at_0.k2)
    return _band_pdf(at_0, evaluate(spec, t), B, band, x_start, ctl)


def volterra_fet(spec: GMSpec, s1: GeneralBoundary, s2: GeneralBoundary,
                 x0: float, t0: float, grid: np.ndarray
                 ) -> Tuple[DensityCurve, DensityCurve, DensityCurve]:
    """Coupled product-integration solution for a general C^1 band.

    Returns (gamma1, gamma2, gamma): exit-through-lower, exit-through-upper,
    and their sum, on the supplied uniform grid starting at t0.
    """
    grid, h = _solver_grid(grid, t0)
    s = np.array([on_grid(s1.s, grid), on_grid(s2.s, grid)])
    if np.any(s[0] >= s[1]):
        raise BandCrossing("lower boundary meets or exceeds the upper one")
    if not (s[0, 0] < x0 < s[1, 0]):
        raise StartOutsideBand(
            f"x0={x0} not inside ({s[0, 0]}, {s[1, 0]}) at t0")
    s_dot = np.array([on_grid(s1.s_dot, grid), on_grid(s2.s_dot, grid)])
    g1, g2 = _volterra(spec, s, s_dot, x0, grid, h)
    lower = DensityCurve(times=grid, values=g1)
    upper = DensityCurve(times=grid, values=g2)
    total = DensityCurve(times=grid, values=g1 + g2)
    return lower, upper, total
