"""First-exit-time densities from a band between two boundaries.

For bands of the form s_i = m + a*k1 + c_i*k2 around a start
x0 = m + a*k1 + c*k2 (c1 < c < c2), Y = (X - m)/k2 is a unit-variance
Wiener process in the clock r = k1/k2 and the band is the pair of lines
c_i + a*r.  In the clock R = r(t) - r(t0), measured from the start, Y has
drift mu = -a against a fixed band, with the start u = c - c1 above the
lower side and v = c2 - c below the upper one (L = u + v).  Every closed
form here is r'(t) times one density in R, _band_exit(R, u, v, mu), for
the band between two parallel lines c_i + d*R of a unit Wiener process
started at 0 (u = -c1, v = c2, mu = -d).  The Wiener band is the case
r = sigma^2 t; the lognormal and additive bands take their clock and lines
from the process's coordinate (LognormalProcess.coord, OUProcess.coord),
where both of their boundaries are lines.

_band_exit removes the drift by the exponential change of measure: the
exit density through the lower side is exp(-mu u - mu^2 R/2) times the
driftless one, and through the upper side exp(mu v - mu^2 R/2) times the
driftless one from v.  A driftless side density from distance x is summed
as one of two series,

    image  sum_{n=-6..6} (x + 2nL) exp(-(x + 2nL)^2 / (2R)) / sqrt(2 pi R^3)
    sine   (pi/L^2) sum_{k=1..8} k sin(k pi x/L) exp(-k^2 pi^2 R / (2L^2)),

the image series where R <= L^2/2 and the sine (eigenfunction) series
above.  The number of terms is fixed in advance (Navarro & Fuss 2009,
J. Math. Psych. 53), so no tolerance or cap is left.  Relative to the
leading term's size, the first omitted image term is below 1e-18 up to
R/L^2 = 2 and the first omitted sine term below 1e-15 from R/L^2 = 0.1,
so the switch sits inside the range where both reach double precision.
(Beyond R/L^2 = 2 the image terms cancel and lose digits; below 0.1 the
sine series needs more terms.)  Each term's exponents are added before
exp, so a term too small for a normal double is 0, never 0 times an
overflow, and no density is negative, however long the time.

For general C^1 bands the pair (gamma1, gamma2) of exit-through-lower /
exit-through-upper densities solves a coupled system of second-kind Volterra
equations with the passage equation's kernel.  volterra_fet maps the band
into the Wiener coordinate (gm_core.to_clock) and solves it there with the
single-boundary solver itself (fpt._volterra), given both boundaries with
side signs +1 (lower) and -1 (upper).  A band of two Daniels lines of equal
slope in a clock of constant rate (every lognormal band of the CLI) sums on
each side only the start and the other side's sources, since the kernel
vanishes on a line's own, and takes that cross kernel as one Toeplitz row
per side.  Every other band, from callables or lines, sums every source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import BandCrossing, InvalidParams, OrderError, StartOutsideBand
from .fpt import (DensityCurve, GeneralBoundary, _after, _before_end,
                  _solver_grid, _volterra)
from .gm_core import (DanielsBoundary, GMSpec, WienerCoord, evaluate, r_ratio,
                      to_clock)
from .growth_curve import _as_out, _g
from .process_lognormal import ExpBoundary, LognormalProcess
from .process_ou import AffineGMBoundary, OUProcess

_SINE_FROM = 0.5                # R/L^2 above which the sine series is summed
_ORDERS = np.arange(-6.0, 7.0)  # image orders n
_MODES = np.arange(1.0, 9.0)    # sine terms k
_EXP_MIN = -708.0               # exp(x) is subnormal or 0 below about -708.4


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


def _exp(E: np.ndarray) -> np.ndarray:
    """exp(E), with 0 where E <= _EXP_MIN.  numpy's exp takes 20 to 200 ns
    per element there against about 1 ns above, and at short or long clocks
    most terms of either series fall there."""
    return np.exp(E, out=np.zeros(E.shape), where=E > _EXP_MIN)


def _image_sum(R: np.ndarray, u: float, v: float, mu: float) -> np.ndarray:
    """_band_exit from the image series, for a 1-d array R: one column per
    side and order, each row summed on its own."""
    L = u + v
    n = np.concatenate((_ORDERS, _ORDERS))
    drift = np.repeat((mu, -mu), _ORDERS.size)
    d = np.repeat((u, v), _ORDERS.size) + 2.0 * L * n
    q = d + drift * R[:, None]
    terms = d * _exp(2.0 * L * n * drift - q * q / (2.0 * R[:, None]))
    return terms.sum(axis=1) / np.sqrt(2.0 * math.pi * R) / R


def _sine_sum(R: np.ndarray, u: float, v: float, mu: float) -> np.ndarray:
    """_band_exit from the sine (eigenfunction) series, laid out the same."""
    L = u + v
    k = np.concatenate((_MODES, _MODES))
    x = np.repeat((u, v), _MODES.size)
    drift = np.repeat((mu, -mu), _MODES.size)
    rate = 0.5 * (math.pi * k / L) ** 2 + 0.5 * mu * mu
    terms = k * np.sin(k * (math.pi / L) * x) * _exp(-drift * x - rate * R[:, None])
    return (math.pi / (L * L)) * terms.sum(axis=1)


def _band_exit(R, u: float, v: float, mu: float) -> np.ndarray:
    """Exit density, both sides together, of a unit-variance Wiener process
    with drift mu in its clock R > 0 (a scalar or an array), started u above
    the lower side and v below the upper one.  Each element sums its own
    series, so a value does not depend on the other clocks in the call."""
    R = np.asarray(R, dtype=float)
    sine = R > _SINE_FROM * (u + v) ** 2
    out = np.empty(R.shape)
    for series, where in ((_image_sum, ~sine), (_sine_sum, sine)):
        if np.any(where):
            out[where] = series(R[where], u, v, mu)
    return out


def _line_band_pdf(R, rate, lower, upper):
    """rate times the exit density, in the clock R, of a unit Wiener process
    started at 0 between the parallel lines lower = (c1, d) and
    upper = (c2, d) of c + d*R; 0 where R is not positive."""
    (c1, d), (c2, _) = lower, upper
    R = np.asarray(R, dtype=float)
    moved = R > 0.0
    dens = rate * _band_exit(np.where(moved, R, 1.0), -c1, c2, -d)
    return _as_out(np.where(moved, dens, 0.0))


def _coord_band_pdf(coord: WienerCoord, lower, upper, t):
    """_line_band_pdf for two closed-form boundaries of the coordinate."""
    return _line_band_pdf(coord.clock(t), coord.rate(t), coord.line(lower),
                          coord.line(upper))


def fet_pdf_gm_closed(spec: GMSpec, a: float, band: BandSpec, x0: float,
                      t0: float, t):
    """Total exit density gamma(t | x0, t0) for an affine-in-(k1, k2) band.

    Boundaries are s_i = m + a*k1 + band.ci*k2 and the start must satisfy
    x0 = m(t0) + a*k1(t0) + band.c*k2(t0); band.slope is ignored here (it is
    the Wiener-coordinate reading of `a`).  `t` is a scalar or an array.
    """
    t = _after(t, t0)
    at_0 = evaluate(spec, t0)
    x0_implied = at_0.m + a * at_0.k1 + band.c * at_0.k2
    scale = max(abs(x0), abs(x0_implied), 1.0)
    if abs(x0 - x0_implied) > 1e-9 * scale:
        raise InvalidParams(
            f"x0={x0} inconsistent with m + a*k1 + c*k2 = {x0_implied} at t0")
    r, r_dot = r_ratio(spec, t)
    return _line_band_pdf(r - at_0.r, r_dot, (band.c1 - band.c, a),
                          (band.c2 - band.c, a))


def wiener_band_pdf(band: BandSpec, sigma: float, dt):
    """Exit density of a Wiener process (variance sigma^2 per unit time)
    from the affine band c_i + slope*t after elapsed time dt (a scalar or an
    array), the start sitting at intercept offset c with c1 < c < c2."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise OrderError(f"elapsed time must be positive, got {dt}")
    s2 = sigma * sigma
    d = band.slope / s2
    return _line_band_pdf(s2 * dt, s2, (band.c1 - band.c, d), (band.c2 - band.c, d))


def fet_pdf_lognormal_band(proc: LognormalProcess, band: ProportionalBand,
                           x0: float, t0: float, t):
    """Exit density of the multiplicative-noise process from the band of
    mean proportions [nu1, nu2], started at proportion nu of x0; `t` is a
    scalar or an array.

    Both boundaries are ExpBoundary lines in the coordinate from the start
    (nu*x0, t0), ln(nu_i/nu) + R/2 with R = sigma^2 (t - t0).  Only those
    ratios and (sigma, t - t0) enter: the value is independent of the curve
    shape p and of x0 itself.
    """
    t = _after(t, t0)
    lower, upper = ExpBoundary(A=band.nu1 * x0), ExpBoundary(A=band.nu2 * x0)
    return _coord_band_pdf(proc.coord(band.nu * x0, t0), lower, upper, t)


def fet_pdf_wiener_symmetric(c_half_width: float, sigma: float, dt: float) -> float:
    """Exit density from a constant symmetric band started at its midpoint.

    Specialises the general affine-band formula with slope 0 and
    c = (c1 + c2)/2 rather than transcribing any pre-simplified display.
    """
    if not (c_half_width > 0.0):
        raise InvalidParams("half width must be positive")
    band = BandSpec(c1=-c_half_width, c=0.0, c2=c_half_width, slope=0.0)
    return wiener_band_pdf(band, sigma, dt)


def fet_pdf_ou_band(proc: OUProcess, c1: float, c: float, c2: float, B: float,
                    x0: float, t0: float, t):
    """Exit density of the additive-noise process from a proportional band.

    With B = 0 the boundaries are s_i(t) = c_i * x0 * g(t0)/g(t), i.e. fixed
    proportions of the conditional mean started from x0, and the start state
    is c * x0 (c = 1 starts exactly at x0).  B tilts the band along the
    intrinsic clock the same way the affine passage boundary does: both
    boundaries are AffineGMBoundary lines in the coordinate from the start
    (c*x0, t0).  `t` is a scalar or an increasing array.
    """
    if not (c1 < c < c2):
        raise StartOutsideBand(f"need c1 < c < c2, got {c1}, {c}, {c2}")
    _before_end(proc.params, t)
    t = _after(t, t0)
    scale = x0 * _g(proc.params, t0)
    lower, upper = (AffineGMBoundary(A=ci * scale, B=B) for ci in (c1, c2))
    return _coord_band_pdf(proc.coord(c * x0, t0), lower, upper, t)


def volterra_fet(spec: GMSpec, s1: GeneralBoundary | DanielsBoundary,
                 s2: GeneralBoundary | DanielsBoundary, x0: float, t0: float,
                 grid: np.ndarray) -> Tuple[DensityCurve, DensityCurve, DensityCurve]:
    """Coupled product-integration solution for a general C^1 band, each
    boundary given by callables or as a Daniels line of the spec.

    Returns (gamma1, gamma2, gamma): exit-through-lower, exit-through-upper,
    and their sum, on the supplied uniform grid starting at t0.
    """
    grid, h = _solver_grid(grid, t0)
    r, rate, S, S_dot, y0, lines = to_clock(spec, [s1, s2], x0, grid)
    if np.any(S[0] >= S[1]):
        raise BandCrossing("lower boundary meets or exceeds the upper one")
    if not (S[0, 0] < y0 < S[1, 0]):
        raise StartOutsideBand(f"x0={x0} not inside the band at t0")
    g1, g2 = _volterra(r, rate, S, S_dot, y0, h, lines)
    return tuple(DensityCurve(times=grid, values=v) for v in (g1, g2, g1 + g2))
