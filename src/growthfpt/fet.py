"""First-exit-time densities from a band between two boundaries.

A band of two boundaries of one closed-form family (fpt's module
docstring) is, in the model's coordinate from the start (GMSpec.coord,
LognormalProcess.coord, OUProcess.coord), a pair of lines c1 + d*R and
c2 + d*R of a unit Wiener process w started at 0, with c1 < 0 < c2 when
the start is inside.  Only a pair of one slope d has a closed form: there
w has drift mu = -d against a fixed band, with the start u = -c1 above the
lower side and v = c2 below the upper one (L = u + v).  That closed form,
fet_pdf_closed(model, lower, upper, x0, t0, t), is R'(t) times one density
in R, _band_exit(R, u, v, mu).  For a Gauss-Markov band
s_i = m + a*k1 + c_i*k2 the lines are c_i - c + a*R in the clock
R = r(t) - r(t0), with the start at x0 = m + a*k1 + c*k2; the Wiener band
is the case r = sigma^2 t.

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
equations with the passage equation's kernel.  volterra_fet takes a model
as fet_pdf_closed does, each side a boundary of its family or a
GeneralBoundary, maps the band into the model's Wiener coordinate from the
start (gm_core.to_clock) and solves it there with the single-boundary solver
itself (fpt._volterra), given both boundaries with side signs +1 (lower) and
-1 (upper).  A band of two lines of equal slope in a clock of constant rate
(every lognormal band of the CLI) sums on each side only the start and the
other side's sources, since the kernel vanishes on a line's own, and takes
that cross kernel as one Toeplitz row per side.  Every other band, from
callables or lines, sums every source.  Both methods check the band by
gm_core.check_posed, the closed form on its lines at the start (its sides
of one slope never meet) and Volterra on the rows to_clock maps.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import InvalidParams
from .fpt import DensityCurve, _solver_grid, _volterra
from .gm_core import check_posed, to_clock
from .growth_curve import _as_out, _check_span

_SINE_FROM = 0.5                # R/L^2 above which the sine series is summed
_ORDERS = np.arange(-6.0, 7.0)  # image orders n
_MODES = np.arange(1.0, 9.0)    # sine terms k
_EXP_MIN = -708.0               # exp(x) is subnormal or 0 below about -708.4


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


def fet_pdf_closed(model, lower, upper, x0: float, t0: float, t):
    """Closed-form exit density from (x0, t0) out of the band between two
    boundaries of the model's closed-form family (see fpt.fpt_pdf_closed),
    at the times t (a scalar or an array).

    In model.coord(x0, t0) the sides are the lines c1 + d*R and c2 + d*R of
    one slope d, with c1 < 0 < c2: the start lies strictly inside.  A
    Wiener band c_i + slope*t of wiener_spec(sigma) from (c, 0) is the
    DanielsBoundary(d1=slope/sigma^2, d2=c_i) pair from x0 = c; a band of
    mean proportions nu_i started at nu*x0 is the pair
    mean_boundary(nu_i) of the lognormal or the additive process from
    nu*x0.
    """
    t = _check_span(t, t0, after=True)
    coord = model.coord(x0, t0)
    (c1, d), (c2, d2) = coord.line(lower), coord.line(upper)
    check_posed([[c1 + d * 0.0], [c2 + d2 * 0.0]])  # the lines at the start, R = 0
    if d != d2:
        raise InvalidParams(f"band sides of slopes {d} and {d2} have no closed form")
    R = np.asarray(coord.clock(t), dtype=float)
    moved = R > 0.0  # the density is 0 where the clock has not moved
    dens = coord.rate(t) * _band_exit(np.where(moved, R, 1.0), -c1, c2, -d)
    return _as_out(np.where(moved, dens, 0.0))


def volterra_fet(model, lower, upper, x0: float, t0: float,
                 grid: np.ndarray) -> Tuple[DensityCurve, DensityCurve, DensityCurve]:
    """Coupled product-integration solution for a C^1 band of the model,
    each side a boundary of the model's closed-form family or a
    GeneralBoundary, from (x0, t0) strictly inside it.

    Returns (gamma1, gamma2, gamma): exit-through-lower, exit-through-upper,
    and their sum, on the supplied uniform grid starting at t0.
    """
    grid, h = _solver_grid(grid, t0)
    R, rate, S, S_dot, lines = to_clock(model, [lower, upper], x0, grid)
    check_posed(S)
    g1, g2 = _volterra(R, rate, S, S_dot, h, lines)
    return tuple(DensityCurve(times=grid, values=v) for v in (g1, g2, g1 + g2))
