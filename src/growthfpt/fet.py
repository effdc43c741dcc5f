"""First-exit-time densities from a band between two boundaries.

A band of two boundaries of one closed-form family (fpt's module
docstring) is, in the model's coordinate from the start (GMSpec.coord,
LognormalProcess.coord, OUProcess.coord), a pair of lines c1 + d*R and
c2 + d*R of a unit Wiener process w started at 0, with c1 < 0 < c2 when
the start is inside.  Only a pair of one slope d has a closed form,
fet_pdf_closed(model, lower, upper, x0, t0, t).  For a Gauss-Markov band
s_i = m + a*k1 + c_i*k2 the lines are c_i - c + a*R in the clock
R = r(t) - r(t0), with the start at x0 = m + a*k1 + c*k2; the Wiener band
is the case r = sigma^2 t.

Side i lies a_i = |c_i| from the start across a strip of width
L = c2 - c1.  Each image term of its drifted exit density is the n = 0
term times (1 + 2nL/a_i) exp(-2nL(a_i + nL)/R), in which the drift does
not appear.  So the exit density through side i is the passage density
through that line alone, the inverse Gaussian IG_i of fpt_pdf_closed
(fpt._inverse_gaussian), times the strip ratio r_i <= 1 (_strip_ratio):

    f_i(R) = IG_i(R) r_i(R),

and fet_pdf_closed is R'(t) sum_i IG_i r_i.  Monte Carlo accepts a
proposed exit with the same ratio (montecarlo._strip_hits), and a bridge's
stay in the strip, _strip_stay, is summed here with the same terms.  The
ratio of the side at distance a is one of two series,

    image  sum_{|n| <= 3} (1 + 2nL/a) exp(-2nL(a + nL)/R)
    sine   sqrt(2 pi R^3) pi/(a L^2) sum_{k=1..5} k sin(k pi a/L)
           exp(a^2/(2R) - k^2 pi^2 R/(2 L^2)),

the image series where R <= L^2/2 and the sine (eigenfunction) series
above (ORDERS = 3, MODES = 5).  The number of terms is fixed in advance
(Navarro & Fuss 2009, J. Math. Psych. 53), so no tolerance or cap is
left.  Relative to the n = 0 term, the first omitted image pair
(n = +-4) is below 258 e^-48 = 4e-19 at R = L^2/2, and below 3e-17 up to
R/L^2 = 0.6 for a start at least L/1000 from either side; relative to the
first sine term, the first omitted one (k = 6) is below 36 e^-86 = 1e-36
at R = L^2/2, and below 7e-18 from R/L^2 = 0.25.  So the switch sits
inside the range where both forms reach double precision.  (Beyond
R/L^2 = 0.6 the image series needs more orders; below 0.25 the sine
series needs more terms.)  Each term's exponents are added before exp,
and a term whose exponent lies below EXP_FLOOR is exactly 0
(_exp_floored), so no ratio is negative and none is 0 times an overflow,
however long the time: past about 140 L^2 every sine term, and so the
ratio, is 0.

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
from typing import Callable, Tuple

import numpy as np

from .errors import InvalidParams
from .fpt import DensityCurve, _inverse_gaussian, _solver_grid, _volterra
from .gm_core import check_posed, to_clock
from .growth_curve import _as_out, _check_span

_SINE_FROM = 0.5  # R/L^2 above which the strip's sine series is summed
# the strip's series: image orders |n| <= ORDERS, sine terms k <= MODES; a term
# whose exponent lies below EXP_FLOOR is exactly 0: it would add below 1e-304,
# and numpy's exp is 10 to 200 times slower from about -708 down
ORDERS, MODES, EXP_FLOOR = 3, 5, -700.0


def _exp_floored(E: np.ndarray) -> np.ndarray:
    """exp(E) in place, exactly 0 where E < EXP_FLOOR: E is floored there
    first, and the term then multiplied by the keep mask, which is 3 to 6
    times cheaper than a masked exp when many terms are floored."""
    keep = E >= EXP_FLOOR
    np.exp(np.maximum(E, EXP_FLOOR, out=E), out=E)
    return np.multiply(E, keep, out=E)


def _strip_ratio(a: np.ndarray, L: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """ratio(side, tau): the ratio r_s(tau) = f_s/IG_s (module docstring) of
    each side side[i] (one side for every time when side is an int) of the
    strip of width L from the start distances a (one per side), at the 1-d
    clock times tau > 0.  It is summed relative to IG_s, so nothing
    divides 0 by 0.  A term is w exp(A/tau + B tau), B = 0 in the image
    form, each side's w, A and B formed once, here; a row per term, a
    column per time.  numpy sums fewer than 8 rows down each column in
    order, whatever the number of columns, so no time's value depends on
    the others in the call.  The sine form multiplies its sum by tau and
    then by sqrt(tau), so a sum of 0 stays 0 at any finite tau."""
    n, k = np.arange(-ORDERS, ORDERS + 1.0)[:, None], np.arange(1.0, MODES + 1.0)[:, None]
    forms = [[(1.0 + 2.0 * L * n / x, -2.0 * L * n * (x + n * L), 0.0),
              (k * np.sin(k * math.pi * x / L) * (math.sqrt(2.0 * math.pi) * math.pi / L / L / x),
               0.5 * x * x, -0.5 * (k * math.pi / L) ** 2)] for x in a]

    def ratio(side, tau: np.ndarray) -> np.ndarray:
        r, long = np.empty(tau.shape), tau > _SINE_FROM * L * L
        for s, form in ((s, form) for s in range(len(a)) for form in (0, 1)):
            at = np.flatnonzero((side == s) & (long == form))
            if not at.size:
                continue
            (w, A, B), t = forms[s][form], tau[at]
            E = _exp_floored(A / t + B * t if form else A / t)
            terms = np.sum(np.multiply(E, w, out=E), axis=0)
            r[at] = terms * t * np.sqrt(t) if form else terms
        return r

    return ratio


def _strip_stay(a: float, b: np.ndarray, V: float, L: float) -> np.ndarray:
    """P_stay of Brownian bridges over the clock V from a to the ends b in
    the strip (0, L) (Anderson 1960): up to V = _SINE_FROM L^2 the image
    series sum_{|n| <= ORDERS} [exp(-2nL(nL + b - a)/V) - exp(-2(nL + a)
    (nL + b)/V)], which omits below e^-36 = 2.3e-16, a uniform's resolution;
    above, the sine series (2/L) sqrt(2 pi V) sum_{k=1..MODES} sin(k pi a/L)
    sin(k pi b/L) exp((b - a)^2/(2V) - k^2 pi^2 V/(2 L^2)), which omits
    below 1e-37."""
    if V <= _SINE_FROM * L * L:
        n = np.arange(-ORDERS, ORDERS + 1.0)[:, None] * L
        return np.sum(_exp_floored((-2.0 / V) * n * (n + b - a))
                      - _exp_floored((-2.0 / V) * (n + a) * (n + b)), axis=0)
    k = np.arange(1.0, MODES + 1.0)[:, None] * (math.pi / L)
    E = _exp_floored((b - a) ** 2 / (2.0 * V) - 0.5 * k * k * V)
    return 2.0 / L * math.sqrt(2.0 * math.pi * V) * np.sum(np.sin(k * a) * np.sin(k * b) * E, 0)


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
    R = np.where(moved, R, 1.0).ravel()
    ratio = _strip_ratio(np.array([-c1, c2]), c2 - c1)
    exits = sum(_inverse_gaussian(c, d, R) * ratio(s, R) for s, c in enumerate((c1, c2)))
    return _as_out(np.where(moved, coord.rate(t) * exits.reshape(moved.shape), 0.0))


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
