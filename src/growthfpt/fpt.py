"""First-passage-time densities through a single time-dependent boundary.

Seen from its start, each model is a driftless unit Wiener process w in its
own coordinate and clock R (gm_core.WienerCoord: GMSpec.coord,
LognormalProcess.coord, OUProcess.coord), and each closed-form boundary
family is a straight line w = c + d*R there:

  * Daniels-type boundaries m + d1*k1 + d2*k2 on any Gauss-Markov process,
    in the coordinate (X - m)/k2 and the clock r = k1/k2;
  * exponential-form boundaries A*exp{B t + int_{t0}^t h} for the
    multiplicative-noise process;
  * affine boundaries (A + B*sigma^2*int_{t0}^t g^2)/g for the
    additive-noise process.

So every closed form is one function, fpt_pdf_closed(model, b, x0, t0, t)
for any of the three models and its family: R'(t) times the first passage
of a unit Wiener process from 0 to the line c + d*R (inverse Gaussian),

    |c| / sqrt(2 pi R^3) * exp(-(c + d R)^2 / (2 R)).

fet_pdf_closed multiplies the same density (_inverse_gaussian) of each
side of a band by that side's strip ratio (fet's module docstring).

Everything else goes through a product-integration solver for the
second-kind Volterra equation

    g(t) = 2*sign * [Psi(t | x0, t0) - int_{t0}^t g(tau) * Psi(t | s(tau), tau) dtau],

with sign = +1 for a boundary below the start and -1 for one above it, so
no reflection of state space is needed.  volterra_fpt and volterra_fet take
a model as the closed forms do, with boundaries of its family or given as
callables (GeneralBoundary), and map the problem into the model's Wiener
coordinate from the start (gm_core.to_clock), where the density is the
same.  The one private solver, `_volterra`, works there from the clock
alone, with left rectangles, so the kernel diagonal is never touched.  It
serves the two-boundary system of fet with one sign per boundary, and
evaluates the one kernel, gm_core.psi.  Both methods check the problem by
gm_core.check_posed, the closed form on its line at the start and Volterra
on the rows to_clock maps, and their times by growth_curve._check_span;
DensityCurve takes only finite numbers.

A boundary of the model's family is a line of the clock, on which the
kernel vanishes from every source on the line itself.  One line is its
closed form, exact at the grid points, from one array call.  A band of two
lines of equal slope in a clock of constant rate (the lognormal bands) sums
on each side only the start and the other side's sources, whose kernel
depends on the lag alone: one Toeplitz row per side.  Every other problem,
from callables or other bands of lines, sums every source; there the sum
is first-order accurate in the step, and the discretisation error lives in
a curved boundary's kernel and in a band's cross term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, GridError
from .gm_core import (_SQRT2PI, GeneralBoundary,  # GeneralBoundary re-exported
                      check_posed, psi, to_clock)
from .growth_curve import _as_out, _check_span


@dataclass(frozen=True)
class DensityCurve:
    """A passage-time density sampled on an increasing time grid.

    `mass` is the trapezoid integral over the grid, i.e. the probability
    captured up to the final time: a value below one can mean either a
    genuinely defective density or plain horizon truncation, which is why
    the number is carried rather than renormalised away.
    """

    times: np.ndarray
    values: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise GridError("times and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise DomainError("times and values must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise GridError("times must be strictly increasing")
        peak = float(np.max(values)) if values.size else 0.0
        if values.size and float(np.min(values)) < -1e-8 * max(peak, 1e-300):
            raise DomainError("density values significantly negative")
        values = np.maximum(values, 0.0)
        mass = float(np.trapezoid(values, times))
        if mass > 1.0 + 1e-6:
            raise DomainError(f"density mass {mass} exceeds one")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mass", mass)

    def cumulative(self) -> np.ndarray:
        """Accumulated mass at each grid time (trapezoid prefix sums)."""
        if self.times.size < 2:
            return np.zeros_like(self.values)
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.times)
        return np.concatenate(([0.0], np.cumsum(seg)))

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray],
                      times: np.ndarray, t0: float) -> "DensityCurve":
        """A density sampled by one call of fn on the times after t0; the
        value is 0 at t0 and before it, where the closed forms are not
        defined but vanish in the limit."""
        times = np.asarray(times, dtype=float)
        later = times > t0
        values = np.zeros_like(times)
        values[later] = fn(times[later])
        return cls(times=times, values=values)


def fpt_pdf_closed(model, b, x0: float, t0: float, t):
    """Closed-form passage density from (x0, t0) through a boundary of the
    model's closed-form family, at the times t (a scalar or an array):

      * a GMSpec (wiener_spec too) and a DanielsBoundary,
      * a LognormalProcess and an ExpBoundary,
      * an OUProcess and an AffineGMBoundary, for t before t_star.

    It is R'(t) times the inverse-Gaussian passage density of the line
    w = c + d*R of b in model.coord(x0, t0), from either side.  The start
    must be off the boundary.
    """
    t = _check_span(t, t0, after=True)
    coord = model.coord(x0, t0)
    c, d = coord.line(b)
    check_posed([[c + d * 0.0]])  # the line at the start, R = 0
    return _as_out(_inverse_gaussian(c, d, coord.clock(t), coord.rate(t)))


@np.errstate(over="ignore")  # q*q overflows only where exp(-q*q/(2R)) is 0
def _inverse_gaussian(c: float, d: float, R, rate=1.0):
    """rate times the density at the clocks R > 0 of the first passage of
    a unit Wiener process from 0 through the line c + d*R."""
    q = d * R + c
    return abs(c) / R * rate * (np.exp(-q * q / (2.0 * R)) / (_SQRT2PI * np.sqrt(R)))


def _solver_grid(grid, t0: float):
    """(grid, step) of a solver grid: finite, uniform, increasing, starting
    at t0."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise GridError("grid must contain at least two times")
    _check_span(grid, t0)
    steps = np.diff(grid)
    h = steps[0]
    if h <= 0.0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise GridError("grid must be uniform and increasing")
    if not math.isclose(grid[0], t0, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(t0))):
        raise GridError(f"grid must start at t0={t0}, starts at {grid[0]}")
    return grid, float(h)


def _lag_only(r: np.ndarray, rate: np.ndarray, lines) -> bool:
    """Whether two rows are lines of one slope in a clock of constant rate
    and equal steps, where the kernel on one side from a source on the
    other depends on k - j alone.  The steps are equal to the tolerance of
    _solver_grid, which already weighs every source by one step h."""
    if lines[0][1] != lines[1][1]:
        return False
    steps = np.diff(r)
    return bool(np.all(rate == rate[0])
                and np.allclose(steps, steps.mean(), rtol=1e-9, atol=0.0))


def _volterra(R: np.ndarray, rate: np.ndarray, S: np.ndarray,
              S_dot: np.ndarray, h: float, lines) -> np.ndarray:
    """Passage densities through each of B boundaries before the others, of
    a unit Wiener process from 0 in the clock R (rate R' on the grid): a
    problem in its Wiener coordinate, as gm_core.to_clock maps it.

    S and S_dot hold the boundaries on the grid, one row each, and lines
    each row's (c, d) where it is the line c + d*R, else None.  With
    sign_b = +1 for a boundary below 0 and -1 for one above it,

        dens[b, k] = 2 sign_b (Psi_b(t_k | 0, t_0)
                               - h sum_a sum_{0<j<k} dens[a, j] Psi_b(t_k | S_a(t_j), t_j)).

    Psi_b vanishes on a line's own sources, so two cases sum only the
    start, one array call for all k, and the other row's sources:
      * one line alone is its closed form, exact at the grid points;
      * a band of two lines where the kernel on one side from the other
        depends on k - j alone (_lag_only): one call gives each side's
        Toeplitz row, and a step is one dot product per side.
    Otherwise every row sums every source, ordered by time, then boundary,
    with the start as source 0 of weight 1, so the sources before t_k are
    a prefix and each step makes one kernel call per row.  Returns dens,
    shape (B, K).
    """
    B, K = S.shape
    sign = np.where(S[:, 0] < 0.0, 1.0, -1.0)
    dens = np.zeros((B, K))
    lone = B == 1 and lines[0] is not None
    if lone or (B == 2 and None not in lines and _lag_only(R, rate, lines)):
        dens[:, 1:] = 2.0 * sign[:, None] * psi(R[1:] - R[0], rate[1:], S[:, 1:],
                                                S_dot[:, 1:], 0.0)
        if lone:
            return dens
        (c_lo, d), (c_hi, _) = lines
        # cross[b, i]: the kernel on side b from the other side K-1-i steps back
        lag = (R[-1] - R[0]) / (K - 1) * np.arange(K - 1.0, 0.0, -1.0)
        gap = np.array([[c_lo - c_hi], [c_hi - c_lo]]) + d * lag
        cross = (-2.0 * h) * sign[:, None] * psi(lag, rate[0], gap, d * rate[0], 0.0)
        for k in range(2, K):
            dens[0, k] += float(np.dot(dens[1, 1:k], cross[0, K - k:]))
            dens[1, k] += float(np.dot(dens[0, 1:k], cross[1, K - k:]))
        return dens
    y = np.concatenate(([0.0], S[:, 1:].T.ravel()))
    R_src = R[np.concatenate(([0], np.repeat(np.arange(1, K), B)))]
    weight = np.zeros(y.size)
    weight[0] = 1.0
    for k in range(1, K):
        n = 1 + B * (k - 1)
        dR = R[k] - R_src[:n]
        for b in range(B):
            row = psi(dR, rate[k], S[b, k], S_dot[b, k], y[:n])
            dens[b, k] = 2.0 * sign[b] * float(np.dot(weight[:n], row))
        weight[n:n + B] = -h * dens[:, k]
    return dens


def volterra_fpt(model, b, x0: float, t0: float, grid: np.ndarray) -> DensityCurve:
    """Product-integration solution of the passage-density Volterra equation
    on a uniform grid starting at t0, for a model as fpt_pdf_closed takes it
    and a boundary of its closed-form family or a GeneralBoundary.  The start
    must be strictly off the boundary, on either side of it.
    """
    grid, h = _solver_grid(grid, t0)
    R, rate, S, S_dot, lines = to_clock(model, [b], x0, grid)
    check_posed(S)
    return DensityCurve(times=grid, values=_volterra(R, rate, S, S_dot, h, lines)[0])
