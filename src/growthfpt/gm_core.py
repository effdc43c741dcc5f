"""Gauss-Markov processes via their covariance factorization, and the one
map of a passage problem into the Wiener coordinate.

A non-singular Gaussian process with mean m(t) is Markovian exactly when its
covariance factors as c(s, t) = k1(s) * k2(t) for s <= t, with
r(t) = k1(t)/k2(t) strictly increasing and k1*k2 > 0 on the interior.  GMSpec
holds (m, r, k2) and derivatives, read through GMSpec.coord; only r_ratio and
the variances of transition_law and infinitesimal_coeffs read r or k2 alone.

Every model (a GMSpec, LognormalProcess or OUProcess) has a WienerCoord from
a start (x0, t0): a map w of the state, 0 at the start, in which the process
is a unit Wiener process in a clock R from t0, so w(t) ~ N(0, R(t)), and
each boundary of the model's closed-form family is a line c + d*R.
TransitionLaw, the one transition law, is that Gaussian pushed through the
coordinate.  to_clock maps a first-passage problem of any model there,
reading the model only through its coordinate: a closed-form boundary as
its line, a boundary given as callables (GeneralBoundary) through the state
map, its Jacobian and the coordinate's rate dw/dt.  check_posed is the one
rule every method checks on those rows: finite, a lone boundary off the
start, and a band that holds the start strictly inside and whose sides
never meet.  boundary_fns maps a line back to state-space callables.  The
kernel psi reads the clock and the boundary rows alone.
Every time function of a spec, and the laws built from it, take a scalar or
a numpy array of times; transition_law and psi_kernel check theirs by
growth_curve._check_span.  check_noise is the noise rule of wiener_spec,
of both processes and of the CLI's noise.sigma.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (BandCrossing, ConfigError, DomainError, InvalidParams,
                     StartOnBoundary, StartOutsideBand)
from .growth_curve import _as_out, _check_span

_SQRT2PI = math.sqrt(2.0 * math.pi)
_erf = np.vectorize(math.erf, otypes=[float])

TimeFn = Callable[[float], float]


def on_grid(fn: TimeFn, t) -> np.ndarray:
    """fn at a time or an array of times, a constant return broadcast to
    the shape of t."""
    value = np.asarray(fn(t), dtype=float)
    shape = np.shape(t)
    return value if value.shape == shape else np.full(shape, value)


@dataclass(frozen=True)
class GMSpec:
    """A Gauss-Markov process as evaluable (m, r, k2) with derivatives.

    The triple is held through the intrinsic clock r = k1/k2 rather than k1:
    every density reads r, and k1 = r*k2 and k1' = r'*k2 + r*k2' follow
    from it.  Each callable takes a scalar or an array of times
    and may return a constant, which on_grid broadcasts.  Derivatives are
    supplied analytically by whoever builds the spec; nothing here
    differentiates numerically, which keeps the first-passage kernels
    smooth.  The callables must be pure and immutable after construction.
    """

    m: TimeFn
    m_dot: TimeFn
    r: TimeFn
    r_dot: TimeFn
    k2: TimeFn
    k2_dot: TimeFn

    def coord(self, x0: float, t0: float) -> WienerCoord:
        """The Wiener coordinate from the start (x0, t0): w = (x - m)/k2 - y0
        with y0 = (x0 - m(t0))/k2(t0), R = r(t) - r(t0), dw/dx = 1/k2 and
        dw/dt = -(m' + (x - m) k2'/k2)/k2, in which a DanielsBoundary is the
        line c = d2 + d1 r(t0) - y0, d = d1."""
        m, k2 = (lambda t: on_grid(self.m, t)), (lambda t: on_grid(self.k2, t))
        m_dot, k2_dot = (lambda t: on_grid(self.m_dot, t)), (lambda t: on_grid(self.k2_dot, t))
        y0, r0 = float((x0 - m(t0)) / k2(t0)), float(on_grid(self.r, t0))

        def line(b):
            if not isinstance(b, DanielsBoundary):
                raise ConfigError(f"{type(b).__name__} is not a closed-form "
                                  "boundary of a Gauss-Markov spec")
            return b.d2 + b.d1 * r0 - y0, b.d1

        return WienerCoord(
            clock=lambda t: _as_out(on_grid(self.r, t) - r0),
            rate=lambda t: _as_out(on_grid(self.r_dot, t)),
            to_coord=lambda x, t: _as_out((np.asarray(x, dtype=float) - m(t)) / k2(t) - y0),
            to_state=lambda w, t: _as_out(m(t) + k2(t) * (np.asarray(w, dtype=float) + y0)),
            jacobian=lambda x, t: _as_out(1.0 / k2(t)),
            dw_dt=lambda x, t: _as_out((m_dot(t) + (x - m(t)) * k2_dot(t) / k2(t)) / -k2(t)),
            line=line)


def clock_spec(r: TimeFn, r_dot: TimeFn) -> GMSpec:
    """Driftless unit Wiener process run in the clock r: m = 0, k1 = r,
    k2 = 1."""
    return GMSpec(m=lambda t: 0.0, m_dot=lambda t: 0.0, r=r, r_dot=r_dot,
                  k2=lambda t: 1.0, k2_dot=lambda t: 0.0)


def check_noise(sigma: float) -> None:
    """The noise rule of every process: sigma is finite and positive, and
    sigma**2, which scales every clock, is a positive normal float: it
    neither underflows to 0 or a subnormal nor overflows."""
    if not (0.0 < sigma < math.inf
            and sys.float_info.min <= float(sigma) * float(sigma) < math.inf):
        raise InvalidParams(f"sigma must be finite and > 0, and sigma**2 a positive "
                            f"normal float, got {sigma}")


def wiener_spec(sigma: float) -> GMSpec:
    """Driftless Wiener process with variance sigma^2 per unit time:
    m = 0, k1 = sigma^2 * t, k2 = 1."""
    check_noise(sigma)
    s2 = sigma * sigma
    return clock_spec(lambda t: s2 * t, lambda t: s2)


@dataclass(frozen=True)
class WienerCoord:
    """A process seen from a start (x0, t0) as a driftless unit Wiener
    process w, 0 at the start, in a clock R measured from t0.

    clock(t), rate(t): R and R'.  to_coord(x, t), to_state(w, t): the state
    map and its inverse; jacobian(x, t): dw/dx; dw_dt(x, t): the rate of w
    in time at a fixed state x.  line(b): (c, d) of a closed-form boundary b
    of the process, whose image is w = c + d*R.  All take scalars or arrays.
    States at or below floor are off the state space (0 for the lognormal
    process), where to_coord may raise.
    """

    clock: TimeFn
    rate: TimeFn
    to_coord: Callable
    to_state: Callable
    jacobian: Callable
    dw_dt: Callable
    line: Callable
    floor: float = -math.inf

    @property
    def spec(self) -> GMSpec:
        """The coordinate as a Gauss-Markov triple: m = 0, r = R, k2 = 1."""
        return clock_spec(self.clock, self.rate)


@dataclass(frozen=True)
class DanielsBoundary:
    """Boundary s(t) = m(t) + d1*k1(t) + d2*k2(t).

    On boundaries of this family the first-passage kernel vanishes
    identically and the passage density is available in closed form.
    """

    d1: float
    d2: float


@dataclass(frozen=True)
class GeneralBoundary:
    """A C^1 boundary given by its value and derivative callables.

    Both take a scalar or a numpy array of times (write them with numpy
    functions); a callable may return a constant scalar for every time.
    """

    s: TimeFn
    s_dot: TimeFn


def boundary_fns(model, b, x0: float, t0: float) -> GeneralBoundary:
    """State-space callables of a closed-form boundary b of the model: its
    line c + d*R in model.coord(x0, t0) mapped back, s = to_state(c + d*R),
    and s' = (d*R' - dw/dt)/(dw/dx) at s."""
    coord = model.coord(x0, t0)
    c, d = coord.line(b)

    def s(t):
        return coord.to_state(c + d * coord.clock(t), t)

    def s_dot(t):
        x = s(t)
        return _as_out((d * coord.rate(t) - coord.dw_dt(x, t)) / coord.jacobian(x, t))

    return GeneralBoundary(s=s, s_dot=s_dot)


def r_ratio(spec: GMSpec, t) -> Tuple[float, float]:
    """The intrinsic clock r(t) = k1/k2 and its derivative r'(t)."""
    return _as_out(on_grid(spec.r, t)), _as_out(on_grid(spec.r_dot, t))


@dataclass(frozen=True)
class TransitionLaw:
    """Law of X(t) given X(tau) = y: w(t) ~ N(0, R) in coord, the Wiener
    coordinate from (y, tau), pushed through its maps.

    R = coord.clock(t); mean and variance are those of X, in closed form
    from the constructor.  A zero R is a point mass at y (w = 0), and states
    at or below coord.floor carry no mass.  t, every field and every result
    may be a scalar or an array.
    """

    coord: WienerCoord
    t: object
    R: object
    mean: object
    variance: object

    def _coord_of(self, x):
        """(x, read at the mean off the state space; its w, -inf there)."""
        x = np.asarray(x, dtype=float)
        inside = x > self.coord.floor
        x_in = np.where(inside, x, self.mean)
        return x_in, np.where(inside, self.coord.to_coord(x_in, self.t), -math.inf)

    def pdf(self, x):
        """phi(w; R) * dw/dx at x; a zero R gives inf at y, 0 elsewhere."""
        x_in, w = self._coord_of(x)
        R = np.asarray(self.R, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = (np.exp(-w * w / (2.0 * R)) / (_SQRT2PI * np.sqrt(R))
                    * self.coord.jacobian(x_in, self.t))
        return _as_out(np.where(R == 0.0, np.where(w == 0.0, math.inf, 0.0), dens))

    def cdf(self, x):
        """Phi(w / sqrt(R)) at x; a zero R gives a step at y (0 below it, 1
        from it on)."""
        _, w = self._coord_of(x)
        R = np.asarray(self.R, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            prob = 0.5 * (1.0 + _erf(w / np.sqrt(2.0 * R)))
        return _as_out(np.where(R == 0.0, np.where(w < 0.0, 0.0, 1.0), prob))

    def sample(self, rng: np.random.Generator, size=None):
        """Exact draws to_state(sqrt(R) Z, t), Z standard normal of shape
        `size` (broadcast against t); None draws one value per time."""
        z = rng.standard_normal(np.shape(self.R) if size is None else size)
        return self.coord.to_state(np.sqrt(self.R) * z, self.t)


def transition_law(spec: GMSpec, y: float, tau: float, t) -> TransitionLaw:
    """Law of X(t) given X(tau) = y, tau <= t, on coord = spec.coord(y, tau):
    R = coord.clock(t), mean coord.to_state(0, t) = m(t) + (k2(t)/k2(tau))
    (y - m(tau)), variance k2(t)^2 R (a GMSpec's k2; no other model has one)."""
    _check_span(t, tau)
    coord, k2 = spec.coord(y, tau), on_grid(spec.k2, t)
    R = np.where(np.equal(t, tau), 0.0, np.maximum(coord.clock(t), 0.0))
    return TransitionLaw(coord, t, _as_out(R), coord.to_state(0.0, t), _as_out(k2 * k2 * R))


def infinitesimal_coeffs(spec: GMSpec, x: float, t: float) -> Tuple[float, float]:
    """Drift B1 and infinitesimal variance B2 of the process at (x, t), B1
    from spec.coord(x, t), in which the process is driftless:
    B1 = -(dw/dt)/(dw/dx) = m' + (x - m) k2'/k2 and B2 = k2^2 r' at t."""
    coord, k2 = spec.coord(x, t), on_grid(spec.k2, t)
    return _as_out(-coord.dw_dt(x, t) / coord.jacobian(x, t)), _as_out(k2 * k2 * coord.rate(t))


def to_clock(model, boundaries, x0: float, t):
    """(R, R', S, S', lines): a first-passage problem of the model (a GMSpec,
    LognormalProcess or OUProcess) from (x0, t[0]) on the times t, in its
    Wiener coordinate coord = model.coord(x0, t[0]), where the start is the
    origin and the process a unit Wiener process in the clock R.

    Each boundary is one row of S and S'.  A boundary of the model's
    closed-form family is its line coord.line(b) = (c, d): S = c + d*R and
    S' = d*R'.  A GeneralBoundary is mapped through the coordinate:
    S = to_coord(s) and S' = s'*dw/dx + dw/dt at s (its s and s_dot take
    arrays).  lines holds each row's (c, d) where it is a line, on which psi
    vanishes from its own sources, and None where it came from callables;
    fpt._volterra skips those sources for one line and for a band of lines
    whose cross kernel depends on the lag alone.
    """
    t = np.asarray(t, dtype=float)
    coord = model.coord(x0, float(t[0]))
    R, rate = on_grid(coord.clock, t), on_grid(coord.rate, t)
    S, S_dot, lines = [], [], []
    for b in boundaries:
        if isinstance(b, GeneralBoundary):
            x = on_grid(b.s, t)
            S.append(coord.to_coord(x, t))
            S_dot.append(on_grid(b.s_dot, t) * coord.jacobian(x, t) + coord.dw_dt(x, t))
            lines.append(None)
        else:
            c, d = coord.line(b)
            S.append(c + d * R)
            S_dot.append(d * rate)
            lines.append((c, d))
    return R, rate, np.array(S), np.array(S_dot), lines


def check_posed(S) -> None:
    """The rule of every method, on a problem's boundary rows S in its Wiener
    coordinate, column 0 at the start (w = 0): all finite, a lone row off 0,
    and a band's start strictly between its rows (checked first, so swapped
    sides raise StartOutsideBand), the first row below the second throughout."""
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise DomainError("a boundary is not finite")
    if len(S) == 1 and S[0, 0] == 0.0:
        raise StartOnBoundary("the start lies on the boundary")
    if len(S) == 2 and not S[0, 0] < 0.0 < S[1, 0]:
        raise StartOutsideBand("the start is not strictly inside the band")
    if len(S) == 2 and np.any(S[0] >= S[1]):
        raise BandCrossing("lower boundary meets or exceeds the upper one")


def psi(dR, rate, S, S_dot, y):
    """Kernel of the first-passage Volterra equation of a unit Wiener
    process in the clock R at (t | y, tau), with dR = R(t) - R(tau) > 0,
    rate = R'(t) and the boundary (S, S_dot) at t; y and dR are arrays, one
    entry per source, or scalars:

        [S' - R'(t) (S - y)/dR] / 2 * exp(-(S - y)^2 / (2 dR)) / sqrt(2 pi dR).

    It vanishes on every line S = c + d*R started on it (the bracket is
    d R' - R' d dR/dR), so fpt._volterra skips it on a lone line's own
    sources and on a lognormal band's.  From a start y it is -sign(c) R'/2
    times the inverse-Gaussian passage density to the line c + d*dR,
    c = S(tau) - y: the line's closed form.  Through to_clock it is every
    model's kernel, since the passage density in time is the same in state
    space and in the coordinate.  This is the only copy.
    """
    gap = S - y
    bracket = 0.5 * (S_dot - rate * gap / dR)
    return bracket * np.exp(-gap * gap / (2.0 * dR)) / np.sqrt(2.0 * math.pi * dR)


def psi_kernel(model, boundary, t: float, y: float, tau: float) -> float:
    """Kernel of the first-passage Volterra equation of the model at
    (t | y, tau), for scalar times tau < t; `boundary` is a closed-form
    boundary of the model or a GeneralBoundary.  The formula is psi's, in
    the coordinate from (y, tau), whose origin is the source."""
    _check_span(t, tau, after=True)
    R, rate, S, S_dot, _ = to_clock(model, [boundary], y, np.array([tau, t]))
    return float(psi(R[1] - R[0], rate[1], S[0, 1], S_dot[0, 1], 0.0))
