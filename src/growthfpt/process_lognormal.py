"""Multiplicative-noise extension of the growth curve.

The state solves dX = h(t) X dt + sigma X dW with X(t0) = x0 known exactly
(the initial size is treated as degenerate).  Conditionally on X(tau) = y the
state at t is lognormal with log-mean

    M = ln y + ln(g(tau)/g(t)) - sigma^2 (t - tau) / 2

and log-variance sigma^2 (t - tau), so the conditional mean y*g(tau)/g(t)
tracks the deterministic curve.  A log transform (LognormalProcess.coord)
turns the process into a driftless Wiener process, and an exponential-form
boundary into a straight line; every passage-time method reaches the
process that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, DomainError, InvalidParams, NonPositiveState
from .gm_core import GMSpec, WienerCoord, wiener_spec
from .growth_curve import GrowthParams, _as_out, _check_times, _g

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ExpBoundary:
    """Boundary A * exp{B t + int_{t0}^t h(xi) dxi} for the lognormal process,
    anchored at the start time t0: s(t0) = A * exp(B t0).

    With B = 0 and A = nu * x0 this is nu times the conditional mean of the
    process started at (x0, t0), i.e. a fixed percentage of the mean curve.
    """

    A: float
    B: float = 0.0

    def __post_init__(self) -> None:
        if not (self.A > 0.0):
            raise DomainError(f"boundary scale A must be > 0, got {self.A}")


@dataclass(frozen=True)
class LognormalProcess:
    params: GrowthParams
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0):
            raise InvalidParams(f"sigma must be > 0, got {self.sigma}")

    def coord(self, x0: float, t0: float) -> WienerCoord:
        """The Wiener coordinate from the start (x0, t0):

            w = ln(x/x0) + ln(g(t)/g(t0)) + R/2,   R = sigma^2 (t - t0),

        in which an ExpBoundary is the line c = ln(A e^{B t0}/x0),
        d = (B + sigma^2/2)/sigma^2.  Elapsed time and state ratios enter,
        so no large t0 or ln x0 cancels; the clock and the lines hold past
        t_star.
        """
        params = self.params
        s2 = self.sigma * self.sigma

        def clock(t):
            return _as_out(s2 * (np.asarray(t, dtype=float) - t0))

        def shift(t):  # w - ln(x/x0)
            return 0.5 * clock(t) + np.log(_g(params, t) / _g(params, t0))

        def to_coord(x, t):
            x = np.asarray(x, dtype=float)
            if np.any(x <= 0.0):
                raise NonPositiveState(f"state must be positive, got {x.min()}")
            return _as_out(np.log(x / x0) + shift(t))

        def to_state(w, t):
            return _as_out(x0 * np.exp(w - shift(t)))

        def line(b):
            if not isinstance(b, ExpBoundary):
                raise ConfigError(f"{type(b).__name__} is not a closed-form "
                                  "boundary of the multiplicative process")
            return math.log(b.A * math.exp(b.B * t0) / x0), (b.B + 0.5 * s2) / s2

        return WienerCoord(clock=clock, rate=lambda t: s2, to_coord=to_coord,
                           to_state=to_state, line=line)

    def mean_boundary(self, nu: float) -> ExpBoundary:
        """nu times the conditional mean from the start of params."""
        return ExpBoundary(A=nu * self.params.x0)


@dataclass(frozen=True)
class LognormalLaw:
    """Conditional law of X(t) given X(tau) = y (lognormal)."""

    log_mean: float      # mean of ln X(t)
    log_variance: float  # variance of ln X(t)
    mean: float
    variance: float

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if self.log_variance == 0.0:
            return math.inf if math.log(x) == self.log_mean else 0.0
        z = math.log(x) - self.log_mean
        return math.exp(-z * z / (2.0 * self.log_variance)) / (
            x * _SQRT2PI * math.sqrt(self.log_variance))

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if self.log_variance == 0.0:
            return 0.0 if math.log(x) < self.log_mean else 1.0
        z = (math.log(x) - self.log_mean) / math.sqrt(2.0 * self.log_variance)
        return 0.5 * (1.0 + math.erf(z))


def transition_law_L(proc: LognormalProcess, y: float, tau: float,
                     t: float) -> LognormalLaw:
    """Lognormal transition law of the multiplicative-noise process."""
    if y <= 0.0:
        raise NonPositiveState(f"state must be positive, got {y}")
    _check_times(proc.params, tau, t)
    dt = t - tau
    s2 = proc.sigma * proc.sigma
    ratio = _g(proc.params, tau) / _g(proc.params, t)
    log_mean = math.log(y) + math.log(ratio) - 0.5 * s2 * dt
    log_var = s2 * dt
    mean = y * ratio
    variance = mean * mean * math.expm1(s2 * dt)
    return LognormalLaw(log_mean=log_mean, log_variance=log_var,
                        mean=mean, variance=variance)


def to_wiener_spec(proc: LognormalProcess) -> Tuple[
        GMSpec, Callable[[float, float], float], Callable[[float, float], float]]:
    """Wiener representation of the log process in absolute time.

    Returns (spec, transform, inverse) where spec has m = 0, k1 = sigma^2 t,
    k2 = 1, transform(x, t) maps a state to z = ln x + ln g(t) - ln g(t0)
    + sigma^2 t/2 (t0 of params), coord(1, t0) shifted by sigma^2 t0/2, and
    inverse(z, t) maps back.  All three take scalars or arrays.
    """
    t0 = proc.params.t0
    coord = proc.coord(1.0, t0)
    z1 = 0.5 * proc.sigma * proc.sigma * t0  # z of the state 1 at t0

    def transform(x, t):
        return _as_out(coord.to_coord(x, t) + z1)

    def inverse(z, t):
        return coord.to_state(np.asarray(z, dtype=float) - z1, t)

    return wiener_spec(proc.sigma), transform, inverse


def sample_transition_L(proc: LognormalProcess, y: float, tau: float, t: float,
                        rng: np.random.Generator) -> float:
    """Exact draw of X(t) given X(tau) = y; no discretization error."""
    law = transition_law_L(proc, y, tau, t)
    if law.log_variance == 0.0:
        return y
    z = rng.standard_normal()
    return math.exp(law.log_mean + math.sqrt(law.log_variance) * z)
