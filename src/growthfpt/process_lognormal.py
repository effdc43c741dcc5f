"""Multiplicative-noise extension of the growth curve.

The state solves dX = h(t) X dt + sigma X dW with X(t0) = x0 known exactly
(the initial size is treated as degenerate).  Conditionally on X(tau) = y the
state at t is lognormal with log-mean

    M = ln y + ln(g(tau)/g(t)) - sigma^2 (t - tau) / 2

and log-variance sigma^2 (t - tau), so the conditional mean y*g(tau)/g(t)
tracks the deterministic curve.  A log transform (LognormalProcess.coord)
turns the process into a driftless Wiener process, and an exponential-form
boundary into a straight line; the transition law and every passage-time
method reach the process that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NonPositiveState
from .gm_core import TransitionLaw, WienerCoord, check_noise
from .growth_curve import GrowthParams, _as_out, _check_span, _g, h_eval


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
        check_noise(self.sigma)

    def coord(self, x0: float, t0: float) -> WienerCoord:
        """The Wiener coordinate from the start (x0, t0):

            w = ln(x/x0) + ln(g(t)/g(t0)) + R/2,   R = sigma^2 (t - t0),

        with dw/dx = 1/x on x > 0 and dw/dt = sigma^2/2 - h(t), in which an
        ExpBoundary is the line
        c = ln(A/x0) + B t0, d = (B + sigma^2/2)/sigma^2.  Elapsed time
        and state ratios enter, so no large t0 or ln x0 cancels; the clock
        and the lines hold past t_star.  x0 must be positive.
        """
        if not x0 > 0.0:
            raise NonPositiveState(f"state must be positive, got {x0}")
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
            return math.log(b.A / x0) + b.B * t0, (b.B + 0.5 * s2) / s2

        return WienerCoord(clock=clock, rate=lambda t: s2, to_coord=to_coord,
                           to_state=to_state, line=line, floor=0.0,
                           jacobian=lambda x, t: _as_out(1.0 / np.asarray(x, dtype=float)),
                           dw_dt=lambda x, t: _as_out(0.5 * s2 - h_eval(params, t)))

    def mean_boundary(self, nu: float) -> ExpBoundary:
        """nu times the conditional mean from the start of params."""
        return ExpBoundary(A=nu * self.params.x0)


def transition_law_L(proc: LognormalProcess, y: float, tau: float, t) -> TransitionLaw:
    """Lognormal law on coord(y, tau): w ~ N(0, sigma^2 (t - tau)), mean
    y g(tau)/g(t), variance mean^2 (e^{sigma^2 (t - tau)} - 1)."""
    _check_span(t, tau, proc.params)
    coord = proc.coord(y, tau)
    R, mean = coord.clock(t), _as_out(y * (_g(proc.params, tau) / _g(proc.params, t)))
    return TransitionLaw(coord, t, R, mean, _as_out(mean * mean * np.expm1(R)))
