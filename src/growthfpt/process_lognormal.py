"""Multiplicative-noise extension of the growth curve.

The state solves dX = h(t) X dt + sigma X dW with X(t0) = x0 known exactly
(the initial size is treated as degenerate).  Conditionally on X(tau) = y the
state at t is lognormal with log-mean

    M = ln y + ln(g(tau)/g(t)) - sigma^2 (t - tau) / 2

and log-variance sigma^2 (t - tau), so the conditional mean y*g(tau)/g(t)
tracks the deterministic curve.  The log transform

    z = ln x + ln g(t) - ln g(t0) + sigma^2 t / 2

turns the process into a driftless Wiener process with variance rate
sigma^2, which is how the passage-time machinery reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import InvalidParams, NonPositiveState
from .gm_core import GMSpec, wiener_spec
from .growth_curve import GrowthParams, _as_out, _check_times, _g

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class LognormalProcess:
    params: GrowthParams
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0):
            raise InvalidParams(f"sigma must be > 0, got {self.sigma}")


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
    """Wiener representation of the log process.

    Returns (spec, transform, inverse) where spec has m = 0, k1 = sigma^2 t,
    k2 = 1, transform(x, t) maps a state to the Wiener coordinate and
    inverse(z, t) maps back; the round trip is the identity.  All three take
    scalars or arrays.
    """
    params = proc.params
    s2 = proc.sigma * proc.sigma
    log_g_t0 = math.log(_g(params, params.t0))

    def transform(x, t):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise NonPositiveState(f"state must be positive, got {x.min()}")
        return _as_out(np.log(x) + np.log(_g(params, t)) - log_g_t0 + 0.5 * s2 * t)

    def inverse(z, t):
        return _as_out(np.exp(z - 0.5 * s2 * t - np.log(_g(params, t)) + log_g_t0))

    return wiener_spec(proc.sigma), transform, inverse


def sample_transition_L(proc: LognormalProcess, y: float, tau: float, t: float,
                        rng: np.random.Generator) -> float:
    """Exact draw of X(t) given X(tau) = y; no discretization error."""
    law = transition_law_L(proc, y, tau, t)
    if law.log_variance == 0.0:
        return y
    z = rng.standard_normal()
    return math.exp(law.log_mean + math.sqrt(law.log_variance) * z)
