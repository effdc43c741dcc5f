"""Deterministic growth curve, its reparametrization, and the fertility rate.

The curve solves

    dx/dt = gamma * k^{n(p-1)} * x^{1+n(1-p)} * [1 - (x/k)^n]^p,   x(t0) = x0,

with shape parameters gamma, n > 0 and 0 < p < 1 + 1/n.  Writing
A_n = (k/x0)^n - 1, the solution can be carried by a single auxiliary
function

    g(t) = { eta + [1 + eta^{1-p} * ln(alpha) * (1-p) * t]^{1/(1-p)} }^{1/n},

    alpha = exp(-gamma*n),
    eta   = [A_n^{1-p} + n*gamma*(1-p)*t0]^{1/(p-1)},

so that x(t) = x0 * g(t0) / g(t).  The curve is then a Malthus law with
time-dependent fertility h(t) = -g'(t)/g(t) = -d/dt ln g(t), which is what
both diffusion extensions feed on.

Shape taxonomy (driven by p and the integrality of q = 1/(1-p)):

    1 <= p < 1+1/n   sigmoid saturating at the carrying capacity k
    0 < p < 1, q even integer    rise to k, plateau, decay to 0
    0 < p < 1, q odd integer     rise to k, plateau, finite-time blow-up
    0 < p < 1, q non-integer     reaches k exactly at a finite time t*

For p -> 1 the inner power collapses to alpha^t and g = (eta + alpha^t)^{1/n};
a dedicated branch evaluates that limit (and a log1p-stabilised variant close
to it) so the curve is continuous across p = 1.

Negative bases raised to q are continued with real signed powers when q is an
integer (within 1e-9); non-integer powers of negative numbers raise
DomainError.  That continuation is what produces the post-plateau behaviours
of the even/odd regimes.  In the odd regime g^n = eta + B^q falls to 0 where
B = -eta^{1/q}, and x blows up there: that root is the regime's domain end.

The evaluators (signed_pow, g_eval, x_eval, h_eval and the internal _g,
_g_pow_n) take a scalar or a numpy array of times: an array comes back as an
array of the same shape, a scalar as a float.

_check_span is the one time rule: every entry point of the package that
takes a time checks it there, saying only where the span starts, whether
the start is excluded and whether the curve's end applies and is included.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidParams, OrderError

# |1-p| at or below this: use the exact p -> 1 limit branch.
P_LIMIT_TOL = 1e-8
# |1-p| between P_LIMIT_TOL and this: evaluate bracket powers through log1p.
P_STABLE_TOL = 1e-5
# tolerance for recognising an integer exponent in signed powers
INT_TOL = 1e-9


def _as_out(a):
    """A 0-d result as a float; any other array as it is."""
    return a if getattr(a, "ndim", 0) else float(a)


def signed_pow(base, q: float):
    """base**q extended to negative bases when q is an integer.

    For base < 0 the real continuation sign(base)^m * |base|^q is used when q
    is within INT_TOL of an integer m; otherwise the value would be complex
    and DomainError is raised.
    """
    base = np.asarray(base, dtype=float)
    m = round(q)
    if abs(q - m) > INT_TOL:
        if base.size and base.min() < 0.0:
            raise DomainError(
                f"negative base {float(base.min())!r} with non-integer "
                f"exponent {q!r}")
        return _as_out(base ** q)
    # np.power, not **: np.abs of a 0-d array is a numpy scalar, whose ** is
    # libm's pow and can differ in the last bit from the array loop
    mag = np.power(np.abs(base), q)
    return _as_out(np.copysign(mag, base) if m % 2 else mag)


@dataclass(frozen=True)
class GrowthParams:
    """The six parameters of the growth curve.

    gamma, n : positive shape/rate parameters
    p        : shape parameter, 0 < p < 1 + 1/n
    k        : carrying capacity, k > x0
    x0       : initial size, 0 < x0 < k
    t0       : initial time, t0 >= 0
    """

    gamma: float
    n: float
    p: float
    k: float
    x0: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma", "n", "p", "k", "x0", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.gamma > 0.0):
            raise InvalidParams(f"gamma must be > 0, got {self.gamma}")
        if not (self.n > 0.0):
            raise InvalidParams(f"n must be > 0, got {self.n}")
        if not (self.k > 0.0):
            raise InvalidParams(f"k must be > 0, got {self.k}")
        if not (0.0 < self.x0 < self.k):
            raise InvalidParams(
                f"x0 must satisfy 0 < x0 < k, got x0={self.x0}, k={self.k}")
        if not (self.t0 >= 0.0):
            raise InvalidParams(f"t0 must be >= 0, got {self.t0}")
        if not (0.0 < self.p < 1.0 + 1.0 / self.n):
            raise InvalidParams(
                f"p must satisfy 0 < p < 1 + 1/n = {1.0 + 1.0 / self.n}, "
                f"got {self.p}")

    @property
    def a_n(self) -> float:
        """(k/x0)^n - 1, strictly positive for valid parameters."""
        return (self.k / self.x0) ** self.n - 1.0


@dataclass(frozen=True)
class ReparamCoeffs:
    """Reparametrization pair: alpha = exp(-gamma*n), eta > 0."""

    alpha: float
    eta: float


class CurveRegime(enum.Enum):
    SIGMOID_SATURATING = "SigmoidSaturating"
    PLATEAU_THEN_DECAY = "PlateauThenDecay"
    PLATEAU_THEN_GROWTH = "PlateauThenGrowth"
    FINITE_TIME_CEILING = "FiniteTimeCeiling"


@dataclass(frozen=True)
class TimeDomain:
    """Right end of the curve's real-valued time domain (may be +inf)."""

    t_star: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.t_star)


class _Core(NamedTuple):
    """Derived constants shared by every curve evaluation."""

    limit_branch: bool   # p within P_LIMIT_TOL of 1
    stable_branch: bool  # p close enough to 1 to need log1p evaluation
    alpha: float
    eta: float
    q: float        # 1/(1-p); meaningless on the limit branch
    slope: float    # eta^{1-p} * ln(alpha) * (1-p), sign-continued; 0 on limit
    regime: CurveRegime
    t_star: float


@lru_cache(maxsize=512)
def _core(params: GrowthParams) -> _Core:
    gamma, n, p, t0 = params.gamma, params.n, params.p, params.t0
    a_n = params.a_n
    alpha = math.exp(-gamma * n)
    ln_alpha = -gamma * n

    if abs(1.0 - p) <= P_LIMIT_TOL:
        # p -> 1: eta -> exp(-gamma*n*t0)/A_n and the bracket power -> alpha^t
        eta = math.exp(-gamma * n * t0) / a_n
        return _Core(True, False, alpha, eta, math.nan, 0.0,
                     CurveRegime.SIGMOID_SATURATING, math.inf)

    one_m_p = 1.0 - p
    q = 1.0 / one_m_p
    denom = a_n ** one_m_p + n * gamma * one_m_p * t0
    if denom == 0.0:
        raise DomainError(
            "reparametrization undefined: A_n^{1-p} + n*gamma*(1-p)*t0 = 0")
    if abs(1.0 - p) <= P_STABLE_TOL:
        # D = exp((1-p) log A_n) + small term; invert in log space
        eta = math.exp(math.log(denom) / (p - 1.0))
    else:
        eta = signed_pow(denom, 1.0 / (p - 1.0))
    if eta <= 0.0:
        raise DomainError(
            "reparametrization undefined: eta = "
            f"[{denom!r}]^(1/(p-1)) is not positive")
    # eta^{1-p} with the sign carried through equals 1/denom exactly; using
    # the positive real power of eta here would break the equivalence with
    # the direct solution whenever denom < 0 (large t0, p > 1, even 1/(p-1)).
    slope = ln_alpha * one_m_p / denom

    if p >= 1.0:
        regime = CurveRegime.SIGMOID_SATURATING
        t_star = math.inf
    else:
        q_int = round(q)
        if abs(q - q_int) <= INT_TOL and q_int % 2 == 0:
            regime = CurveRegime.PLATEAU_THEN_DECAY
            t_star = math.inf
        elif abs(q - q_int) <= INT_TOL:
            regime = CurveRegime.PLATEAU_THEN_GROWTH
            # g^n = eta + B^q reaches 0 where B = 1 + slope*t = -eta^{1/q}
            t_star = -(1.0 + eta ** (1.0 / q)) / slope
        else:
            regime = CurveRegime.FINITE_TIME_CEILING
            t_star = -1.0 / slope  # root of the bracket 1 + slope*t
    return _Core(False, abs(1.0 - p) <= P_STABLE_TOL, alpha, eta, q, slope,
                 regime, t_star)


def reparametrize(params: GrowthParams) -> ReparamCoeffs:
    """Map the native parameters to the (alpha, eta) pair carrying g."""
    c = _core(params)
    return ReparamCoeffs(alpha=c.alpha, eta=c.eta)


def classify_regime(params: GrowthParams) -> CurveRegime:
    """Qualitative shape class of the curve (see module docstring)."""
    return _core(params).regime


def domain_end(params: GrowthParams) -> TimeDomain:
    """Right end of the domain: the time the curve reaches k in the
    finite-time-ceiling regime, the blow-up time in the odd-integer regime.

    The even-integer bracket exponent continues through the bracket's zero
    with g^n >= eta, and for p > 1 the bracket is increasing, so those
    regimes extend to +inf.
    """
    return TimeDomain(t_star=_core(params).t_star)


def _check_span(t, start: float, params: GrowthParams | None = None, *,
                after: bool = False, to_t_star: bool = False) -> np.ndarray:
    """The one time rule: the times t (a scalar or an array) as an array,
    checked to span from `start`.

    Every time and the start are finite (DomainError), and no time precedes
    the start, nor reaches it when `after` (OrderError).  Given the curve's
    params the span also lies in its domain: the start does not precede t0
    (OrderError) and no time reaches t_star, or passes it when `to_t_star`
    (DomainError).
    """
    t = np.asarray(t, dtype=float)
    ends = (float(t.min()), float(t.max())) if t.size else ()
    if not all(math.isfinite(v) for v in (start, *ends)):
        raise DomainError(f"times must be finite, got start {start} and "
                          f"(min, max) t {ends}")
    if params is not None and start < params.t0:
        raise OrderError(f"start {start} precedes the initial time t0={params.t0}")
    if not ends:
        return t
    lo, hi = ends
    if lo < start or after and lo == start:
        raise OrderError(f"t={lo} {'does not follow' if after else 'precedes'} "
                         f"the start {start}")
    if params is not None:
        ts = _core(params).t_star
        if hi > ts or hi == ts and not to_t_star:
            raise DomainError(f"t={hi} {'beyond' if to_t_star else 'at or beyond'} "
                              f"the domain end t_star={ts}")
    return t


def _g_pow_n(params: GrowthParams, t):
    """g(t)^n, evaluated on whichever branch the parameters select."""
    c = _core(params)
    t = np.asarray(t, dtype=float)
    if c.limit_branch:
        return _as_out(c.eta + c.alpha ** t)
    arg = c.slope * t
    if c.stable_branch:
        return _as_out(c.eta + np.exp(c.q * np.log1p(arg)))
    return _as_out(c.eta + signed_pow(1.0 + arg, c.q))


def g_eval(params: GrowthParams, t):
    """The auxiliary function g(t); x(t) = x0*g(t0)/g(t)."""
    _check_span(t, params.t0, params, to_t_star=True)
    return _g(params, t)


def _g(params: GrowthParams, t):
    """Internal g(t) without the domain check."""
    return signed_pow(_g_pow_n(params, t), 1.0 / params.n)


def x_eval(params: GrowthParams, t):
    """Curve value x(t) = x0 * g(t0) / g(t).

    In the finite-time-ceiling regime evaluation exactly at the domain end
    returns k (the curve attains the carrying capacity there); beyond it, and
    at or beyond the odd-integer regime's blow-up, DomainError is raised.
    """
    c = _core(params)
    ceiling = c.regime is CurveRegime.FINITE_TIME_CEILING
    t = _check_span(t, params.t0, params, to_t_star=ceiling)
    x = params.x0 * _g(params, params.t0) / _g(params, t)
    if ceiling:
        x = np.where(t == c.t_star, params.k, x)
    return _as_out(x)


def h_eval(params: GrowthParams, t):
    """Fertility rate h(t) = -g'(t)/g(t) = -d/dt ln g(t)."""
    t = _check_span(t, params.t0, params)
    c = _core(params)
    if c.limit_branch:
        # g^n = eta + alpha^t, (g^n)' = alpha^t ln alpha = -gamma*n*alpha^t
        at = c.alpha ** t
        return _as_out(params.gamma * at / (c.eta + at))
    # (g^n)' = slope * q * B^{q-1} with B = 1 + slope*t; q-1 = p/(1-p)
    arg = c.slope * t
    if c.stable_branch:
        b_pow = np.exp((c.q - 1.0) * np.log1p(arg))
    else:
        b_pow = signed_pow(1.0 + arg, c.q - 1.0)
    return _as_out(-c.slope * c.q * b_pow / (params.n * _g_pow_n(params, t)))


def h_integral(params: GrowthParams, a: float, b: float) -> float:
    """Exact integral of h over [a, b], t0 <= a <= b < t_star:
    ln g(a) - ln g(b) (no quadrature)."""
    _check_span(b, a, params)
    if a == b:
        return 0.0
    return (math.log(_g_pow_n(params, a)) - math.log(_g_pow_n(params, b))) / params.n
