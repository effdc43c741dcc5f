"""Additive-noise extension of the growth curve.

The state solves dX = h(t) X dt + sigma dW with state space all of R (the
process may legitimately go negative).  Conditionally on X(tau) = y the state
at t is Gaussian:

    mean      M = y * g(tau) / g(t)
    variance  V = sigma^2 * g(t)^{-2} * int_tau^t g(u)^2 du

The variance is the state-transition-matrix form of the SDE solution
X(t) = x0 g(t0)/g(t) + sigma * int (g(u)/g(t)) dW(u); composing two Gaussian
steps reproduces it exactly, which pins the form down independently of any
printed formula (and the Monte Carlo suite re-checks it).

As a Gauss-Markov triple the process has m = 0, k2 = 1/g and
k1 = sigma^2 * k2(t) * P(t) with P(t) = int_{t0}^t g(u)^2 du, so its
intrinsic clock is r = sigma^2 * P with r' = sigma^2 * g^2; in it x*g is a
driftless Wiener process (OUProcess.coord).  int_g2 reads P
on a whole grid of times in one call: composite 16-point Gauss-Legendre
panels no wider than PANEL_WIDTH (quadrature.panel_integrals), one
vectorised evaluation of g at every node and one cumulative sum.  The tests
hold it to 1e-12 relative error against scipy.integrate.quad at epsrel
1e-13, which shares no code with it, on every curve regime, grids ending at
0.999 of a finite domain end included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InvalidParams, OrderError
from .gm_core import GMSpec, TransitionLaw, WienerCoord
from .growth_curve import GrowthParams, _as_out, _check_times, _core, _g, h_eval
from .quadrature import panel_integrals

PANEL_WIDTH = 0.5


@dataclass(frozen=True)
class AffineGMBoundary:
    """Boundary (1/g(t)) * {A + B*sigma^2*int_{t0}^t g(u)^2 du} for the
    additive-noise process, anchored at the start time t0; a Daniels
    boundary of its Gauss-Markov triple.

    With B = 0 and A = nu * x0 * g(t0) this is nu times the conditional mean.
    """

    A: float
    B: float = 0.0


@dataclass(frozen=True)
class OUProcess:
    params: GrowthParams
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0):
            raise InvalidParams(f"sigma must be > 0, got {self.sigma}")

    def coord(self, x0: float, t0: float) -> WienerCoord:
        """The Wiener coordinate from the start (x0, t0):

            w = x g(t) - x0 g(t0),   R = sigma^2 int_{t0}^t g^2,  R' = sigma^2 g^2,

        with dw/dx = g(t), in which an AffineGMBoundary is the line
        c = A - x0 g(t0), d = B.
        """
        params = self.params
        s2 = self.sigma * self.sigma
        p0 = int_g2(params, t0)
        w0 = x0 * _g(params, t0)

        def rate(t):
            g = _g(params, t)
            return s2 * g * g

        def line(b):
            if not isinstance(b, AffineGMBoundary):
                raise ConfigError(f"{type(b).__name__} is not a closed-form "
                                  "boundary of the additive process")
            return b.A - w0, b.B

        return WienerCoord(
            clock=lambda t: s2 * (int_g2(params, t) - p0), rate=rate,
            to_coord=lambda x, t: _as_out(np.asarray(x, dtype=float) * _g(params, t) - w0),
            to_state=lambda w, t: _as_out((w + w0) / _g(params, t)),
            jacobian=lambda x, t: _g(params, t), line=line)

    def mean_boundary(self, nu: float) -> AffineGMBoundary:
        """nu times the conditional mean from the start of params."""
        params = self.params
        return AffineGMBoundary(A=nu * params.x0 * _g(params, params.t0))


def int_g2(params: GrowthParams, ts):
    """P(t) = int_{t0}^t g(u)^2 du at every time of `ts`.

    [t0, max ts] is cut into panels PANEL_WIDTH wide on a lattice anchored at
    t0, and each time adds one panel from the lattice point below it up to
    itself.  Every panel gets the 16-point Gauss-Legendre rule, g is
    evaluated at all nodes at once, and one cumulative sum accumulates the
    lattice.  A time's value does not depend on the other times asked for,
    so a scalar call and an array call agree exactly.  The Gauss nodes are
    interior to their panels, so a time may sit on a finite domain end.  An
    array comes back with the shape of `ts`, a scalar as a float.
    """
    ts = np.asarray(ts, dtype=float)
    flat = ts.reshape(-1)
    if flat.min() < params.t0:
        raise OrderError(f"times must not precede t0={params.t0}")
    t_star = _core(params).t_star
    if flat.max() > t_star:
        raise DomainError(f"t={flat.max()} beyond the domain end t_star={t_star}")
    k = np.floor((flat - params.t0) / PANEL_WIDTH).astype(np.intp)
    lattice = params.t0 + PANEL_WIDTH * np.arange(k.max() + 1)
    left = np.concatenate((lattice[:-1], np.minimum(lattice[k], flat)))
    right = np.concatenate((lattice[1:], flat))

    def g2(u):
        g = _g(params, u)
        return g * g

    panels = panel_integrals(g2, left, right)
    n_full = lattice.size - 1
    prefix = np.concatenate(([0.0], np.cumsum(panels[:n_full])))
    return _as_out((prefix[k] + panels[n_full:]).reshape(ts.shape))


def transition_law_G(proc: OUProcess, y: float, tau: float, t) -> TransitionLaw:
    """Gaussian law on coord(y, tau): w ~ N(0, R), mean y g(tau)/g(t),
    variance R/g(t)^2."""
    _check_times(proc.params, tau, t)
    coord, gt = proc.coord(y, tau), _g(proc.params, t)
    R, mean = coord.clock(t), _as_out(y * (_g(proc.params, tau) / gt))
    return TransitionLaw(coord, t, R, mean, _as_out(R / (gt * gt)))


def gm_spec_G(proc: OUProcess) -> GMSpec:
    """Gauss-Markov triple of the additive-noise process.

    k2 = 1/g with k2' = h/g, and the clock r and r' of coord from the start
    of params.  Every callable takes a scalar or an array of times; only r
    reads the Gauss-Legendre table of int_g2, so evaluating the spec reads
    it once.
    """
    params = proc.params
    coord = proc.coord(params.x0, params.t0)
    return GMSpec(m=lambda t: 0.0, m_dot=lambda t: 0.0, r=coord.clock, r_dot=coord.rate,
                  k2=lambda t: 1.0 / _g(params, t),
                  k2_dot=lambda t: h_eval(params, t) / _g(params, t))
