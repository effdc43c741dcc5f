"""Reference values for the benchmark, computed apart from growthfpt.

Nothing here imports the package under test.  Each formula is written from
the model itself:

* the growth curve from its native ODE: with u = (k/x)^n - 1 the equation
  dx/dt = gamma k^{n(p-1)} x^{1+n(1-p)} [1 - (x/k)^n]^p becomes
  du/dt = -n gamma u^p, which integrates in closed form; the fertility is
  h = x'/x read off the same equation;
* the Bachelier-Levy (inverse-Gaussian) passage density and CDF of a
  Brownian motion through a level moving at constant speed;
* the band-exit densities of a Brownian motion with drift as eigenfunction
  (sine) series, with an image series for short times, and the exit-side
  probabilities from gambler's ruin with drift;
* the additive process read as a Brownian motion w = x * x0 / x_det(t) run
  in the clock rho(t) = sigma^2 int_{t0}^t (x0 / x_det)^2, the integral
  taken by scipy.integrate.quad.

All functions take numpy arrays of times and return arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# ---------------------------------------------------------------- the curve


def _spow(base: np.ndarray, q: float) -> np.ndarray:
    """base**q continued to negative bases for integer q (sign (-1)^q)."""
    m = round(q)
    if abs(q - m) > 1e-9:
        return np.power(base, q)
    mag = np.abs(base) ** q
    return mag if m % 2 == 0 else np.sign(base) * mag


class Curve:
    """The deterministic growth curve solved from its native equation."""

    def __init__(self, gamma: float, n: float, p: float, k: float, x0: float,
                 t0: float) -> None:
        self.gamma, self.n, self.p, self.k, self.x0, self.t0 = gamma, n, p, k, x0, t0
        self.u0 = (k / x0) ** n - 1.0

    def _base(self, t: np.ndarray) -> np.ndarray:
        """u^{1-p}, linear in t: u0^{1-p} - n gamma (1-p) (t - t0)."""
        one_m_p = 1.0 - self.p
        return self.u0 ** one_m_p - self.n * self.gamma * one_m_p * (t - self.t0)

    def u(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.p == 1.0:
            return self.u0 * np.exp(-self.n * self.gamma * (t - self.t0))
        return _spow(self._base(t), 1.0 / (1.0 - self.p))

    def x(self, t: np.ndarray) -> np.ndarray:
        return self.k * _spow(1.0 + self.u(t), -1.0 / self.n)

    def h(self, t: np.ndarray) -> np.ndarray:
        """Fertility x'/x = gamma u^p / (1 + u), u^p continued by u^{1-p}."""
        t = np.asarray(t, dtype=float)
        u = self.u(t)
        if self.p == 1.0:
            return self.gamma * u / (1.0 + u)
        q = 1.0 / (1.0 - self.p)
        return self.gamma * _spow(self._base(t), q - 1.0) / (1.0 + u)

    def t_plateau(self) -> float:
        """Time at which u reaches 0 (x reaches k), inf for p >= 1."""
        if self.p >= 1.0:
            return math.inf
        one_m_p = 1.0 - self.p
        return self.t0 + self.u0 ** one_m_p / (self.n * self.gamma * one_m_p)

    def t_star(self) -> float:
        """End of the real-valued domain: the plateau time unless q is an
        integer, where the signed power continues the curve past it."""
        if self.p >= 1.0:
            return math.inf
        q = 1.0 / (1.0 - self.p)
        return math.inf if abs(q - round(q)) <= 1e-9 else self.t_plateau()

    def ode_rhs(self, x: np.ndarray) -> np.ndarray:
        """The native right-hand side, for the self-check's ODE solve."""
        g, n, p, k = self.gamma, self.n, self.p, self.k
        return g * k ** (n * (p - 1.0)) * x ** (1.0 + n * (1.0 - p)) * (
            1.0 - (x / k) ** n) ** p

    def clock(self, sigma: float, ts: np.ndarray) -> np.ndarray:
        """rho(t) = sigma^2 int_{t0}^t (x0/x(s))^2 ds on an increasing grid."""
        f = lambda s: (self.x0 / float(self.x(s))) ** 2  # noqa: E731
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.size)
        acc, prev = 0.0, self.t0
        for i, t in enumerate(ts):
            if t > prev:
                acc += integrate.quad(f, prev, t, epsabs=0.0, epsrel=1e-13,
                                      limit=200)[0]
                prev = t
            out[i] = acc
        return sigma * sigma * out

    def clock_rate(self, sigma: float, ts: np.ndarray) -> np.ndarray:
        return sigma * sigma * (self.x0 / self.x(ts)) ** 2


# ------------------------------------------------- passage through a line


def ig_pdf(a: float, kappa: float, s2: float, tau: np.ndarray) -> np.ndarray:
    """Density of the first time a driftless Brownian motion with variance
    s2 per unit time, started at 0, meets the line a + kappa*tau."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(tau.shape)
    ok = tau > 0.0
    tt = tau[ok]
    out[ok] = abs(a) / np.sqrt(2.0 * math.pi * s2 * tt ** 3) * np.exp(
        -(a + kappa * tt) ** 2 / (2.0 * s2 * tt))
    return out


def ig_cdf(a: float, kappa: float, s2: float, tau: np.ndarray) -> np.ndarray:
    """P(passage by tau) for the same problem: the Bachelier-Levy formula.

    Relative to the line the motion drifts at nu = -kappa; reflecting makes
    the level positive.
    """
    tau = np.asarray(tau, dtype=float)
    a_pos, nu = (a, -kappa) if a > 0.0 else (-a, kappa)
    sd = np.sqrt(s2 * np.maximum(tau, 1e-300))
    first = special.ndtr((nu * tau - a_pos) / sd)
    log_second = 2.0 * nu * a_pos / s2 + special.log_ndtr((-a_pos - nu * tau) / sd)
    out = first + np.exp(log_second)
    return np.where(tau > 0.0, out, 0.0)


def ig_mass(a: float, kappa: float, s2: float) -> float:
    """Total passage probability: 1 when the drift runs toward the level."""
    a_pos, nu = (a, -kappa) if a > 0.0 else (-a, kappa)
    return 1.0 if nu >= 0.0 else math.exp(2.0 * nu * a_pos / s2)


# ------------------------------------------------------- exit from a band


def _girsanov(x: float, L: float, mu: float, s2: float, tau: np.ndarray):
    """Change-of-measure factors for the lower and upper exits."""
    common = -mu * mu * tau / (2.0 * s2)
    return np.exp(-mu * x / s2 + common), np.exp(mu * (L - x) / s2 + common)


def band_sides_sine(x: float, L: float, mu: float, s2: float,
                    tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) exit densities of a Brownian motion with drift mu and
    variance s2, started at x inside (0, L): the eigenfunction series

        f_0(tau) = (pi s2 / L^2) e^{-mu x/s2 - mu^2 tau/(2 s2)}
                   * sum_k k sin(k pi x / L) exp(-k^2 pi^2 s2 tau / (2 L^2))

    and its mirror image for the upper side."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    lam1 = math.pi ** 2 * s2 / (2.0 * L * L)
    tmin = float(np.min(tau[tau > 0.0])) if np.any(tau > 0.0) else 1.0
    kmax = int(math.ceil(math.sqrt(800.0 / (lam1 * tmin)))) + 2
    k = np.arange(1, min(kmax, 200_000) + 1, dtype=float)
    lo, up = np.zeros(tau.shape), np.zeros(tau.shape)
    sin_lo = k * np.sin(k * math.pi * x / L)
    sin_up = k * np.sin(k * math.pi * (L - x) / L)
    for i, t in enumerate(tau):
        if t <= 0.0:
            continue
        decay = np.exp(-lam1 * k * k * t)
        lo[i] = float(np.dot(sin_lo, decay))
        up[i] = float(np.dot(sin_up, decay))
    f_lo, f_up = _girsanov(x, L, mu, s2, tau)
    scale = math.pi * s2 / (L * L)
    return scale * f_lo * lo, scale * f_up * up


def band_sides_image(x: float, L: float, mu: float, s2: float,
                     tau: np.ndarray, terms: int = 12
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The same densities as image series, accurate for short times:

        f_0(tau) = sum_n (x + 2nL) / sqrt(2 pi s2 tau^3) exp(-(x + 2nL)^2 / (2 s2 tau))
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    n = np.arange(-terms, terms + 1, dtype=float)[:, None]
    lo, up = np.zeros(tau.shape), np.zeros(tau.shape)
    ok = tau > 0.0
    tt = tau[ok][None, :]
    norm = 1.0 / np.sqrt(2.0 * math.pi * s2 * tt ** 3)
    for start, out in ((x, lo), (L - x, up)):
        d = start + 2.0 * n * L
        out[ok] = np.sum(d * norm * np.exp(-d * d / (2.0 * s2 * tt)), axis=0)
    f_lo, f_up = _girsanov(x, L, mu, s2, tau)
    return f_lo * lo, f_up * up


# Below this value of s2*tau/L^2 the sine series needs many terms and its
# alternating sum loses digits; the image series is exact there instead.
SINE_FROM = 0.15


def band_sides(x: float, L: float, mu: float, s2: float,
               tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exit densities by side: image series for short times, sine after."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    short = s2 * tau < SINE_FROM * L * L
    lo, up = np.zeros(tau.shape), np.zeros(tau.shape)
    if np.any(short):
        lo[short], up[short] = band_sides_image(x, L, mu, s2, tau[short])
    if np.any(~short):
        lo[~short], up[~short] = band_sides_sine(x, L, mu, s2, tau[~short])
    return lo, up


def ruin_upper(x: float, L: float, mu: float, s2: float) -> float:
    """P(exit through L before 0) from x: gambler's ruin with drift."""
    if mu == 0.0:
        return x / L
    c = -2.0 * mu / s2
    return math.expm1(c * x) / math.expm1(c * L)


def band_side_cdf(x: float, L: float, mu: float, s2: float,
                  T: float) -> tuple[float, float]:
    """P(exit by T through each side): the ruin probabilities less the
    tails int_T^inf f, each summed term by term from the sine series."""
    lam1 = math.pi ** 2 * s2 / (2.0 * L * L)
    c = mu * mu / (2.0 * s2)
    kmax = int(math.ceil(math.sqrt(800.0 / (lam1 * T)))) + 2
    k = np.arange(1, min(kmax, 200_000) + 1, dtype=float)
    rate = lam1 * k * k + c
    w = np.exp(-rate * T) / rate
    f_lo, f_up = _girsanov(x, L, mu, s2, np.array([0.0]))
    scale = math.pi * s2 / (L * L)
    tail_lo = scale * f_lo[0] * float(np.dot(k * np.sin(k * math.pi * x / L), w))
    tail_up = scale * f_up[0] * float(np.dot(k * np.sin(k * math.pi * (L - x) / L), w))
    p_up = ruin_upper(x, L, mu, s2)
    return (1.0 - p_up) - tail_lo, p_up - tail_up
