"""Adaptive Simpson quadrature, the oracle the tests and validate hold the
vectorised clock and the closed-form masses to."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import GridError, NoConvergence


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 40

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise GridError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise GridError("max_depth must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= max_depth:
        raise NoConvergence(
            f"adaptive Simpson did not converge on [{a}, {b}] "
            f"after depth {max_depth}")
    half_tol = 0.5 * tol
    return (_adaptive(f, a, m, fa, flm, fm, left, half_tol, depth + 1, max_depth)
            + _adaptive(f, m, b, fm, frm, fb, right, half_tol, depth + 1, max_depth))


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integral of f over [a, b] to the spec's tolerances.

    Simpson estimates are refined by interval halving with Richardson
    extrapolation of the final panel; NoConvergence is raised when max_depth
    is exhausted before the local error test passes.
    """
    if b < a:
        raise GridError(f"integration bounds out of order: a={a} > b={b}")
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, a, b)
    tol = max(spec.abs_tol, spec.rel_tol * abs(whole))
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, 0, spec.max_depth)

