"""Gauss-Legendre panels on arrays: the one integration rule of the package.

`process_ou.int_g2` integrates g^2 with `panel_integrals`, and every oracle
of `validate` and the tests integrates with `integrate_adaptive`.  The
integrand takes an array of times and returns its values elementwise; the
nodes are interior to their panels, so an integrand need not be defined at
a panel's ends.  The name `integrate_adaptive` serves the benchmark's trace
hook, which binds it by name; it changes with the benchmark (ROADMAP item 1).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .errors import GridError

_GL16 = np.polynomial.legendre.leggauss(16)
_GL32 = np.polynomial.legendre.leggauss(32)
_PANEL_BLOCK = 1024  # panels per call of the integrand: keeps the node arrays small


def _panels(f, left, right, rule) -> np.ndarray:
    nodes, weights = rule
    half = 0.5 * (right - left)
    mid = left + half
    out = np.empty(mid.size)
    for lo in range(0, mid.size, _PANEL_BLOCK):
        blk = slice(lo, lo + _PANEL_BLOCK)
        out[blk] = np.sum(f(mid[blk, None] + half[blk, None] * nodes) * weights,
                          axis=1) * half[blk]
    return out


def panel_integrals(f: Callable[[np.ndarray], np.ndarray], left: np.ndarray,
                    right: np.ndarray) -> np.ndarray:
    """The integral of f over each panel [left[i], right[i]] by the 16-point
    Gauss-Legendre rule, with f called once per block of 1024 panels."""
    return _panels(f, left, right, _GL16)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray],
                       edges) -> Tuple[float, float]:
    """(value, error) of the integral of f over [edges[0], edges[-1]].

    value is the sum of the 32-point Gauss-Legendre rule over the panels
    between consecutive edges, and error its distance from the 16-point sum.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) < 0.0):
        raise GridError("integration edges must be a non-decreasing 1-d array "
                        "of at least two points")
    left, right = edges[:-1], edges[1:]
    value = float(np.sum(_panels(f, left, right, _GL32)))
    return value, abs(value - float(np.sum(panel_integrals(f, left, right))))
