"""The Volterra route to passage densities for general boundaries.

For boundaries of the special closed-form family the integral equation's
kernel vanishes and the product-integration solver reproduces the closed
form to machine precision at any step.  For everything else the solver is
the tool of record; halving the step shrinks the error at first order or
better, checked here against a much finer reference run.

Every boundary here is given as callables, so the solver sums every source,
the vanishing ones too.  Given as a DanielsBoundary, a line skips its own
sources and is its closed form by construction, which would show nothing.
"""

import math
import pathlib

import numpy as np

from growthfpt import (AffineGMBoundary, DanielsBoundary, GeneralBoundary,
                       GrowthParams, OUProcess, boundary_fns, fet_pdf_closed,
                       fpt_pdf_closed, volterra_fet, volterra_fpt, wiener_spec)
from growthfpt.growth_curve import _g
from growthfpt.svg import render_line_chart

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

spec = wiener_spec(1.0)

print("closed-form boundary (constant level 1): solver is exact")
grid = np.linspace(0.0, 5.0, 1001)
flat = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
curve = volterra_fpt(spec, flat, 0.0, 0.0, grid)
closed = fpt_pdf_closed(spec, DanielsBoundary(0.0, 1.0), 0.0, 0.0, grid[1:])
print(f"  max abs deviation: {np.max(np.abs(curve.values[1:] - closed)):.2e}")

print("\noscillating boundary 1 + 0.25 sin t: convergence under halving")
wavy = GeneralBoundary(s=lambda t: 1.0 + 0.25 * np.sin(t),
                       s_dot=lambda t: 0.25 * np.cos(t))
ref = volterra_fpt(spec, wavy, 0.0, 0.0, np.linspace(0.0, 5.0, 8001))
for K in (250, 500, 1000, 2000):
    sol = volterra_fpt(spec, wavy, 0.0, 0.0, np.linspace(0.0, 5.0, K + 1))
    interp = np.interp(sol.times, ref.times, ref.values)
    err = float(np.trapezoid(np.abs(sol.values - interp), sol.times))
    print(f"  steps {K:5d}: L1 error vs fine reference {err:.3e}")
(OUT / "volterra_wavy.svg").write_text(render_line_chart(
    [(ref.times, ref.values, "passage density")],
    title="Passage density through 1 + 0.25 sin t", ylabel="pdf"))

print("\ncoupled system for a band (symmetric unit band, unit noise):")
b1 = GeneralBoundary(s=lambda t: -1.0, s_dot=lambda t: 0.0)
b2 = GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0)
lo, up, tot = volterra_fet(spec, b1, b2, 0.0, 0.0, np.linspace(0.0, 8.0, 2001))
theta = fet_pdf_closed(spec, DanielsBoundary(0.0, -1.0), DanielsBoundary(0.0, 1.0),
                       0.0, 0.0, tot.times[1:])
print(f"  solver vs image-series closed form, max abs dev: "
      f"{np.max(np.abs(tot.values[1:] - theta)):.2e}")
print(f"  exit-side symmetry, max |gamma1 - gamma2|: "
      f"{np.max(np.abs(lo.values - up.values)):.2e}")

print("\nthe additive-noise process, proportional boundary (closed form exists),")
print("given to the solver as its state-space callables:")
params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=1.0, t0=0.0)
proc = OUProcess(params, 0.1)
bnd = AffineGMBoundary(A=0.8 * _g(params, 0.0))
sol = volterra_fpt(proc, boundary_fns(proc, bnd, 1.0, 0.0),
                   1.0, 0.0, np.linspace(0.0, 20.0, 2001))
closed = fpt_pdf_closed(proc, bnd, 1.0, 0.0, sol.times[1:])
print(f"  max abs deviation: {np.max(np.abs(sol.values[1:] - closed)):.2e}")
print(f"\nwrote {OUT}/volterra_wavy.svg")
