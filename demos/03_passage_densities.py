"""Closed-form first-passage densities through proportional boundaries.

The boundary nu * (mean curve) gives an explicit passage density whose total
mass is 1 for nu < 1 (the noise drifts the log-state down onto the boundary)
and 1/nu for nu > 1.  The density does not depend on the curve shape p at
all: p reshapes the boundary and the paths together, leaving the passage law
untouched.
"""

import pathlib

import numpy as np

from growthfpt import (ExpBoundary, GrowthParams, LognormalProcess,
                       fpt_pdf_lognormal)
from growthfpt.svg import render_line_chart
from growthfpt.validate import mass_to_infinity

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=1.0, t0=0.0)


ts = np.linspace(0.1, 250.0, 1200)
proc = LognormalProcess(params, 0.02)

print("varying the proportion nu at sigma = 0.02:")
series = []
for nu in (0.7, 0.8, 0.9, 1.1, 1.2):
    bnd = ExpBoundary(A=nu * params.x0)
    vals = fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, ts)
    m, _ = mass_to_infinity(lambda t: fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, t))
    target = 1.0 if nu < 1.0 else 1.0 / nu
    print(f"  nu={nu:4.2f}: peak at t={ts[np.argmax(vals)]:7.2f}, "
          f"mass={m:.6f} (expected {target:.6f})")
    series.append((ts, vals, f"nu={nu}"))
(OUT / "fpt_by_nu.svg").write_text(render_line_chart(
    series, title="Passage density vs proportion nu (sigma=0.02)", ylabel="pdf"))

print("\nvarying sigma at nu = 0.8 (peak moves earlier and higher):")
series = []
for sigma in (0.01, 0.02, 0.04):
    proc_s = LognormalProcess(params, sigma)
    bnd = ExpBoundary(A=0.8 * params.x0)
    tg = np.linspace(0.1, 600.0, 4000)
    vals = fpt_pdf_lognormal(proc_s, bnd, 1.0, 0.0, tg)
    print(f"  sigma={sigma:5.3f}: peak t={tg[np.argmax(vals)]:7.2f}, "
          f"peak value={vals.max():.5f}")
    series.append((tg, vals, f"sigma={sigma}"))
(OUT / "fpt_by_sigma.svg").write_text(render_line_chart(
    series, title="Passage density vs sigma (nu=0.8)", ylabel="pdf"))

print("\nindependence from the shape parameter p:")
for p in (1.5, 0.75, 0.25):
    pp = GrowthParams(gamma=0.5, n=1.0, p=p, k=20.0, x0=1.0, t0=0.0)
    v = fpt_pdf_lognormal(LognormalProcess(pp, 0.02), ExpBoundary(A=0.8),
                          1.0, 0.0, 41.4)
    print(f"  p={p:6.4f}: pdf(41.4) = {v:.12f}")
print(f"\nwrote {OUT}/fpt_by_nu.svg and fpt_by_sigma.svg")
