"""First-exit densities from bands expressed as proportions of the mean.

Narrowing the band from below (raising nu1) sharpens the exit density;
widening it from above (raising nu2) flattens it; more noise pulls the peak
earlier and higher.  The same identities hold for the additive-noise process
run in its own intrinsic clock, where exits happen on a much longer
time scale for comparable proportions.
"""

import pathlib

import numpy as np

from growthfpt import GrowthParams, LognormalProcess, OUProcess, fet_pdf_closed
from growthfpt.svg import render_line_chart

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=1.0, t0=0.0)
proc = LognormalProcess(params, 0.02)
ts = np.linspace(0.5, 400.0, 1600)

print("multiplicative noise, raising the lower proportion nu1 (nu2 = 1.3):")
series = []
for nu1 in (0.8, 0.85, 0.9):
    band = proc.mean_boundary(nu1), proc.mean_boundary(1.3)
    vals = fet_pdf_closed(proc, *band, 1.0, 0.0, ts)
    print(f"  nu1={nu1:4.2f}: peak value {vals.max():.5f} at t={ts[np.argmax(vals)]:6.1f}")
    series.append((ts, vals, f"nu1={nu1}"))
(OUT / "fet_by_nu1.svg").write_text(render_line_chart(
    series, title="Exit density vs nu1 (nu2=1.3, sigma=0.02)", ylabel="pdf"))

print("\nmultiplicative noise, raising sigma (band [0.8, 1.2]):")
series = []
for sigma in (0.015, 0.02, 0.03):
    p_s = LognormalProcess(params, sigma)
    band = p_s.mean_boundary(0.8), p_s.mean_boundary(1.2)
    vals = fet_pdf_closed(p_s, *band, 1.0, 0.0, ts)
    print(f"  sigma={sigma:5.3f}: peak value {vals.max():.5f} "
          f"at t={ts[np.argmax(vals)]:6.1f}")
    series.append((ts, vals, f"sigma={sigma}"))
(OUT / "fet_by_sigma.svg").write_text(render_line_chart(
    series, title="Exit density vs sigma (band [0.8, 1.2])", ylabel="pdf"))

print("\nadditive noise, band [0.8, 1.2] at sigma = 0.1 (long time scale):")
proc_g = OUProcess(params, 0.1)
tg = np.geomspace(0.5, 12_000.0, 900)
band = proc_g.mean_boundary(0.8), proc_g.mean_boundary(1.2)
vals = fet_pdf_closed(proc_g, *band, 1.0, 0.0, tg)
print(f"  peak value {vals.max():.2e} at t={tg[np.argmax(vals)]:.1f}; "
      f"half the mass sits beyond t~1000")
(OUT / "fet_additive.svg").write_text(render_line_chart(
    [(tg, vals, "additive band")], title="Additive-noise exit density",
    ylabel="pdf"))
print(f"\nwrote {OUT}/fet_by_nu1.svg, fet_by_sigma.svg, fet_additive.svg")
