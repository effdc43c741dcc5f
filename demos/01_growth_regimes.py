"""Tour of the growth curve's qualitative regimes.

One six-parameter family covers sigmoid saturation, plateau-then-decay,
plateau-then-blow-up, and a finite-time arrival at the carrying capacity,
all controlled by the shape parameter p.  This script classifies each case,
prints its domain end, and writes the four curves to CSV/SVG.
"""

import pathlib

import numpy as np

from growthfpt import (GrowthParams, classify_regime, domain_end, g_eval,
                       h_eval, x_eval)
from growthfpt.svg import render_line_chart

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

BASE = dict(gamma=0.5, n=1.0, k=20.0, x0=1.0, t0=0.0)
CASES = [1.5, 1.0, 0.75, 2.0 / 3.0, 0.25]

series = []
print(f"{'p':>8}  {'regime':>22}  {'t_star':>10}  {'x(10)':>8}")
for p in CASES:
    params = GrowthParams(p=p, **BASE)
    tag = classify_regime(params).value
    t_star = domain_end(params).t_star
    print(f"{p:8.4f}  {tag:>22}  {t_star:10.3f}  {x_eval(params, 10.0):8.3f}")

    # stop short of any blow-up or domain end so every curve stays plottable
    hi = min(21.5, 0.98 * t_star)
    ts = np.linspace(0.0, hi, 600)
    xs = x_eval(params, ts)
    series.append((ts, xs, f"p={p:.3g}"))

    with open(OUT / f"curve_p{p:.3g}.csv", "w") as fh:
        fh.write("t,x,g,h\n")
        for row in zip(ts, xs, g_eval(params, ts), h_eval(params, ts)):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

(OUT / "regimes.svg").write_text(render_line_chart(
    series, title="Growth regimes across p", ylabel="x(t)"))
print(f"\nwrote {OUT}/regimes.svg and per-regime CSVs")
