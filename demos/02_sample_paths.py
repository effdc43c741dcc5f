"""Sample paths of the two diffusion extensions around their common mean.

The multiplicative-noise process is lognormal (state-dependent spread), the
additive-noise one is a time-inhomogeneous Ornstein-Uhlenbeck process
(uniform spread, may cross zero).  Both share the deterministic curve as
conditional mean, so paths of either kind oscillate around it.
"""

import pathlib

import numpy as np

from growthfpt import (GrowthParams, LognormalProcess, OUProcess, SimConfig,
                       simulate_paths, x_eval)
from growthfpt.svg import render_line_chart

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=1.0, t0=0.0)
cfg = SimConfig(dt=0.05, horizon=15.0, n_paths=8, seed=2024)

for label, proc in [("multiplicative", LognormalProcess(params, 0.02)),
                    ("additive", OUProcess(params, 0.02))]:
    ts, paths = simulate_paths(proc, cfg)
    det = x_eval(params, ts)
    spread = float(np.abs(paths - det[None, :]).max())
    print(f"{label:>15}: {cfg.n_paths} paths, max |path - mean| = {spread:.3f}")
    series = [(ts, paths[i], "") for i in range(cfg.n_paths)]
    series.append((ts, det, "mean curve"))
    (OUT / f"paths_{label}.svg").write_text(render_line_chart(
        series, title=f"{label} noise, sigma=0.02", ylabel="x"))

print(f"wrote {OUT}/paths_multiplicative.svg and paths_additive.svg")
