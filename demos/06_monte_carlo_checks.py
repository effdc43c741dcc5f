"""Monte Carlo validation of the closed forms (and of one variance formula).

Paths advance by exact transition sampling.  Against one boundary, or a
band of two sides of one slope (the exit check's), each path goes to the
horizon in one step and its exit side and time are drawn from the law given
the path's two ends, so dt sets no step there and the sample is exact in
law at any dt.  The last lines set it against the crossings seen only at
the dt grid on simulate_paths' paths of the same seed, which a coarse step
misses in part.  The passage, exit and variance checks are the oracle suite's
(growthfpt.validate), run here on larger ensembles; the variance check uses
a large ensemble to discriminate between the conditional-variance formula
implemented here and a plausible-looking alternative ordering of the same
integral, which disagrees by hundreds of standard errors.
"""

import pathlib

import numpy as np

from growthfpt import (ExpBoundary, GrowthParams, LognormalProcess, SimConfig,
                       estimate_fpt, fpt_pdf_closed, simulate_paths, x_eval)
from growthfpt.validate import (check_mc_fet, check_mc_fpt, check_variance_form,
                                mass_to_infinity)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

for check, args in ((check_mc_fpt, (30_000, 515)), (check_mc_fet, (30_000, 516)),
                    (check_variance_form, (400_000, 518))):
    print(check(*args).line)

params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=1.0, t0=0.0)
proc = LognormalProcess(params, 0.02)

print("\nbridge correction at a coarse step (nu = 1.2, dt = 2):")
bnd = ExpBoundary(A=1.2)
target, _ = mass_to_infinity(lambda t: fpt_pdf_closed(proc, bnd, 1.0, 0.0, t), 400.0)
cfg = SimConfig(dt=2.0, horizon=400.0, n_paths=30_000, seed=517)
estimated = estimate_fpt(proc, bnd, cfg).hit_times.size / cfg.n_paths
ts, paths = simulate_paths(proc, cfg)
on_grid = np.mean(np.any(paths >= 1.2 * x_eval(params, ts), axis=1))
print(f"  window mass {target:.4f}")
print(f"  estimate_fpt:         hit fraction {estimated:.4f}")
print(f"  grid crossings only:  hit fraction {on_grid:.4f}")
