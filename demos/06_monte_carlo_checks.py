"""Monte Carlo validation of the closed forms (and of one variance formula).

Paths advance by exact transition sampling, so the step size only affects
crossing detection; the within-step bridge correction removes that bias too.
The final check uses a large ensemble to discriminate between the
conditional-variance formula implemented here and a plausible-looking
alternative ordering of the same integral, which disagrees by hundreds of
standard errors.
"""

import math
import pathlib

import numpy as np

from growthfpt import (DensityCurve, ExpBoundary, GrowthParams,
                       LognormalProcess, OUProcess, ProportionalBand,
                       SimConfig, density_distance, estimate_fet,
                       estimate_fpt, fet_pdf_lognormal_band,
                       fpt_pdf_lognormal, integrate_adaptive, simulate_paths,
                       transition_law_G)
from growthfpt.growth_curve import _g
from growthfpt.validate import mass_to_infinity

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

params = GrowthParams(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=1.0, t0=0.0)
proc = LognormalProcess(params, 0.02)

print("passage times vs closed form (nu = 0.8, 30k paths):")
bnd = ExpBoundary(A=0.8)
cfg = SimConfig(dt=0.2, horizon=150.0, n_paths=30_000, seed=515)
sample = estimate_fpt(proc, bnd, cfg)
grid = np.linspace(0.0, 150.0, 3001)
curve = DensityCurve.from_function(
    lambda t: fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, t), grid, 0.0)
l1, ks = density_distance(sample, curve)
print(f"  hits {sample.hit_times.size}, censored {sample.censored_count}, "
      f"KS = {ks:.4f}, L1 = {l1:.4f}")

print("\nexit times vs closed form (band [0.8, 1.2], 30k paths):")
band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.2)
cfg = SimConfig(dt=0.5, horizon=800.0, n_paths=30_000, seed=516)
sample = estimate_fet(proc, ExpBoundary(A=0.8), ExpBoundary(A=1.2), cfg)
grid = np.linspace(0.0, 800.0, 3001)
curve = DensityCurve.from_function(
    lambda t: fet_pdf_lognormal_band(proc, band, 1.0, 0.0, t), grid, 0.0)
l1, ks = density_distance(sample, curve, bins=40)
n_low = int(np.sum(sample.exit_sides == "lower"))
print(f"  exits {sample.hit_times.size} ({n_low} through the lower boundary), "
      f"L1 = {l1:.4f}")

print("\nbridge correction at a coarse step (nu = 1.2, dt = 2):")
bnd = ExpBoundary(A=1.2)
target, _ = mass_to_infinity(lambda t: fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, t), 400.0)
for flag in (True, False):
    cfg = SimConfig(dt=2.0, horizon=400.0, n_paths=30_000, seed=517,
                    bridge_correction=flag)
    s = estimate_fpt(proc, bnd, cfg)
    frac = s.hit_times.size / s.n_paths
    print(f"  correction {'on ' if flag else 'off'}: hit fraction {frac:.4f} "
          f"(window mass {target:.4f})")

print("\nvariance formula of the additive process, pinned by 400k paths:")
proc_g = OUProcess(params, 0.1)
cfg = SimConfig(dt=0.5, horizon=1.0, n_paths=400_000, seed=518)
_, paths = simulate_paths(proc_g, cfg)
v_mc = float(np.var(paths[:, -1], ddof=1))
v_true = transition_law_G(proc_g, 1.0, 0.0, 1.0).variance
v_alt = 0.01 * integrate_adaptive(
    lambda th: (_g(params, 0.0) / _g(params, th)) ** 2, [0.0, 1.0])[0]
se = v_true * math.sqrt(2.0 / (cfg.n_paths - 1))
print(f"  MC variance {v_mc:.6f}")
print(f"  implemented form {v_true:.6f} ({abs(v_mc - v_true) / se:.1f} se away)")
print(f"  alternative ordering {v_alt:.6f} ({abs(v_mc - v_alt) / se:.0f} se away)")
