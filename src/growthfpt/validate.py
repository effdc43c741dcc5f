"""The oracle suite: the only implementation of each acceptance check.

Each check pits one computation against an independent route to the same
quantity: analytic identities, alternative parametrizations, numerical
integration, or Monte Carlo.  A check takes its scale and seed as arguments;
the defaults are the reduced scale of `growthfpt validate`, and
`tests/test_acceptance.py` calls the same checks at full scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import DomainError
from .fet import (BandSpec, ProportionalBand, fet_pdf_lognormal_band,
                  fet_pdf_wiener_symmetric, wiener_band_pdf)
from .fpt import (AffineGMBoundary, DanielsBoundary, DensityCurve, ExpBoundary,
                  GeneralBoundary, affine_gm_boundary_fns, fpt_pdf_gm_closed,
                  fpt_pdf_lognormal, fpt_pdf_ou, volterra_fpt)
from .gm_core import daniels_boundary_fns, psi_kernel, wiener_spec
from .growth_curve import (GrowthParams, classify_regime, domain_end, x_eval,
                           _g)
from .montecarlo import (SimConfig, density_distance, estimate_fet, estimate_fpt,
                         simulate_paths)
from .process_lognormal import LognormalProcess
from .process_ou import OUProcess, gm_spec_G, transition_law_G
from .quadrature import integrate_adaptive

BASE = dict(gamma=0.5, n=1.0, k=20.0, x0=1.0, t0=0.0)
P15 = GrowthParams(p=1.5, **BASE)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        """The `[PASS]/[FAIL] name: detail` line of the report."""
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def mass_to_infinity(fn: Callable[[np.ndarray], np.ndarray], t_hi: float = 1e7,
                     n_seg: int = 140) -> Tuple[float, float]:
    """(value, error) of the integral of a density of time over (0, t_hi),
    by integrate_adaptive with the edge 0 and n_seg log-spaced edges from
    1e-6 to t_hi.

    fn takes an array of times; the Gauss nodes are interior, so it is never
    asked for t = 0, where the closed forms are not defined.
    """
    edges = np.concatenate(([0.0], np.geomspace(1e-6, t_hi, n_seg)))
    return integrate_adaptive(fn, edges)


def direct_solution(params: GrowthParams, t: float) -> float:
    """The growth curve evaluated straight from its native parametrization,
    an oracle independent of the reparametrized evaluators."""
    one_m_p = 1.0 - params.p
    inner = (params.gamma * params.n * (params.p - 1.0) * (t - params.t0)
             + params.a_n ** one_m_p)
    q = 1.0 / one_m_p
    if inner >= 0.0:
        ip = inner ** q
    else:
        m = round(q)
        if abs(q - m) >= 1e-9:
            raise DomainError(f"negative base {inner} to the non-integer power {q}")
        ip = abs(inner) ** q * (1.0 if m % 2 == 0 else -1.0)
    return params.k / (1.0 + ip) ** (1.0 / params.n)


def random_valid_params(rng: np.random.Generator) -> GrowthParams:
    """Draw parameters satisfying every declared constraint, redrawing the
    p>1/large-t0 corner where the reparametrization has no real solution."""
    while True:
        n = rng.uniform(0.4, 3.0)
        k = rng.uniform(2.0, 80.0)
        params = GrowthParams(
            gamma=rng.uniform(0.1, 1.5), n=n,
            p=rng.uniform(0.1, 1.0 + 1.0 / n - 0.05),
            k=k, x0=rng.uniform(0.05, 0.8) * k, t0=rng.uniform(0.0, 1.5))
        if abs(params.p - 1.0) < 1e-4:
            continue
        try:
            domain_end(params)
        except DomainError:
            continue
        return params


def check_curve_equivalence(n_sets: int = 50, per_set: int = 10,
                            seed: int = 202) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_sets):
        params = random_valid_params(rng)
        hi = params.t0 + min(10.0, 0.8 * (domain_end(params).t_star - params.t0))
        for t in rng.uniform(params.t0, hi, size=per_set):
            a = x_eval(params, float(t))
            b = direct_solution(params, float(t))
            worst = max(worst, abs(a - b) / abs(b))
    return CheckResult("curve reparametrization equivalence",
                       worst <= 1e-10, f"max rel err {worst:.3e} (tol 1e-10)")


def check_regimes() -> CheckResult:
    tags = {p: classify_regime(GrowthParams(p=p, **BASE)).value
            for p in (1.5, 0.75, 2.0 / 3.0, 0.25)}
    t_star = domain_end(GrowthParams(p=0.25, **BASE)).t_star
    ok = (tags[1.5] == "SigmoidSaturating"
          and tags[0.75] == "PlateauThenDecay"
          and tags[2.0 / 3.0] == "PlateauThenGrowth"
          and tags[0.25] == "FiniteTimeCeiling"
          and abs(t_star - 24.267) <= 1e-3)
    return CheckResult("regime classification and finite ceiling",
                       ok, f"tags {tags}, t_star {t_star:.5f}")


def check_fpt_mass() -> CheckResult:
    proc = LognormalProcess(P15, 0.02)
    m08, e08 = mass_to_infinity(
        lambda t: fpt_pdf_lognormal(proc, ExpBoundary(A=0.8), 1.0, 0.0, t))
    m12, e12 = mass_to_infinity(
        lambda t: fpt_pdf_lognormal(proc, ExpBoundary(A=1.2), 1.0, 0.0, t))
    ok = abs(m08 - 1.0) <= 1e-4 and abs(m12 - 1.0 / 1.2) <= 1e-3
    return CheckResult("proportional-boundary passage mass",
                       ok, f"mass(nu=0.8)={m08:.6f}, mass(nu=1.2)={m12:.6f} "
                           f"(quadrature error {max(e08, e12):.1e})")


def check_fpt_mode(points: int = 2001) -> CheckResult:
    proc = LognormalProcess(P15, 0.02)
    ts = np.linspace(20.0, 70.0, points)
    vals = fpt_pdf_lognormal(proc, ExpBoundary(A=0.8), 1.0, 0.0, ts)
    mode = float(ts[int(np.argmax(vals))])
    return CheckResult("passage-density mode location",
                       abs(mode - 41.39) <= 0.1, f"mode at t={mode:.3f}")


def check_kernel_vanishing(n_draws: int = 200, seed: int = 77) -> CheckResult:
    rng = np.random.default_rng(seed)
    specs = [wiener_spec(1.0), gm_spec_G(OUProcess(P15, 0.1))]
    worst = 0.0
    for spec in specs:
        for _ in range(n_draws):
            d = DanielsBoundary(d1=rng.uniform(-2, 2), d2=rng.uniform(-2, 2))
            bnd = GeneralBoundary(*daniels_boundary_fns(spec, d))
            tau = rng.uniform(0.05, 4.0)
            t = tau + rng.uniform(0.05, 4.0)
            val = psi_kernel(spec, bnd, t, bnd.s(tau), tau)
            worst = max(worst, abs(val))
    return CheckResult("kernel vanishing on closed-form boundaries",
                       worst < 1e-10,
                       f"max |Psi| {worst:.3e} over {len(specs) * n_draws} draws")


def _masked_rel_dev(curve: DensityCurve, closed: np.ndarray) -> float:
    """Max relative deviation of curve.values[1:] where closed > 1 % of its peak."""
    mask = closed > 0.01 * closed.max()
    return float(np.max(np.abs(curve.values[1:][mask] - closed[mask]) / closed[mask]))


def check_volterra_vs_closed(steps: int = 1200) -> CheckResult:
    """The Volterra solver against the closed forms of two lines, given as
    callables, so the solver sums every source.  psi vanishes on every
    source of a line, so that sum reduces to its start term, the closed
    form: the check covers the map into the Wiener coordinate and a sum of
    vanishing kernels, not an independent route (ROADMAP item 10,
    Independence)."""
    spec = wiener_spec(1.0)
    grid = np.linspace(0.0, 5.0, steps + 1)
    curve = volterra_fpt(spec, GeneralBoundary(s=lambda t: 1.0, s_dot=lambda t: 0.0),
                         0.0, 0.0, grid)
    closed = fpt_pdf_gm_closed(spec, DanielsBoundary(0.0, 1.0), 0.0, 0.0, grid[1:])
    dev_w = _masked_rel_dev(curve, closed)
    ou = OUProcess(P15, 0.1)
    og = np.linspace(0.0, 20.0, steps + 1)
    bnd = AffineGMBoundary(A=0.8 * P15.x0 * _g(P15, 0.0))
    fns = affine_gm_boundary_fns(ou, bnd, 0.0)
    ocurve = volterra_fpt(gm_spec_G(ou), fns, 1.0, 0.0, og)
    dev_o = _masked_rel_dev(ocurve, fpt_pdf_ou(ou, bnd, 1.0, 0.0, og[1:]))
    return CheckResult("Volterra solver vs closed forms",
                       dev_w < 0.01 and dev_o < 0.01,
                       f"wiener dev {dev_w:.2e}, ou dev {dev_o:.2e} at {steps} steps")


def check_wiener_band(t_hi: float = 40.0) -> CheckResult:
    pdf = lambda t: fet_pdf_wiener_symmetric(1.0, 1.0, t)
    mass, e_mass = mass_to_infinity(pdf, t_hi)
    mean, e_mean = mass_to_infinity(lambda t: t * pdf(t), t_hi)
    ok = abs(mass - 1.0) <= 1e-4 and abs(mean - 1.0) <= 5e-3
    return CheckResult("symmetric band exit identities",
                       ok, f"mass {mass:.6f}, mean exit {mean:.4f} "
                           f"(quadrature error {max(e_mass, e_mean):.1e})")


def check_band_equivalence() -> CheckResult:
    proc = LognormalProcess(P15, 0.02)
    band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.25)
    ts = np.array([5.0, 30.0, 80.0, 200.0])
    a = fet_pdf_lognormal_band(proc, band, 1.0, 0.0, ts)
    z = wiener_band_pdf(BandSpec(c1=math.log(0.8), c=0.0, c2=math.log(1.25),
                                 slope=0.02 ** 2 / 2.0), 0.02, ts)
    worst = float(np.max(np.abs(a - z) / np.maximum(np.abs(z), 1e-300)))
    return CheckResult("band density equals its Wiener-coordinate form",
                       worst <= 1e-10, f"max rel dev {worst:.2e}")


def check_mc_fpt(n_paths: int = 20_000, seed: int = 40) -> CheckResult:
    proc = LognormalProcess(P15, 0.02)
    bnd = ExpBoundary(A=0.8)
    cfg = SimConfig(dt=0.2, horizon=150.0, n_paths=n_paths, seed=seed)
    sample = estimate_fpt(proc, bnd, cfg)
    grid = np.linspace(0.0, 150.0, 3001)
    curve = DensityCurve.from_function(
        lambda t: fpt_pdf_lognormal(proc, bnd, 1.0, 0.0, t), grid, 0.0)
    _, ks = density_distance(sample, curve)
    return CheckResult("Monte Carlo passage times vs closed form (KS)",
                       ks < 0.01, f"KS {ks:.4f} with {n_paths} paths")


def check_mc_fet(n_paths: int = 20_000, seed: int = 41) -> CheckResult:
    proc = LognormalProcess(P15, 0.02)
    band = ProportionalBand(nu1=0.8, nu=1.0, nu2=1.2)
    cfg = SimConfig(dt=0.5, horizon=800.0, n_paths=n_paths, seed=seed)
    sample = estimate_fet(proc, ExpBoundary(A=0.8), ExpBoundary(A=1.2), cfg)
    grid = np.linspace(0.0, 800.0, 3001)
    curve = DensityCurve.from_function(
        lambda t: fet_pdf_lognormal_band(proc, band, 1.0, 0.0, t), grid, 0.0)
    l1, _ = density_distance(sample, curve)
    return CheckResult("Monte Carlo exit times vs closed form (L1)",
                       l1 < 0.05, f"L1 {l1:.4f} with {n_paths} paths")


def check_variance_form(n_paths: int = 200_000, seed: int = 42) -> CheckResult:
    """Pins the conditional-variance form of the additive process by MC."""
    proc = OUProcess(P15, 0.1)
    cfg = SimConfig(dt=0.5, horizon=1.0, n_paths=n_paths, seed=seed)
    _, paths = simulate_paths(proc, cfg)
    v_mc = float(np.var(paths[:, -1], ddof=1))
    v_true = transition_law_G(proc, 1.0, 0.0, 1.0).variance
    v_printed = 0.01 * integrate_adaptive(
        lambda th: (_g(P15, 0.0) / _g(P15, th)) ** 2, [0.0, 1.0])[0]
    se = v_true * math.sqrt(2.0 / (n_paths - 1))
    ok = abs(v_mc - v_true) <= 3.0 * se and abs(v_mc - v_printed) > 10.0 * se
    return CheckResult(
        "additive-noise variance form pinned by MC",
        ok, f"MC {v_mc:.6f} vs true {v_true:.6f} (3se {3 * se:.1e}) "
            f"vs alternative {v_printed:.6f}")


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    check_curve_equivalence, check_regimes, check_fpt_mass, check_fpt_mode,
    check_kernel_vanishing, check_volterra_vs_closed, check_wiener_band,
    check_band_equivalence, check_mc_fpt, check_mc_fet, check_variance_form]


def run_all(verbose: bool = True) -> Tuple[bool, List[CheckResult]]:
    results = []
    for check in ALL_CHECKS:
        res = check()
        results.append(res)
        if verbose:
            print(res.line)
    return all(r.passed for r in results), results
