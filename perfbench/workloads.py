"""The benchmark's workloads: problem lists drawn from a seed, the calls that
run them, and the checks of every output against the oracles.

A run is a fixed number of rounds.  Each round holds one problem of every
kind of its workload, in the order of KINDS, so a slow stretch of the host
hits every kind alike.  Problems of the kept-fault kinds have inputs that do
not depend on the seed and fail their check every time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import oracles

KINDS = {
    "multiplicative": ["curve", "fpt_closed", "fet_closed", "fpt_volterra",
                       "fet_volterra", "fet_closed_long"],
    "additive": ["fpt_closed", "fet_closed", "fpt_volterra", "fet_volterra",
                 "fpt_mc", "fet_mc"],
    "montecarlo": ["fpt_mc", "fet_mc", "fpt_mc_frozen_dt1", "fpt_mc_frozen_dt05"],
}

# Kinds that reproduce a known fault of the program on fixed inputs:
#  fet_closed_long     the band image series loses its sign at long times
#                      and DensityCurve clips the negative values to 0;
#  fpt_mc_frozen_*     the bridge correction freezes the boundary at the
#                      left end of each step, which biases the hit fraction.
FAULT_KINDS = {"fet_closed_long", "fpt_mc_frozen_dt1", "fpt_mc_frozen_dt05"}

# Grid sizes and path counts per kind.  They are fixed, so per-layer counts
# that depend only on sizes repeat exactly whatever the seed.
CURVE_POINTS = 2000
CLOSED_POINTS = {"multiplicative": 2000, "additive": 60}
VOLTERRA_POINTS = {("multiplicative", "fpt"): 800, ("multiplicative", "fet"): 500,
                   ("additive", "fpt"): 60, ("additive", "fet"): 60}
ADDITIVE_MC = dict(paths=20000, dt=0.5, steps=60)
ADDITIVE_SPAN = 30.0
MC_PATHS = 20480
FROZEN_PATHS = 100_000

Z_MC = 6.0             # standard errors allowed to an unbiased estimator
SERIES_REL_TOL = 1e-12  # the CLI's default SeriesControl.rel_tol
FLOAT_FLOOR = 1e-290   # below this a density is compared absolutely
EPS = np.finfo(float).eps

REFERENCE_CURVE = dict(gamma=0.5, n=1.0, p=1.5, k=20.0, x0=1.0, t0=0.0)


@dataclass
class Problem:
    index: int
    kind: str
    spec: dict
    argv: list = field(default_factory=list)   # CLI problems only

    @property
    def family(self) -> str:
        return self.kind.split("_")[0]

    @property
    def fault(self) -> bool:
        return self.kind in FAULT_KINDS


# ------------------------------------------------------------------ drawing

# One curve per regime of growth_curve's taxonomy.  The regime cycles with
# the round, so every run has the same mix; each problem jitters its curve's
# continuous parameters, so no two problems share a curve (the clock's cache
# starts cold for each) while the work per problem stays nearly the same.
REGIME_CURVES = {
    "sigmoid": dict(gamma=0.5, n=2.0, p=1.3, k=20.0, x0=1.0, t0=0.0),
    # t0 = 0: the p = 1 branch of growth_curve mis-signs t0 (see CHANGES.md)
    "gompertz": dict(gamma=0.4, n=1.0, p=1.0, k=20.0, x0=1.0, t0=0.0),
    "decay": dict(gamma=0.5, n=0.5, p=0.5, k=20.0, x0=1.0, t0=0.5),       # q = 2
    "ceiling": dict(gamma=0.25, n=1.0, p=0.4, k=20.0, x0=1.0, t0=0.5),    # t* ~ 39
    "growth": dict(gamma=0.5, n=1.0, p=2.0 / 3.0, k=20.0, x0=1.0, t0=0.0),  # q = 3
}
REGIMES = list(REGIME_CURVES)
# the odd-integer regime is left out of density problems (see CHANGES.md)
DENSITY_REGIMES = [r for r in REGIMES if r != "growth"]


def _draw_curve(rng: np.random.Generator, regime: str) -> dict:
    spec = dict(REGIME_CURVES[regime], regime=regime)
    for key, rel in (("gamma", 0.03), ("k", 0.03), ("x0", 0.05)):
        spec[key] *= float(rng.uniform(1.0 - rel, 1.0 + rel))
    return spec


def _curve(spec: dict) -> oracles.Curve:
    return oracles.Curve(spec["gamma"], spec["n"], spec["p"], spec["k"],
                         spec["x0"], spec["t0"])


def _horizon_cap(spec: dict) -> float:
    """Latest end time a density problem may use on this curve."""
    c = _curve(spec)
    return spec["t0"] + 0.95 * (c.t_star() - spec["t0"])


def _band(rng: np.random.Generator) -> tuple[float, float, float]:
    nu1 = float(rng.uniform(0.7, 0.88))
    nu2 = float(rng.uniform(1.12, 1.35))
    nu = nu1 * (nu2 / nu1) ** float(rng.uniform(0.35, 0.65))
    return nu1, nu, nu2


def _draw(workload: str, kind: str, rng: np.random.Generator, rnd: int) -> dict:
    if kind == "fet_closed_long":
        return dict(REFERENCE_CURVE, sigma=0.1, nu1=0.8, nu=1.0, nu2=1.2,
                    t_end=200.0, points=CLOSED_POINTS["multiplicative"])
    if kind.startswith("fpt_mc_frozen"):
        return dict(REFERENCE_CURVE, sigma=0.3, A=1.25, B=0.1, horizon=20.0,
                    dt=1.0 if kind.endswith("dt1") else 0.5,
                    n_paths=FROZEN_PATHS, mc_seed=2024)
    regimes = REGIMES if kind == "curve" else DENSITY_REGIMES
    # the regime cycles with the round so every run has the same mix
    spec = _draw_curve(rng, regimes[rnd % len(regimes)])
    if kind == "curve":
        c = _curve(spec)
        t_end = spec["t0"] + float(rng.uniform(20.0, 60.0))
        if spec["regime"] == "growth":
            # stop before 1 + u reaches 0, where x blows up
            blow = spec["t0"] + (c.u0 ** (1.0 - spec["p"]) + 1.0) / (
                spec["n"] * spec["gamma"] * (1.0 - spec["p"]))
            t_end = spec["t0"] + 0.9 * (blow - spec["t0"])
        return dict(spec, t_end=t_end, points=CURVE_POINTS)

    family, method = kind.split("_")
    if workload == "montecarlo":
        return _draw_montecarlo(spec, family, rng)
    if workload == "multiplicative":
        sigma = float(rng.uniform(0.05, 0.3))
        if family == "fpt":
            nu = float(rng.choice([rng.uniform(0.7, 0.92), rng.uniform(1.08, 1.4)]))
            a = math.log(nu)
            span = float(rng.uniform(2.0, 6.0)) * a * a / sigma ** 2
            spec.update(sigma=sigma, nu=nu)
        else:
            nu1, nu, nu2 = _band(rng)
            L = math.log(nu2 / nu1)
            # R = sigma^2 (t - t0) stays below L^2: the image series is
            # accurate there to its rel_tol (the long-time case is the fault)
            span = float(rng.uniform(0.5, 1.0)) * L * L / sigma ** 2
            spec.update(sigma=sigma, nu1=nu1, nu=nu, nu2=nu2)
        points = (CLOSED_POINTS[workload] if method == "closed"
                  else VOLTERRA_POINTS[(workload, family)])
        spec.update(t_end=min(spec["t0"] + span, _horizon_cap(spec)), points=points)
        return spec

    # additive: the clock rho(t) = sigma^2 int (x0/x)^2 saturates as x -> k
    if family == "fpt":
        nu = float(rng.choice([rng.uniform(0.8, 0.93), rng.uniform(1.07, 1.25)]))
        spec.update(sigma=float(rng.uniform(0.05, 0.2)) * spec["x0"], nu=nu)
    else:
        nu1, nu, nu2 = _band(rng)
        spec.update(nu1=nu1, nu=1.0 if method == "mc" else nu, nu2=nu2)
    if method == "mc":
        m = ADDITIVE_MC
        horizon = m["dt"] * m["steps"]
        if spec["t0"] + horizon >= _horizon_cap(spec):
            spec.update(REGIME_CURVES["sigmoid"], regime="sigmoid")
        spec.update(dt=m["dt"], horizon=horizon, n_paths=m["paths"],
                    mc_seed=int(rng.integers(1, 2 ** 31)))
    else:
        points = (CLOSED_POINTS[workload] if method == "closed"
                  else VOLTERRA_POINTS[(workload, family)])
        spec.update(t_end=min(spec["t0"] + ADDITIVE_SPAN, _horizon_cap(spec)),
                    points=points)
    if family == "fet":
        # sigma puts the clock at the end of the run at a drawn share of L^2:
        # below 1, where the image series holds its accuracy, and for MC low
        # enough that no step can cross both sides (the estimator tests the
        # lower side first, which biases the exit side on coarse steps)
        end = spec["t_end"] if method != "mc" else spec["t0"] + spec["horizon"]
        ts = np.linspace(spec["t0"], end, 400)
        rate = (spec["x0"] / _curve(spec).x(ts)) ** 2
        clock = float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(ts)))
        L = (spec["nu2"] - spec["nu1"]) * spec["x0"]
        share = rng.uniform(0.05, 0.15) if method == "mc" else rng.uniform(0.3, 0.8)
        spec["sigma"] = math.sqrt(float(share) * L * L / clock)
    return spec


def _draw_montecarlo(spec: dict, family: str, rng: np.random.Generator) -> dict:
    if family == "fpt":
        # coarse steps, most paths still running at the horizon; half the
        # boundaries tilted, with B chosen so the log-coordinate slope
        # B + sigma^2/2 stays small (the frozen-boundary bias grows with it)
        sigma = float(rng.uniform(0.025, 0.045))
        nu = float(rng.choice([rng.uniform(0.72, 0.82), rng.uniform(1.2, 1.35)]))
        tilt = bool(rng.integers(0, 2))
        B = (-0.5 * sigma ** 2 + float(rng.uniform(-0.002, 0.002))) if tilt else 0.0
        spec.update(sigma=sigma, A=nu * spec["x0"], B=B, dt=1.0, horizon=100.0)
    else:
        # band exits whose horizon lies far beyond the median exit time
        sigma = float(rng.uniform(0.05, 0.07))
        nu1 = float(rng.uniform(0.78, 0.84))
        nu2 = float(rng.uniform(1.16, 1.24))
        spec.update(sigma=sigma, nu1=nu1, nu2=nu2, dt=0.5, horizon=100.0)
    if spec["t0"] + spec["horizon"] >= _horizon_cap(spec):
        spec.update(REGIME_CURVES["sigmoid"], regime="sigmoid")
    spec.update(n_paths=MC_PATHS, mc_seed=int(rng.integers(1, 2 ** 31)))
    return spec


def _config(spec: dict, noise: str) -> dict:
    return {"model": {key: spec[key] for key in ("gamma", "n", "p", "k", "x0", "t0")},
            "noise": {"kind": noise, "sigma": spec.get("sigma", 0.1)},
            "grid": {"t_end": spec.get("t_end", 50.0), "points": spec.get("points", 2)}}


def _argv(workload: str, kind: str, spec: dict, cfg_path: Path, out: Path) -> list:
    base = ["--config", str(cfg_path), "--out", str(out)]
    if kind == "curve":
        return ["curve"] + base
    family, method = kind.split("_")[:2]
    argv = [family, "--method", method] + base
    if family == "fpt":
        argv += ["--nu", repr(spec["nu"])]
    else:
        argv += ["--nu1", repr(spec["nu1"]), "--nu2", repr(spec["nu2"])]
    if method == "mc":
        argv += ["--paths", str(spec["n_paths"]), "--seed", str(spec["mc_seed"]),
                 "--dt", repr(spec["dt"]), "--horizon", repr(spec["horizon"])]
    return argv


def build(workload: str, seed: int, rounds: int, workdir: Path) -> list[Problem]:
    """The run's problem list; CLI problems get their config files written."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    noise = "additive" if workload == "additive" else "multiplicative"
    cfg_dir = workdir / "config"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    problems = []
    for rnd in range(rounds):
        for kind in KINDS[workload]:
            spec = _draw(workload, kind, rng, rnd)
            prob = Problem(len(problems), kind, spec)
            if workload != "montecarlo":
                cfg = _config(spec, noise)
                if "nu" in spec and kind.startswith("fet"):
                    cfg["fet"] = {"nu1": spec["nu1"], "nu": spec["nu"], "nu2": spec["nu2"]}
                path = cfg_dir / f"{prob.index}.json"
                path.write_text(json.dumps(cfg))
                prob.argv = _argv(workload, kind, spec, path, workdir / "out" / kind)
            problems.append(prob)
    return problems


# ------------------------------------------------------------------ running

@dataclass
class Outcome:
    seconds: float
    ok: bool = True
    detail: str = ""
    result: object = None


def run(pkg, problem: Problem, main: Callable | None = None) -> Outcome:
    """Run one problem and time it; `main` replaces the CLI entry point when
    the run is traced."""
    if problem.argv:
        main = main or pkg.cli.main
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t = perf_counter()
            status = main(problem.argv)
            elapsed = perf_counter() - t
        if status != 0:
            return Outcome(elapsed, False, f"exit {status}: {err.getvalue().strip()}")
        return Outcome(elapsed)
    s = problem.spec
    proc = pkg.LognormalProcess(pkg.GrowthParams(s["gamma"], s["n"], s["p"], s["k"],
                                                 s["x0"], s["t0"]), s["sigma"])
    cfg = pkg.SimConfig(dt=s["dt"], horizon=s["horizon"], n_paths=s["n_paths"],
                        seed=s["mc_seed"])
    if problem.family == "fpt":
        bnd = pkg.ExpBoundary(A=s["A"], B=s["B"])
        t = perf_counter()
        sample = pkg.estimate_fpt(proc, bnd, cfg)
    else:
        lo = pkg.ExpBoundary(A=s["nu1"] * s["x0"])
        up = pkg.ExpBoundary(A=s["nu2"] * s["x0"])
        t = perf_counter()
        sample = pkg.estimate_fet(proc, lo, up, cfg)
    return Outcome(perf_counter() - t, result=sample)


# ------------------------------------------------------------------ checking

def _read_csv(problem: Problem, workdir: Path) -> dict:
    name = "curve" if problem.kind == "curve" else problem.family
    path = workdir / "out" / problem.kind / f"{name}.csv"
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {h: data[:, i] for i, h in enumerate(header)}


def _expected_grid(spec: dict, t_star: float) -> np.ndarray:
    t0 = spec["t0"]
    t_end = min(spec["t_end"], t0 + 0.999999 * (t_star - t0))
    return np.linspace(t0, t_end, spec["points"] + 1)


def _worst(got, want, tol) -> float:
    """Largest error as a multiple of its tolerance (<= 1 passes)."""
    return float(np.max(np.abs(np.asarray(got) - want) / tol))


def _exp_arg(a, kappa, s2, tau) -> np.ndarray:
    """Exponent of the passage density: how badly exp() amplifies rounding."""
    tau = np.maximum(tau, 1e-300)
    return (a + kappa * tau) ** 2 / (2.0 * s2 * tau)


def _density_tol(want: np.ndarray, rtol: np.ndarray | float) -> np.ndarray:
    return np.where(np.abs(want) > FLOAT_FLOOR, rtol * np.abs(want), FLOAT_FLOOR)


def check(workload: str, problem: Problem, outcome: Outcome, workdir: Path) -> tuple[bool, str]:
    if not outcome.ok:
        return False, outcome.detail
    s = problem.spec
    if workload == "montecarlo":
        return _check_library_mc(problem, outcome.result)
    out = _read_csv(problem, workdir)
    curve = _curve(s)
    kind, family = problem.kind, problem.family
    method = kind.split("_")[1] if kind != "curve" else ""
    if method == "mc":
        return _check_cli_mc(problem, out, curve)
    ts = out["t"]
    grid = _expected_grid(s, curve.t_star())
    if ts.shape != grid.shape or _worst(ts, grid, 1e-9 * max(1.0, grid[-1])) > 1.0:
        return False, "time grid differs from the configured one"
    if kind == "curve":
        return _check_curve(out, curve)
    tau = ts - s["t0"]
    if workload == "multiplicative":
        if family == "fpt":
            a, kappa, s2 = math.log(s["nu"]), 0.5 * s["sigma"] ** 2, s["sigma"] ** 2
            want = {"pdf": oracles.ig_pdf(a, kappa, s2, tau)}
            cond = _exp_arg(a, kappa, s2, tau)
        else:
            x, L = math.log(s["nu"] / s["nu1"]), math.log(s["nu2"] / s["nu1"])
            lo, up = oracles.band_sides(x, L, -0.5 * s["sigma"] ** 2, s["sigma"] ** 2, tau)
            want = {"pdf": lo + up, "gamma1": lo, "gamma2": up}
            cond = _exp_arg(min(x, L - x), 0.5 * s["sigma"] ** 2, s["sigma"] ** 2, tau)
        rtol = SERIES_REL_TOL + 64.0 * EPS * (1.0 + cond)
    else:
        rho = curve.clock(s["sigma"], ts)
        rate = curve.clock_rate(s["sigma"], ts)
        x0 = s["x0"]
        if family == "fpt":
            a = (s["nu"] - 1.0) * x0
            want = {"pdf": oracles.ig_pdf(a, 0.0, 1.0, rho) * rate}
            cond = _exp_arg(a, 0.0, 1.0, rho)
        else:
            x, L = (s["nu"] - s["nu1"]) * x0, (s["nu2"] - s["nu1"]) * x0
            lo, up = oracles.band_sides(x, L, 0.0, 1.0, rho)
            want = {"pdf": (lo + up) * rate, "gamma1": lo * rate, "gamma2": up * rate}
            cond = _exp_arg(min(x, L - x), 0.0, 1.0, rho)
        # the program's clock carries the quadrature's 1e-10 relative error,
        # which the exponent amplifies
        rtol = 1e-9 * (1.0 + cond)
    if method == "closed":
        worst = max(_worst(out[col], w, _density_tol(w, rtol)) for col, w in want.items()
                    if col in out)
        return worst <= 1.0, f"worst error {worst:.3g} x tolerance"
    # Volterra: first-order in the step, on the scale of the density's peak
    h = ts[1] - ts[0]
    worst = 0.0
    for col, w in want.items():
        tol = 2.0 * h * float(np.max(np.abs(want["pdf"]))) + _density_tol(w, rtol)
        worst = max(worst, _worst(out[col], w, tol))
    return worst <= 1.0, f"worst error {worst:.3g} x first-order tolerance"


def _check_curve(out: dict, curve: oracles.Curve) -> tuple[bool, str]:
    ts = out["t"]
    x = curve.x(ts)
    h = curve.h(ts)
    xg = out["x"] * out["g"]
    errs = [_worst(out["x"], x, 1e-9 * np.abs(x)),
            _worst(out["h"], h, 1e-9 * float(np.max(np.abs(h)))),
            _worst(xg, xg[0], 1e-9 * abs(xg[0]))]
    worst = max(errs)
    return worst <= 1.0, f"worst error {worst:.3g} x tolerance (x, h, x*g)"


def _mc_tol(p: np.ndarray, n: int) -> np.ndarray:
    return Z_MC * np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)


def _within(p_hat: float, lo: float, hi: float, n: int) -> float:
    """Distance of p_hat outside [lo, hi] in units of the MC tolerance."""
    tol = float(_mc_tol(np.array([0.5 * (lo + hi)]), n)[0])
    return max(lo - p_hat, p_hat - hi, 0.0) / tol


def _check_hits(times: np.ndarray, t0: float, dt: float, horizon: float, n: int,
                cdf: Callable[[float], float]) -> float:
    """Worst distance of the empirical CDF from the oracle at the horizon and
    at the middle of the run; hit times are resolved to within one step."""
    worst = _within(times.size / n, cdf(horizon), cdf(horizon), n)
    mid = t0 + 0.5 * (horizon - t0)
    p_mid = float(np.count_nonzero(times <= mid)) / n
    return max(worst, _within(p_mid, cdf(mid - dt), cdf(mid + dt), n))


def _check_library_mc(problem: Problem, sample) -> tuple[bool, str]:
    s = problem.spec
    n, t0, dt = s["n_paths"], s["t0"], s["dt"]
    end = t0 + s["horizon"]
    if problem.family == "fpt":
        a = math.log(s["A"] / s["x0"]) + s["B"] * t0
        kappa, s2 = s["B"] + 0.5 * s["sigma"] ** 2, s["sigma"] ** 2
        cdf = lambda t: float(oracles.ig_cdf(a, kappa, s2, np.array([t - t0]))[0])  # noqa: E731
        worst = _check_hits(sample.hit_times, t0, dt, end, n, cdf)
    else:
        x, L = math.log(1.0 / s["nu1"]), math.log(s["nu2"] / s["nu1"])
        mu, s2 = -0.5 * s["sigma"] ** 2, s["sigma"] ** 2
        worst = 0.0
        for i, side in enumerate(("lower", "upper")):
            times = sample.hit_times[sample.exit_sides == side]
            cdf = lambda t, i=i: oracles.band_side_cdf(x, L, mu, s2, t - t0)[i]  # noqa: E731
            worst = max(worst, _check_hits(times, t0, dt, end, n, cdf))
    return worst <= 1.0, f"worst error {worst:.3g} x {Z_MC:g} standard errors"


def _check_cli_mc(problem: Problem, out: dict, curve: oracles.Curve) -> tuple[bool, str]:
    """The CLI writes histogram densities on 200 bins over the horizon; the
    counts are recovered exactly from them."""
    s = problem.spec
    n, t0, dt = s["n_paths"], s["t0"], s["dt"]
    centers = out["t"]
    width = float(centers[1] - centers[0])
    edges = np.append(centers - 0.5 * width, centers[-1] + 0.5 * width)
    rho = curve.clock(s["sigma"], edges)
    cols = ["pdf"] if problem.family == "fpt" else ["gamma1", "gamma2"]
    worst = 0.0
    for i, col in enumerate(cols):
        counts = np.rint(out[col] * n * width)
        cum = np.concatenate(([0.0], np.cumsum(counts))) / n
        if problem.family == "fpt":
            a = (s["nu"] - 1.0) * s["x0"]
            side_cdf = oracles.ig_cdf(a, 0.0, 1.0, rho)
        else:
            x = (s["nu"] - s["nu1"]) * s["x0"]
            L = (s["nu2"] - s["nu1"]) * s["x0"]
            side_cdf = np.array([oracles.band_side_cdf(x, L, 0.0, 1.0, r)[i]
                                 if r > 0.0 else 0.0 for r in rho])
        # the horizon, and the middle edge with hit times moved by one step
        mid = edges.size // 2
        lo_idx = int(np.searchsorted(edges, edges[mid] - dt, side="right")) - 1
        hi_idx = min(int(np.searchsorted(edges, edges[mid] + dt)), edges.size - 1)
        worst = max(worst, _within(cum[-1], side_cdf[-1], side_cdf[-1], n),
                    _within(cum[mid], side_cdf[lo_idx], side_cdf[hi_idx], n))
    return worst <= 1.0, f"worst error {worst:.3g} x {Z_MC:g} standard errors"
