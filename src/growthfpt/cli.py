"""Command-line front end: growthfpt <command> --config <path> [flags] --out <dir>.

Commands
    curve     CSV (t, x, g, h) of the deterministic curve + SVG
    regime    print the qualitative regime and the domain end t_star
    paths     CSV ensemble of simulated paths + SVG overlay with the mean curve
    fpt       passage density (t, pdf) by --method closed|volterra|mc + SVG
    fet       exit density (t, pdf[, gamma1, gamma2]) by the same methods + SVG
    validate  run the oracle suite and print a pass/fail table

The configuration is a JSON document; command-line flags override document
values.  Exit status: 0 success, 1 validation failure, 2 configuration error.
Every CSV has a header row, times strictly increasing, and floats serialized
with 17 significant digits.  GROWTHFPT_THREADS caps simulation worker
threads (default: the CPUs the process may run on).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .errors import GrowthFPTError, ParseError, ValidationError
from .fet import (ProportionalBand, SeriesControl, fet_pdf_lognormal_band,
                  fet_pdf_ou_band, volterra_fet)
from .fpt import (AffineGMBoundary, DensityCurve, ExpBoundary, GeneralBoundary,
                  affine_gm_boundary_fns, exp_boundary_fns, fpt_pdf_lognormal,
                  fpt_pdf_ou, volterra_fpt)
from .growth_curve import (GrowthParams, classify_regime, domain_end, g_eval,
                           h_eval, reparametrize, x_eval, _g)
from .montecarlo import SimConfig, estimate_fet, estimate_fpt, simulate_paths
from .process_lognormal import LognormalProcess, to_wiener_spec
from .process_ou import OUProcess, gm_spec_G
from .quadrature import QuadratureSpec
from .svg import render_line_chart
from . import validate as validation_suite


@dataclass
class RunConfig:
    model: GrowthParams
    noise_kind: str            # "multiplicative" | "additive"
    sigma: float
    grid_t_end: float = 50.0
    grid_points: int = 2000
    grid_kind: str = "linear"  # "linear" | "log"
    fpt_nu: float = 0.8
    fpt_method: str = "closed"
    fet_nu1: float = 0.8
    fet_nu: float = 1.0
    fet_nu2: float = 1.2
    fet_method: str = "closed"
    sim: SimConfig = field(default_factory=lambda: SimConfig(
        dt=0.1, horizon=40.0, n_paths=20, seed=12345))
    series: SeriesControl = field(default_factory=SeriesControl)
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    output: Path = Path("out")

    def process(self):
        if self.noise_kind == "multiplicative":
            return LognormalProcess(self.model, self.sigma)
        return OUProcess(self.model, self.sigma)


_SCHEMA = {
    "model": {"n", "gamma", "k", "x0", "t0", "p"},
    "noise": {"kind", "sigma"},
    "grid": {"t_end", "points", "kind"},
    "fpt": {"nu", "method"},
    "fet": {"nu1", "nu", "nu2", "method"},
    "sim": {"dt", "horizon", "n_paths", "seed", "bridge_correction"},
    "series": {"rel_tol", "n_max"},
    "quadrature": {"rel_tol", "abs_tol", "max_depth"},
    "output": None,
}


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ValidationError(f"{path}.{key}: required key missing")
    return block[key]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Unknown keys are rejected with their full path; constraint violations
    raise ValidationError naming the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed configuration document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("configuration root must be an object")
    return _config_from_dict(doc)


def _config_from_dict(doc: dict) -> RunConfig:
    for key, val in doc.items():
        if key not in _SCHEMA:
            raise ValidationError(f"{key}: unknown key")
        allowed = _SCHEMA[key]
        if allowed is not None:
            if not isinstance(val, dict):
                raise ValidationError(f"{key}: expected an object")
            for sub in val:
                if sub not in allowed:
                    raise ValidationError(f"{key}.{sub}: unknown key")

    model_doc = doc.get("model")
    if not isinstance(model_doc, dict):
        raise ValidationError("model: required block missing")
    try:
        model = GrowthParams(
            gamma=float(_require(model_doc, "gamma", "model")),
            n=float(_require(model_doc, "n", "model")),
            p=float(_require(model_doc, "p", "model")),
            k=float(_require(model_doc, "k", "model")),
            x0=float(_require(model_doc, "x0", "model")),
            t0=float(model_doc.get("t0", 0.0)))
    except GrowthFPTError as exc:
        raise ValidationError(f"model: {exc}") from exc

    noise_doc = doc.get("noise")
    if not isinstance(noise_doc, dict):
        raise ValidationError("noise: required block missing")
    kind = _require(noise_doc, "kind", "noise")
    if kind not in ("multiplicative", "additive"):
        raise ValidationError(
            f"noise.kind: must be 'multiplicative' or 'additive', got {kind!r}")
    sigma = float(_require(noise_doc, "sigma", "noise"))
    if not sigma > 0.0:
        raise ValidationError(f"noise.sigma: must be > 0, got {sigma}")

    cfg = RunConfig(model=model, noise_kind=kind, sigma=sigma)

    grid = doc.get("grid", {})
    cfg.grid_t_end = float(grid.get("t_end", cfg.grid_t_end))
    cfg.grid_points = int(grid.get("points", cfg.grid_points))
    cfg.grid_kind = grid.get("kind", cfg.grid_kind)
    if cfg.grid_kind not in ("linear", "log"):
        raise ValidationError("grid.kind: must be 'linear' or 'log'")
    if cfg.grid_points < 2:
        raise ValidationError("grid.points: must be >= 2")
    if not cfg.grid_t_end > model.t0:
        raise ValidationError("grid.t_end: must exceed model.t0")

    fpt_doc = doc.get("fpt", {})
    cfg.fpt_nu = float(fpt_doc.get("nu", cfg.fpt_nu))
    cfg.fpt_method = fpt_doc.get("method", cfg.fpt_method)
    fet_doc = doc.get("fet", {})
    cfg.fet_nu1 = float(fet_doc.get("nu1", cfg.fet_nu1))
    cfg.fet_nu = float(fet_doc.get("nu", cfg.fet_nu))
    cfg.fet_nu2 = float(fet_doc.get("nu2", cfg.fet_nu2))
    cfg.fet_method = fet_doc.get("method", cfg.fet_method)
    for name, method in (("fpt.method", cfg.fpt_method), ("fet.method", cfg.fet_method)):
        if method not in ("closed", "volterra", "mc"):
            raise ValidationError(f"{name}: must be closed|volterra|mc")
    if cfg.fpt_nu <= 0.0:
        raise ValidationError("fpt.nu: must be > 0")
    if not (0.0 < cfg.fet_nu1 < cfg.fet_nu < cfg.fet_nu2):
        raise ValidationError("fet: need 0 < nu1 < nu < nu2")

    sim_doc = doc.get("sim", {})
    try:
        cfg.sim = SimConfig(
            dt=float(sim_doc.get("dt", 0.1)),
            horizon=float(sim_doc.get("horizon", 40.0)),
            n_paths=int(sim_doc.get("n_paths", 20)),
            seed=int(sim_doc.get("seed", 12345)),
            bridge_correction=bool(sim_doc.get("bridge_correction", True)))
    except GrowthFPTError as exc:
        raise ValidationError(f"sim: {exc}") from exc

    series_doc = doc.get("series", {})
    quad_doc = doc.get("quadrature", {})
    try:
        cfg.series = SeriesControl(
            rel_tol=float(series_doc.get("rel_tol", 1e-12)),
            n_max=int(series_doc.get("n_max", 10_000)))
        cfg.quadrature = QuadratureSpec(
            rel_tol=float(quad_doc.get("rel_tol", 1e-10)),
            abs_tol=float(quad_doc.get("abs_tol", 1e-14)),
            max_depth=int(quad_doc.get("max_depth", 40)))
    except GrowthFPTError as exc:
        raise ValidationError(str(exc)) from exc

    if "output" in doc:
        cfg.output = Path(doc["output"])
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


def _density_grid(cfg: RunConfig) -> np.ndarray:
    t0 = cfg.model.t0
    t_star = domain_end(cfg.model).t_star
    t_end = min(cfg.grid_t_end, t0 + 0.999999 * (t_star - t0))
    if cfg.grid_kind == "log":
        span = t_end - t0
        offs = np.geomspace(min(1e-3, span / 1000.0), span, cfg.grid_points)
        return t0 + np.concatenate(([0.0], offs))
    return np.linspace(t0, t_end, cfg.grid_points + 1)


def _cmd_curve(cfg: RunConfig, out: Path) -> int:
    params = cfg.model
    coeffs = reparametrize(params)
    ts = _density_grid(cfg)
    xs = x_eval(params, ts)
    gs = g_eval(coeffs, params, ts)
    inside = ts < domain_end(params).t_star
    hs = np.zeros_like(ts)
    hs[inside] = h_eval(params, ts[inside])
    write_csv(out / "curve.csv", ["t", "x", "g", "h"], [ts, xs, gs, hs])
    (out / "curve.svg").write_text(render_line_chart(
        [(ts, xs, "x(t)")], title="Growth curve", ylabel="x"))
    return 0

def _cmd_regime(cfg: RunConfig, out: Path) -> int:
    tag = classify_regime(cfg.model).value
    t_star = domain_end(cfg.model).t_star
    t_star_s = "inf" if math.isinf(t_star) else f"{t_star:.3f}"
    print(f"{tag}, t_star = {t_star_s}")
    return 0


def _cmd_paths(cfg: RunConfig, out: Path) -> int:
    proc = cfg.process()
    ts, paths = simulate_paths(proc, cfg.sim)
    xs = x_eval(cfg.model, ts)
    header = ["t", "x_det"] + [f"path_{i}" for i in range(paths.shape[0])]
    write_csv(out / "paths.csv", header, [ts, xs] + [paths[i] for i in range(paths.shape[0])])
    series = [(ts, paths[i], "") for i in range(min(paths.shape[0], 30))]
    series.append((ts, xs, "mean curve"))
    (out / "paths.svg").write_text(render_line_chart(
        series, title=f"Sample paths ({cfg.noise_kind} noise)", ylabel="x"))
    return 0


def _fpt_closed_fn(cfg: RunConfig):
    proc = cfg.process()
    params = cfg.model
    if cfg.noise_kind == "multiplicative":
        bnd = ExpBoundary(A=cfg.fpt_nu * params.x0)
        return lambda t: fpt_pdf_lognormal(proc, bnd, params.x0, params.t0, t)
    bnd = AffineGMBoundary(A=cfg.fpt_nu * params.x0 * _g(params, params.t0))
    return lambda t: fpt_pdf_ou(proc, bnd, params.x0, params.t0, t)


def _cmd_fpt(cfg: RunConfig, out: Path) -> int:
    params = cfg.model
    proc = cfg.process()
    method = cfg.fpt_method
    if method == "closed":
        ts = _density_grid(cfg)
        curve = DensityCurve.from_function(_fpt_closed_fn(cfg), ts, params.t0)
    elif method == "volterra":
        ts = _density_grid(cfg)
        if cfg.grid_kind != "linear":
            raise ValidationError("fpt.method=volterra requires grid.kind=linear")
        if cfg.noise_kind == "multiplicative":
            spec, transform, _ = to_wiener_spec(proc)
            bnd_x = exp_boundary_fns(proc, ExpBoundary(A=cfg.fpt_nu * params.x0))
            s2 = cfg.sigma ** 2
            # the log image of a mean-proportional boundary is affine with
            # slope sigma^2/2
            zb = GeneralBoundary(s=lambda t: transform(bnd_x.s(t), t),
                                 s_dot=lambda t: 0.5 * s2)
            curve = volterra_fpt(spec, zb, transform(params.x0, params.t0),
                                 params.t0, ts)
        else:
            bnd = AffineGMBoundary(A=cfg.fpt_nu * params.x0 * _g(params, params.t0))
            fns = affine_gm_boundary_fns(proc, bnd, params.t0)
            curve = volterra_fpt(gm_spec_G(proc), fns, params.x0, params.t0, ts)
    else:  # mc
        if cfg.noise_kind == "multiplicative":
            bnd = ExpBoundary(A=cfg.fpt_nu * params.x0)
        else:
            bnd = AffineGMBoundary(A=cfg.fpt_nu * params.x0 * _g(params, params.t0))
        sample = estimate_fpt(proc, bnd, cfg.sim)
        edges = np.linspace(params.t0, params.t0 + cfg.sim.horizon, 201)
        counts, _ = np.histogram(sample.hit_times, bins=edges)
        dens = counts / (sample.n_paths * (edges[1] - edges[0]))
        centers = 0.5 * (edges[1:] + edges[:-1])
        curve = DensityCurve(times=centers, values=dens)
    write_csv(out / "fpt.csv", ["t", "pdf"], [curve.times, curve.values])
    (out / "fpt.svg").write_text(render_line_chart(
        [(curve.times, curve.values, f"fpt ({method})")],
        title=f"First-passage density, nu={cfg.fpt_nu}", ylabel="pdf"))
    print(f"fpt[{method}] mass over grid: {curve.mass:.6f}")
    return 0


def _cmd_fet(cfg: RunConfig, out: Path) -> int:
    params = cfg.model
    proc = cfg.process()
    method = cfg.fet_method
    gamma1 = gamma2 = None
    if method == "closed":
        ts = _density_grid(cfg)
        if cfg.noise_kind == "multiplicative":
            band = ProportionalBand(nu1=cfg.fet_nu1, nu=cfg.fet_nu, nu2=cfg.fet_nu2)
            fn = lambda t: fet_pdf_lognormal_band(proc, band, params.x0, params.t0,
                                                  t, cfg.series)
        else:
            fn = lambda t: fet_pdf_ou_band(proc, cfg.fet_nu1, cfg.fet_nu,
                                           cfg.fet_nu2, 0.0, params.x0,
                                           params.t0, t, cfg.series)
        curve = DensityCurve.from_function(fn, ts, params.t0)
    elif method == "volterra":
        if cfg.grid_kind != "linear":
            raise ValidationError("fet.method=volterra requires grid.kind=linear")
        ts = _density_grid(cfg)
        if cfg.noise_kind == "multiplicative":
            spec, transform, _ = to_wiener_spec(proc)
            s2 = cfg.sigma ** 2
            lo = math.log(cfg.fet_nu1 * params.x0)
            hi = math.log(cfg.fet_nu2 * params.x0)
            b1 = GeneralBoundary(s=lambda t: lo + 0.5 * s2 * t, s_dot=lambda t: 0.5 * s2)
            b2 = GeneralBoundary(s=lambda t: hi + 0.5 * s2 * t, s_dot=lambda t: 0.5 * s2)
            x0z = transform(cfg.fet_nu * params.x0, params.t0)
            lower, upper, curve = volterra_fet(spec, b1, b2, x0z, params.t0, ts)
        else:
            scale = params.x0 * _g(params, params.t0)
            b1 = affine_gm_boundary_fns(proc, AffineGMBoundary(A=cfg.fet_nu1 * scale),
                                        params.t0)
            b2 = affine_gm_boundary_fns(proc, AffineGMBoundary(A=cfg.fet_nu2 * scale),
                                        params.t0)
            lower, upper, curve = volterra_fet(gm_spec_G(proc), b1, b2,
                                               cfg.fet_nu * params.x0, params.t0, ts)
        gamma1, gamma2 = lower.values, upper.values
    else:  # mc
        if cfg.noise_kind == "multiplicative":
            s1 = ExpBoundary(A=cfg.fet_nu1 * params.x0)
            s2 = ExpBoundary(A=cfg.fet_nu2 * params.x0)
        else:
            scale = params.x0 * _g(params, params.t0)
            s1 = AffineGMBoundary(A=cfg.fet_nu1 * scale)
            s2 = AffineGMBoundary(A=cfg.fet_nu2 * scale)
        sample = estimate_fet(proc, s1, s2, cfg.sim)
        edges = np.linspace(params.t0, params.t0 + cfg.sim.horizon, 201)
        width = edges[1] - edges[0]
        low_mask = sample.exit_sides == "lower"
        c_low, _ = np.histogram(sample.hit_times[low_mask], bins=edges)
        c_up, _ = np.histogram(sample.hit_times[~low_mask], bins=edges)
        centers = 0.5 * (edges[1:] + edges[:-1])
        gamma1 = c_low / (sample.n_paths * width)
        gamma2 = c_up / (sample.n_paths * width)
        curve = DensityCurve(times=centers, values=gamma1 + gamma2)
    if gamma1 is not None:
        write_csv(out / "fet.csv", ["t", "pdf", "gamma1", "gamma2"],
                  [curve.times, curve.values, gamma1, gamma2])
    else:
        write_csv(out / "fet.csv", ["t", "pdf"], [curve.times, curve.values])
    (out / "fet.svg").write_text(render_line_chart(
        [(curve.times, curve.values, f"fet ({method})")],
        title=f"First-exit density, band [{cfg.fet_nu1}, {cfg.fet_nu2}]",
        ylabel="pdf"))
    print(f"fet[{method}] mass over grid: {curve.mass:.6f}")
    return 0


def _cmd_validate(cfg: RunConfig, out: Path) -> int:
    ok, _ = validation_suite.run_all(verbose=True)
    return 0 if ok else 1


_COMMANDS = {
    "curve": _cmd_curve,
    "regime": _cmd_regime,
    "paths": _cmd_paths,
    "fpt": _cmd_fpt,
    "fet": _cmd_fet,
    "validate": _cmd_validate,
}


def run_command(cmd: str, cfg: RunConfig) -> int:
    """Dispatch a validated configuration to one command; returns exit status."""
    if cmd not in _COMMANDS:
        raise ValidationError(f"unknown command {cmd!r}")
    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[cmd](cfg, out)


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    """Merge command-line flags over the document (flags win)."""
    def setdeep(block: str, key: str, value) -> None:
        if value is None:
            return
        doc.setdefault(block, {})
        doc[block][key] = value

    setdeep("noise", "sigma", args.sigma)
    setdeep("fpt", "nu", args.nu)
    setdeep("fpt", "method", args.method if args.command == "fpt" else None)
    setdeep("fet", "method", args.method if args.command == "fet" else None)
    setdeep("fet", "nu1", args.nu1)
    setdeep("fet", "nu2", args.nu2)
    setdeep("sim", "n_paths", args.paths)
    setdeep("sim", "seed", args.seed)
    setdeep("sim", "dt", args.dt)
    setdeep("sim", "horizon", args.horizon)
    setdeep("grid", "t_end", args.t_end)
    setdeep("grid", "points", args.grid_points)
    if args.out is not None:
        doc["output"] = args.out
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="growthfpt",
        description="Passage and exit-time densities for stochastic growth curves")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=Path, help="JSON configuration document")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--nu", type=float, default=None)
    parser.add_argument("--nu1", type=float, default=None)
    parser.add_argument("--nu2", type=float, default=None)
    parser.add_argument("--method", choices=("closed", "volterra", "mc"), default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dt", type=float, default=None)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--t-end", dest="t_end", type=float, default=None)
    parser.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ParseError(f"cannot read config: {exc}") from exc
            doc = json.loads(text) if text.strip() else {}
            if not isinstance(doc, dict):
                raise ParseError("configuration root must be an object")
        else:
            doc = {}
        doc = _apply_overrides(doc, args)
        cfg = _config_from_dict(doc)
    except json.JSONDecodeError as exc:
        print(f"config error: malformed document: {exc}", file=sys.stderr)
        return 2
    except GrowthFPTError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run_command(args.command, cfg)
    except GrowthFPTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
