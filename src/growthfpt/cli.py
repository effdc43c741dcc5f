"""Command-line front end: growthfpt <command> --config <path> [flags] --out <dir>.

Commands
    curve     CSV (t, x, g, h) of the deterministic curve + SVG
    regime    print the qualitative regime and the domain end t_star
    paths     CSV ensemble of simulated paths + SVG overlay with the mean curve
    fpt       passage density (t, pdf) by --method closed|volterra|mc + SVG
    fet       exit density (t, pdf[, gamma1, gamma2]) by the same methods + SVG;
              the band [nu1, nu2] starts at proportion fet.nu of x0 in all three
    validate  run the oracle suite and print a pass/fail table (reads no
              configuration)

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
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import GrowthFPTError, ParseError, ValidationError
from .fet import BandSpec, fet_pdf_gm_closed, volterra_fet
from .fpt import DensityCurve, fpt_pdf_gm_closed, volterra_fpt
from .gm_core import DanielsBoundary, GMSpec
from .growth_curve import (GrowthParams, classify_regime, domain_end, g_eval,
                           h_eval, x_eval)
from .montecarlo import SimConfig, estimate_fet, estimate_fpt, simulate_paths
from .process_lognormal import LognormalProcess
from .process_ou import OUProcess
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
    bridge = sim_doc.get("bridge_correction", True)
    if not isinstance(bridge, bool):
        raise ValidationError(
            f"sim.bridge_correction: must be true or false, got {bridge!r}")
    try:
        cfg.sim = SimConfig(
            dt=float(sim_doc.get("dt", 0.1)),
            horizon=float(sim_doc.get("horizon", 40.0)),
            n_paths=int(sim_doc.get("n_paths", 20)),
            seed=int(sim_doc.get("seed", 12345)),
            bridge_correction=bridge)
    except GrowthFPTError as exc:
        raise ValidationError(f"sim: {exc}") from exc

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
    ts = _density_grid(cfg)
    xs = x_eval(params, ts)
    gs = g_eval(params, ts)
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


@dataclass(frozen=True)
class _Problem:
    """A passage (one boundary) or band-exit (two, lower first) problem of
    the configured process, in the form each method takes."""

    bounds: List            # the process's closed-form boundaries, from x0
    pdf: Callable           # closed-form density as a function of time
    spec: GMSpec            # the Wiener coordinate from the start, for Volterra
    lines: List[DanielsBoundary]  # the boundaries there, c + d*R; the start is 0


def _problem(cfg: RunConfig, command: str) -> _Problem:
    """The fpt or fet problem of cfg in the process's Wiener coordinate from
    the start (x0 for fpt, nu*x0 for fet), where each boundary, nu_i times
    the mean curve, is a line c_i + d*R.  Monte Carlo starts at x0; the
    process is translation invariant in its coordinate, so it gets the
    boundaries whose lines from x0 are the same.
    """
    params, proc = cfg.model, cfg.process()
    x0, t0 = params.x0, params.t0
    fpt = command == "fpt"
    levels = [cfg.fpt_nu] if fpt else [cfg.fet_nu1, cfg.fet_nu2]
    home = proc.coord(x0, t0)
    coord = home if fpt else proc.coord(cfg.fet_nu * x0, t0)
    lines = [coord.line(proc.mean_boundary(lv)) for lv in levels]
    bounds = [proc.mean_boundary(home.to_state(c, t0) / x0) for c, _ in lines]
    spec = coord.spec
    daniels = [DanielsBoundary(d1=d, d2=c) for c, d in lines]
    if fpt:
        pdf = partial(fpt_pdf_gm_closed, spec, daniels[0], 0.0, t0)
    else:
        band = BandSpec(c1=lines[0][0], c=0.0, c2=lines[1][0])
        pdf = partial(fet_pdf_gm_closed, spec, lines[0][1], band, 0.0, t0)
    return _Problem(bounds, pdf, spec, daniels)


def _cmd_density(cfg: RunConfig, out: Path, command: str) -> int:
    """fpt or fet: the problem's density by the configured method, with the
    per-side densities gamma1, gamma2 where a band's method gives them."""
    t0 = cfg.model.t0
    method = cfg.fpt_method if command == "fpt" else cfg.fet_method
    prob = _problem(cfg, command)
    single = len(prob.bounds) == 1
    sides = []
    if method == "closed":
        curve = DensityCurve.from_function(prob.pdf, _density_grid(cfg), t0)
    elif method == "volterra":
        if cfg.grid_kind != "linear":
            raise ValidationError(f"{command}.method=volterra requires grid.kind=linear")
        ts = _density_grid(cfg)
        if single:
            curve = volterra_fpt(prob.spec, *prob.lines, 0.0, t0, ts)
        else:
            lower, upper, curve = volterra_fet(prob.spec, *prob.lines, 0.0, t0, ts)
            sides = [lower.values, upper.values]
    else:  # mc
        if single:
            sample = estimate_fpt(cfg.process(), *prob.bounds, cfg.sim)
            hits = [sample.hit_times]
        else:
            sample = estimate_fet(cfg.process(), *prob.bounds, cfg.sim)
            hits = [sample.hit_times[sample.exit_sides == side]
                    for side in ("lower", "upper")]
        edges = np.linspace(t0, t0 + cfg.sim.horizon, 201)
        dens = [np.histogram(h, bins=edges)[0] / (sample.n_paths * (edges[1] - edges[0]))
                for h in hits]
        curve = DensityCurve(times=0.5 * (edges[1:] + edges[:-1]),
                             values=np.sum(dens, axis=0))
        sides = [] if single else dens
    header = ["t", "pdf", "gamma1", "gamma2"] if sides else ["t", "pdf"]
    write_csv(out / f"{command}.csv", header, [curve.times, curve.values] + sides)
    title = (f"First-passage density, nu={cfg.fpt_nu}" if single else
             f"First-exit density, band [{cfg.fet_nu1}, {cfg.fet_nu2}]")
    (out / f"{command}.svg").write_text(render_line_chart(
        [(curve.times, curve.values, f"{command} ({method})")],
        title=title, ylabel="pdf"))
    print(f"{command}[{method}] mass over grid: {curve.mass:.6f}")
    return 0


_COMMANDS = {
    "curve": _cmd_curve,
    "regime": _cmd_regime,
    "paths": _cmd_paths,
    "fpt": partial(_cmd_density, command="fpt"),
    "fet": partial(_cmd_density, command="fet"),
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
    parser.add_argument("command", choices=sorted([*_COMMANDS, "validate"]))
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
    if args.command == "validate":
        # the oracle suite builds its own problems and reads no configuration
        ok, _ = validation_suite.run_all(verbose=True)
        return 0 if ok else 1

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
