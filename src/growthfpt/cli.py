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

The configuration is a JSON document whose keys, types, defaults and flags
are declared once, in _KEYS; --help names the key each flag overrides.  --nu
and --method set the key of the running command, fpt or fet.  Exit status: 0
success, 1 validation failure, 2 configuration error, such as a value of the
wrong type, named by its block.key.
Every CSV has a header row, times strictly increasing, and floats serialized
with 17 significant digits.  GROWTHFPT_THREADS caps simulation worker
threads (default: the CPUs the process may run on).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence

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
    """A resolved configuration: every value of _KEYS, converted and checked."""

    model: GrowthParams
    noise_kind: str
    sigma: float
    grid_t_end: float
    grid_points: int
    grid_kind: str
    fpt_nu: float
    fpt_method: str
    fet_nu1: float
    fet_nu: float
    fet_nu2: float
    fet_method: str
    sim: SimConfig
    output: Path

    def process(self):
        if self.noise_kind == "multiplicative":
            return LognormalProcess(self.model, self.sigma)
        return OUProcess(self.model, self.sigma)


_REQUIRED = object()  # the default of a key the document must give
_METHODS = ("closed", "volterra", "mc")


class _Key(NamedTuple):
    """One configuration value: doc[block][key], or doc[block] itself when
    key is None.  type converts the value, or is the tuple of the values
    allowed; flag is the command-line flag that overrides it."""

    block: str
    key: Optional[str]
    type: object
    default: object = _REQUIRED
    flag: Optional[str] = None

    @property
    def name(self) -> str:
        return self.block if self.key is None else f"{self.block}.{self.key}"

    def read(self, doc: dict, flags: dict):
        """The flag's value, else the document's, else the default; converted."""
        given = doc if self.key is None else doc.get(self.block, {})
        value = flags.get(self.name, given.get(self.key or self.block, self.default))
        if value is _REQUIRED:
            raise ValidationError(f"{self.name}: required key missing")
        if isinstance(self.type, tuple):
            if value not in self.type:
                raise ValidationError(
                    f"{self.name}: must be {'|'.join(self.type)}, got {value!r}")
            return value
        if self.type is bool and not isinstance(value, bool):
            raise ValidationError(f"{self.name}: must be true or false, got {value!r}")
        try:
            return self.type(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                f"{self.name}: expected {self.type.__name__}, got {value!r}") from exc


# Every configuration key, written once.  A flag that names an fpt and a
# fet key sets the one of the running command, and other commands ignore it.
_KEYS = (
    _Key("model", "gamma", float),
    _Key("model", "n", float),
    _Key("model", "p", float),
    _Key("model", "k", float),
    _Key("model", "x0", float),
    _Key("model", "t0", float, 0.0),
    _Key("noise", "kind", ("multiplicative", "additive")),
    _Key("noise", "sigma", float, flag="--sigma"),
    _Key("grid", "t_end", float, 50.0, "--t-end"),
    _Key("grid", "points", int, 2000, "--grid-points"),
    _Key("grid", "kind", ("linear", "log"), "linear"),
    _Key("fpt", "nu", float, 0.8, "--nu"),
    _Key("fpt", "method", _METHODS, "closed", "--method"),
    _Key("fet", "nu1", float, 0.8, "--nu1"),
    _Key("fet", "nu", float, 1.0, "--nu"),
    _Key("fet", "nu2", float, 1.2, "--nu2"),
    _Key("fet", "method", _METHODS, "closed", "--method"),
    _Key("sim", "dt", float, 0.1, "--dt"),
    _Key("sim", "horizon", float, 40.0, "--horizon"),
    _Key("sim", "n_paths", int, 20, "--paths"),
    _Key("sim", "seed", int, 12345, "--seed"),
    _Key("sim", "bridge_correction", bool, True),
    _Key("output", None, Path, Path("out"), "--out"),
)
# each flag and the keys it sets
_FLAGS = {flag: [row for row in _KEYS if row.flag == flag]
          for flag in dict.fromkeys(row.flag for row in _KEYS if row.flag)}


def parse_config(text: str, flags: Optional[dict] = None) -> RunConfig:
    """Parse and validate a JSON configuration document.  flags maps names
    block.key to values given on the command line, which beat the document's.

    An empty text is the document {}.  Unknown keys are rejected with their
    full path; malformed values and constraint violations raise
    ValidationError naming the offending field.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed configuration document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("configuration root must be an object")
    keys = {(row.block, row.key) for row in _KEYS}
    for block, val in doc.items():
        if (block, None) in keys:
            continue
        if not any(b == block for b, _ in keys):
            raise ValidationError(f"{block}: unknown key")
        if not isinstance(val, dict):
            raise ValidationError(f"{block}: expected an object")
        for key in val:
            if (block, key) not in keys:
                raise ValidationError(f"{block}.{key}: unknown key")

    vals = {}
    for row in _KEYS:
        vals.setdefault(row.block, {})[row.key] = row.read(doc, flags or {})
    noise, grid, fpt, fet = (vals[block] for block in ("noise", "grid", "fpt", "fet"))
    if not noise["sigma"] > 0.0:
        raise ValidationError(f"noise.sigma: must be > 0, got {noise['sigma']}")
    if grid["points"] < 2:
        raise ValidationError("grid.points: must be >= 2")
    if not grid["t_end"] > vals["model"]["t0"]:
        raise ValidationError("grid.t_end: must exceed model.t0")
    if fpt["nu"] <= 0.0:
        raise ValidationError("fpt.nu: must be > 0")
    if not (0.0 < fet["nu1"] < fet["nu"] < fet["nu2"]):
        raise ValidationError("fet: need 0 < nu1 < nu < nu2")
    for block, cls in (("model", GrowthParams), ("sim", SimConfig)):
        try:
            vals[block] = cls(**vals[block])
        except GrowthFPTError as exc:
            raise ValidationError(f"{block}: {exc}") from exc
    # the grid, fpt and fet keys are the RunConfig fields <block>_<key>
    return RunConfig(model=vals["model"], noise_kind=noise["kind"], sigma=noise["sigma"],
                     sim=vals["sim"], output=vals["output"][None],
                     **{f"{block}_{key}": value for block in ("grid", "fpt", "fet")
                        for key, value in vals[block].items()})


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


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
    if cmd != "regime":  # every other command writes its CSV and SVG there
        cfg.output.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[cmd](cfg, cfg.output)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="growthfpt",
        description="Passage and exit-time densities for stochastic growth curves",
        epilog="Each flag overrides the configuration key it names.  --nu and "
               "--method set the key of the running command, fpt or fet.")
    parser.add_argument("command", choices=sorted([*_COMMANDS, "validate"]))
    parser.add_argument("--config", type=Path, help="JSON configuration document")
    for flag, rows in _FLAGS.items():
        choices = rows[0].type if isinstance(rows[0].type, tuple) else None
        parser.add_argument(flag, type=None if choices else rows[0].type, choices=choices,
                            help=" or ".join(row.name for row in rows))
    args = parser.parse_args(argv)
    if args.command == "validate":
        # the oracle suite builds its own problems and reads no configuration
        ok, _ = validation_suite.run_all(verbose=True)
        return 0 if ok else 1

    flags = {}
    for flag, rows in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        for row in rows:
            if value is not None and (len(rows) == 1 or row.block == args.command):
                flags[row.name] = value
    try:
        try:
            text = "" if args.config is None else args.config.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config: {exc}") from exc
        cfg = parse_config(text, flags)
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
