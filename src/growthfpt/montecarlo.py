"""Exact-transition path simulation and empirical passage/exit estimation.

Paths are advanced by exact transition sampling on a uniform grid, so the
step size never biases the marginal laws; it only limits how finely boundary
crossings are resolved.  Every path lives in its process's Wiener
coordinate from the start (process.coord): a unit Wiener process w from 0
in the clock R, whose step variances are the differences of R on the grid.
The estimators take the closed-form boundaries of the process, each a line
c + d*R there (coord.line); any other boundary, or one of the other
process, is a ConfigError.  The residual crossing bias is removed by a
within-step correction: a step pinned at (w_k, w_{k+1}) that stays on the
start's side of a boundary at both grid times crosses it mid-step with
probability

    exp{-2 d_k d_{k+1} / var_step},

where d_k and d_{k+1} are the distances to the boundary at the step's two
grid times.  For a line this is exact, not only to first order.  The test is
made in log form: a uniform draw u gives an event where

    log u < -2 d_k d_{k+1} / var_step,

so no exponential is computed (most exponents of a long step lie far below
the range where exp is cheap).  Hits found this way are recorded at the step
midpoint; hits visible at the grid points themselves are recorded at the
right endpoint.

simulate_paths returns whole paths.  One crossing detector (_first_hits),
which steps its own paths, serves one boundary or two: estimate_fpt and
estimate_fet are thin wrappers that differ only in their checks of the start
and in whether they report exit sides.  Within a step the first boundary
given (the lower one of a band) wins a tie.

Randomness is organised in fixed-size chunks of paths: chunk c draws from an
SFC64 generator seeded by SeedSequence([seed, c]) (the seed masked to 64
bits), so each chunk's stream is a pure function of (seed, c).
simulate_paths draws the chunk's whole Gaussian block, one fixed row per
path.  The estimators step a chunk in time blocks (BLOCK0 steps, then twice
as many each block; a remainder shorter than the current block joins it) and
stop simulating a path once it has hit: each block draws a Gaussian block for
the paths still running, then one uniform block per boundary in the order the
boundaries are given.  Which paths run depends only on the chunk's earlier
draws, so ensembles are bit-identical for a given seed no matter how many
worker threads run; GROWTHFPT_THREADS caps the pool (default: the CPUs this
process may run on).

A block step allocates nothing of the block's size: each worker takes flat
scratch buffers once per chunk, sized for the widest block, and views them per
block.  Draws land in them with out=, and the log of the uniforms, the
distances, their product, the exponent and the event test are formed in
place.  A step whose right end is at or past a boundary needs no test of its
own: its distances d_k > 0 >= d_{k+1} give an exponent >= 0, above the log of
every uniform draw (a draw of exactly 0 has log -inf).  A later step, with
both distances <= 0, may read no event; only a path's first event counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (BandCrossing, ConfigError, EmptySample, StartOnBoundary,
                     StartOutsideBand)
from .fpt import DensityCurve
from .gm_core import WienerCoord
from .growth_curve import _core
from .process_lognormal import ExpBoundary, LognormalProcess
from .process_ou import AffineGMBoundary, OUProcess

CHUNK = 1024  # paths per random-stream chunk; fixed so results never depend on threads
BLOCK0 = 16  # steps in an estimator's first time block; each later block doubles

Process = Union[LognormalProcess, OUProcess]
Boundary = Union[ExpBoundary, AffineGMBoundary]


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    n_paths: int
    seed: int
    bridge_correction: bool = True

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and self.horizon > 0.0):
            raise ConfigError("dt and horizon must be positive")
        if self.dt >= self.horizon:
            raise ConfigError(f"dt={self.dt} must be smaller than horizon={self.horizon}")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        n = self.horizon / self.dt
        if not np.isfinite(n):
            raise ConfigError(
                f"horizon={self.horizon} / dt={self.dt} is not a finite step count")
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(
                f"horizon={self.horizon} is not an integer multiple of dt={self.dt}")


@dataclass(frozen=True)
class EmpiricalHittingSample:
    """Hit times (and exit sides for band problems) from a simulated ensemble.

    Censored paths are counted, never dropped: empirical densities are
    normalised by n_paths so defective targets compare correctly.
    """

    hit_times: np.ndarray
    exit_sides: Optional[np.ndarray]  # 'lower'/'upper' per hit, or None (single boundary)
    censored_count: int
    n_paths: int


def _n_threads() -> int:
    env = os.environ.get("GROWTHFPT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"GROWTHFPT_THREADS is not an integer: {env!r}")
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _chunks(n_paths: int) -> Sequence[Tuple[int, int, int]]:
    """(chunk_index, start, rows) covering [0, n_paths)."""
    out = []
    c = 0
    for start in range(0, n_paths, CHUNK):
        out.append((c, start, min(CHUNK, n_paths - start)))
        c += 1
    return out


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, chunk_index])))


def _run_chunked(n_paths: int, worker: Callable[[int, int, int], None]) -> None:
    chunks = _chunks(n_paths)
    threads = min(_n_threads(), len(chunks))
    if threads <= 1:
        for c, start, rows in chunks:
            worker(c, start, rows)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, c, start, rows) for c, start, rows in chunks]
        for fut in futures:
            fut.result()


def _coordinate(process: Process, cfg: SimConfig
                ) -> Tuple[np.ndarray, WienerCoord, np.ndarray]:
    """(times, coord, R): the grid, the process's Wiener coordinate from its
    start and the clock on the grid."""
    params = process.params
    n_steps = round(cfg.horizon / cfg.dt)
    t_star = _core(params).t_star
    if params.t0 + cfg.horizon >= t_star:
        raise ConfigError(
            f"horizon {cfg.horizon} reaches the domain end t_star={t_star}")
    ts = params.t0 + cfg.dt * np.arange(n_steps + 1)
    coord = process.coord(params.x0, params.t0)
    return ts, coord, coord.clock(ts)


def simulate_paths(process: Process, cfg: SimConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate an ensemble of exact-transition paths.

    Returns (times, paths) with paths of shape (n_paths, n_times); paths[i, 0]
    is x0 for every path.  For a fixed seed the ensemble is bit-identical
    regardless of thread count.
    """
    ts, coord, R = _coordinate(process, cfg)
    step_std = np.sqrt(np.diff(R))
    out = np.empty((cfg.n_paths, ts.size))

    def worker(chunk_idx: int, start: int, rows: int) -> None:
        zn = _chunk_rng(cfg.seed, chunk_idx).standard_normal((rows, step_std.size))
        w = np.zeros((rows, ts.size))
        np.cumsum(step_std[None, :] * zn, axis=1, out=w[:, 1:])
        out[start:start + rows] = coord.to_state(w, ts)

    _run_chunked(cfg.n_paths, worker)
    return ts, out


def _setup(process: Process, boundaries: Sequence[Boundary], cfg: SimConfig
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, b, step_std): the grid, each boundary's line in the Wiener
    coordinate on the grid (one row each) and the per-step standard
    deviations; the coordinate starts at 0."""
    ts, coord, R = _coordinate(process, cfg)
    b = np.array([c + d * R for c, d in map(coord.line, boundaries)])
    return ts, b, np.sqrt(np.diff(R))


def _block_edges(n_steps: int) -> list[int]:
    """Step indices that bound the time blocks: BLOCK0 steps, then twice as
    many each block; a remainder shorter than the current block joins it."""
    edges, width = [0], BLOCK0
    while edges[-1] < n_steps:
        k1 = edges[-1] + width
        edges.append(n_steps if n_steps - k1 < width else k1)
        width *= 2
    return edges


def _first_hits(ts: np.ndarray, b: np.ndarray, coord0: float,
                step_std: np.ndarray, cfg: SimConfig,
                side_names: Optional[Sequence[str]]) -> EmpiricalHittingSample:
    """The first crossing of any boundary row of b by each path, sorted by
    time, with the row crossed named by side_names when they are given.
    Within a step the first row with an event wins.  Paths are stepped in
    time blocks and dropped once they have hit.
    """
    n_steps = ts.size - 1
    dt = ts[1] - ts[0]
    rate = -2.0 / step_std ** 2
    above = b[:, 0] > coord0
    edges = _block_edges(n_steps)
    widest = max(k1 - k0 for k0, k1 in zip(edges, edges[1:]))
    hit_time = np.full(cfg.n_paths, np.nan)
    hit_side = np.full(cfg.n_paths, -1, dtype=np.int8)

    def worker(chunk_idx: int, start: int, rows: int) -> None:
        rng = _chunk_rng(cfg.seed, chunk_idx)
        # scratch for every block of the chunk: path values and distances at
        # the grid times, then per step the log-uniforms, exponents and events
        z_buf, d_buf = np.empty(rows * (widest + 1)), np.empty(rows * (widest + 1))
        g_buf, u_buf = np.empty(rows * widest), np.empty(rows * widest)
        ev_buf = np.empty(rows * widest, dtype=bool)
        live = np.arange(start, start + rows)  # indices of the paths still running
        z_end = np.full(rows, coord0)
        for k0, k1 in zip(edges, edges[1:]):
            if not live.size:
                break
            n, m = live.size, k1 - k0
            z = z_buf[:n * (m + 1)].reshape(n, m + 1)
            d = d_buf[:n * (m + 1)].reshape(n, m + 1)
            g, u = g_buf[:n * m].reshape(n, m), u_buf[:n * m].reshape(n, m)
            ev = ev_buf[:n * m].reshape(n, m)
            z[:, 0] = z_end
            rng.standard_normal(out=g)
            np.multiply(step_std[k0:k1], g, out=z[:, 1:])
            np.cumsum(z, axis=1, out=z)
            first = np.full(n, m)  # step in the block of the earliest event so far
            side = np.full(n, -1)
            direct_at = np.zeros(n, dtype=bool)
            for a in range(b.shape[0]):
                # distances to boundary a on the start's side, at the grid times
                if above[a]:
                    np.subtract(b[a, k0:k1 + 1], z, out=d)
                else:
                    np.subtract(z, b[a, k0:k1 + 1], out=d)
                if cfg.bridge_correction:
                    rng.random(out=u)
                    # an event where log u < -2 d_k d_{k+1} / var_step; a
                    # step that ends on or past the boundary has an exponent
                    # >= 0 and fires for every draw (log 0 = -inf included)
                    with np.errstate(divide="ignore"):
                        np.log(u, out=u)
                    np.multiply(d[:, :-1], d[:, 1:], out=g)
                    g *= rate[k0:k1]
                    np.less(u, g, out=ev)
                else:
                    np.less_equal(d[:, 1:], 0.0, out=ev)
                idx = np.argmax(ev, axis=1)
                earlier = np.flatnonzero((idx < first) & ev[np.arange(n), idx])
                first[earlier] = idx[earlier]
                side[earlier] = a
                # a direct hit ends on or past the boundary
                direct_at[earlier] = d[earlier, idx[earlier] + 1] <= 0.0
            hit = side >= 0
            done, k = live[hit], k0 + first[hit]
            # midpoint for bridge hits, right endpoint for direct ones
            hit_time[done] = np.where(direct_at[hit], ts[0] + (k + 1) * dt,
                                      ts[0] + k * dt + 0.5 * dt)
            hit_side[done] = side[hit]
            live, z_end = live[~hit], z[~hit, -1]

    _run_chunked(cfg.n_paths, worker)
    mask = ~np.isnan(hit_time)
    order = np.argsort(hit_time[mask], kind="stable")
    sides = None
    if side_names is not None:
        sides = np.array(side_names)[hit_side[mask][order]]
    return EmpiricalHittingSample(
        hit_times=hit_time[mask][order],
        exit_sides=sides,
        censored_count=int(cfg.n_paths - np.count_nonzero(mask)),
        n_paths=cfg.n_paths,
    )


def estimate_fpt(process: Process, boundary: Boundary, cfg: SimConfig
                 ) -> EmpiricalHittingSample:
    """Empirical first-passage sample against a single boundary."""
    ts, b, step_std = _setup(process, [boundary], cfg)
    if b[0, 0] == 0.0:
        raise StartOnBoundary("path starts exactly on the boundary")
    return _first_hits(ts, b, 0.0, step_std, cfg, None)


def estimate_fet(process: Process, s1: Boundary, s2: Boundary, cfg: SimConfig
                 ) -> EmpiricalHittingSample:
    """Empirical first-exit sample from the band (s1, s2), recording sides.

    Each boundary gets its own bridge correction; the lower one wins a tie
    within a step.
    """
    ts, b, step_std = _setup(process, [s1, s2], cfg)
    if np.any(b[0] >= b[1]):
        raise BandCrossing("lower boundary meets or exceeds the upper one")
    if not (b[0, 0] < 0.0 < b[1, 0]):
        raise StartOutsideBand("path starts on or outside the band")
    return _first_hits(ts, b, 0.0, step_std, cfg, ("lower", "upper"))


def density_distance(empirical: EmpiricalHittingSample, analytic: DensityCurve,
                     bins: int = 40) -> Tuple[float, float]:
    """(L1, KS) distances between an empirical sample and an analytic curve.

    L1 compares the histogram density (normalised by n_paths, so defective
    samples stay defective) against the analytic curve interpolated at bin
    centres, over the analytic grid's span.  KS compares the empirical
    sub-CDF against the accumulated analytic mass.
    """
    if empirical.hit_times.size == 0:
        raise EmptySample("no hits recorded")
    lo, hi = float(analytic.times[0]), float(analytic.times[-1])
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(empirical.hit_times, bins=edges)
    width = edges[1] - edges[0]
    dens = counts / (empirical.n_paths * width)
    centers = 0.5 * (edges[1:] + edges[:-1])
    f_an = np.interp(centers, analytic.times, analytic.values)
    l1 = float(np.sum(np.abs(dens - f_an)) * width)

    cum = analytic.cumulative()
    hits = empirical.hit_times
    inside = hits[(hits >= lo) & (hits <= hi)]
    f_emp_hi = np.searchsorted(hits, inside, side="right") / empirical.n_paths
    f_emp_lo = np.searchsorted(hits, inside, side="left") / empirical.n_paths
    f_at = np.interp(inside, analytic.times, cum)
    ks = float(max(np.max(np.abs(f_emp_hi - f_at)) if inside.size else 0.0,
                   np.max(np.abs(f_emp_lo - f_at)) if inside.size else 0.0))
    # also probe the grid itself (plateaus between hits)
    f_emp_grid = np.searchsorted(hits, analytic.times, side="right") / empirical.n_paths
    ks = max(ks, float(np.max(np.abs(f_emp_grid - cum))))
    return l1, ks
