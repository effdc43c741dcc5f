"""Exact-transition path simulation and empirical passage/exit estimation.

Paths are advanced by exact transition sampling on a uniform grid, so the
step size never biases the marginal laws; it only limits how finely boundary
crossings are resolved.  That residual bias is removed (to leading order) by
a within-step correction: in a coordinate where the process is a (possibly
time-changed) Wiener process, a step pinned at (z_k, z_{k+1}) on the same
side of a boundary level b crosses it mid-step with probability

    exp{-2 (b - z_k)(b - z_{k+1}) / var_step},

the boundary being frozen at its left-endpoint value for the step.  Hits
found this way are recorded at the step midpoint; hits visible at the grid
points themselves are recorded at the right endpoint.

Randomness is organised in fixed-size chunks of paths: chunk c draws from a
counter-based generator keyed by (seed, c), and a path's draws are a fixed
row of the chunk's blocks.  The layout is a pure function of (seed,
path_index), so ensembles are bit-identical for a given seed no matter how
many worker threads run; GROWTHFPT_THREADS caps the pool (default: the
CPUs this process may run on).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (BandCrossing, ConfigError, EmptySample, StartOnBoundary,
                     StartOutsideBand)
from .fpt import AffineGMBoundary, DensityCurve, ExpBoundary, GeneralBoundary
from .gm_core import on_grid
from .growth_curve import _core, _g
from .process_lognormal import LognormalProcess
from .process_ou import OUProcess, int_g2

CHUNK = 1024  # paths per random-stream chunk; fixed so results never depend on threads

Process = Union[LognormalProcess, OUProcess]
Boundary = Union[GeneralBoundary, ExpBoundary, AffineGMBoundary]


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
    return np.random.Generator(
        np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, chunk_index]))


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


def _grid(process: Process, cfg: SimConfig) -> np.ndarray:
    params = process.params
    n_steps = round(cfg.horizon / cfg.dt)
    t_star = _core(params).t_star
    if params.t0 + cfg.horizon >= t_star:
        raise ConfigError(
            f"horizon {cfg.horizon} reaches the domain end t_star={t_star}")
    return params.t0 + cfg.dt * np.arange(n_steps + 1)


def _wiener_coord_setup(process: Process, ts: np.ndarray
                        ) -> Tuple[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Per-step setup of the internal Wiener coordinate.

    Returns (coord0, step_std, to_state): the start value, the per-step
    standard deviations of the coordinate increments, and a map taking a
    (rows, n_times) coordinate block back to state space.

    For the multiplicative process the coordinate is
    z = ln x + ln g(t) - ln g(t0) + sigma^2 t / 2, whose increments are the
    exact transition shocks sigma*sqrt(dt)*N; for the additive one it is
    u = x * g(t), a Wiener process run in the intrinsic clock
    r(t) = sigma^2 * int g^2.
    """
    params = process.params
    g_arr = _g(params, ts)
    if isinstance(process, LognormalProcess):
        s2 = process.sigma ** 2
        z0 = math.log(params.x0) + 0.5 * s2 * ts[0]
        step_std = process.sigma * np.sqrt(np.diff(ts))
        offs = np.log(g_arr) - math.log(g_arr[0]) + 0.5 * s2 * ts  # z = ln x + offs

        def to_state(z: np.ndarray) -> np.ndarray:
            return np.exp(z - offs[None, :])

        return z0, step_std, to_state
    # additive: u = x * g(t); increment variance = sigma^2 * int g^2 over the step
    s2 = process.sigma ** 2
    u0 = params.x0 * g_arr[0]
    step_std = np.sqrt(s2 * np.diff(int_g2(params, ts)))

    def to_state(u: np.ndarray) -> np.ndarray:
        return u / g_arr[None, :]

    return u0, step_std, to_state


def _boundary_values(process: Process, boundary: Boundary, ts: np.ndarray) -> np.ndarray:
    """State-space boundary values on the grid, one call per boundary."""
    from .fpt import affine_gm_boundary_fns, exp_boundary_fns
    if isinstance(boundary, GeneralBoundary):
        return on_grid(boundary.s, ts)
    if isinstance(boundary, ExpBoundary):
        if not isinstance(process, LognormalProcess):
            raise ConfigError("ExpBoundary applies to the multiplicative process")
        return exp_boundary_fns(process, boundary).s(ts)
    if isinstance(boundary, AffineGMBoundary):
        if not isinstance(process, OUProcess):
            raise ConfigError("AffineGMBoundary applies to the additive process")
        return affine_gm_boundary_fns(process, boundary, float(ts[0])).s(ts)
    raise ConfigError(f"unsupported boundary type {type(boundary).__name__}")


def _coord_boundary(process: Process, ts: np.ndarray, svals: np.ndarray) -> np.ndarray:
    """Map state-space boundary values into the internal Wiener coordinate."""
    g_arr = _g(process.params, ts)
    if isinstance(process, LognormalProcess):
        if np.any(svals <= 0.0):
            from .errors import NonPositiveState
            raise NonPositiveState(
                "boundary must stay positive for the multiplicative process")
        s2 = process.sigma ** 2
        return (np.log(svals) + np.log(g_arr) - math.log(g_arr[0])
                + 0.5 * s2 * ts)
    return svals * g_arr


def simulate_paths(process: Process, cfg: SimConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate an ensemble of exact-transition paths.

    Returns (times, paths) with paths of shape (n_paths, n_times); paths[i, 0]
    is x0 for every path.  For a fixed seed the ensemble is bit-identical
    regardless of thread count.
    """
    ts = _grid(process, cfg)
    n_steps = ts.size - 1
    coord0, step_std, to_state = _wiener_coord_setup(process, ts)
    out = np.empty((cfg.n_paths, ts.size))

    def worker(chunk_idx: int, start: int, rows: int) -> None:
        rng = _chunk_rng(cfg.seed, chunk_idx)
        zn = rng.standard_normal((CHUNK, n_steps))[:rows]
        coord = np.empty((rows, ts.size))
        coord[:, 0] = coord0
        coord[:, 1:] = coord0 + np.cumsum(step_std[None, :] * zn, axis=1)
        out[start:start + rows] = to_state(coord)

    _run_chunked(cfg.n_paths, worker)
    return ts, out


def _first_event_times(ev_bridge: np.ndarray, ev_direct: np.ndarray,
                       ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-event step index and hit time per row; index -1 when censored.

    Bridge events resolve to the step midpoint, direct (grid-visible)
    events to the right endpoint.
    """
    ev = ev_bridge | ev_direct
    any_ev = ev.any(axis=1)
    idx = np.where(any_ev, np.argmax(ev, axis=1), -1)
    rows = np.arange(ev.shape[0])
    direct_at = np.zeros(ev.shape[0], dtype=bool)
    direct_at[any_ev] = ev_direct[rows[any_ev], idx[any_ev]]
    dt = ts[1] - ts[0]
    t_hit = np.where(direct_at, ts[0] + (idx + 1) * dt, ts[0] + idx * dt + 0.5 * dt)
    return idx, t_hit


def estimate_fpt(process: Process, boundary: Boundary, cfg: SimConfig
                 ) -> EmpiricalHittingSample:
    """Empirical first-passage sample against a single boundary."""
    ts = _grid(process, cfg)
    n_steps = ts.size - 1
    svals = _boundary_values(process, boundary, ts)
    b = _coord_boundary(process, ts, svals)
    coord0, step_std, _ = _wiener_coord_setup(process, ts)
    if coord0 == b[0]:
        raise StartOnBoundary("path starts exactly on the boundary")
    sign = 1.0 if coord0 < b[0] else -1.0  # work with the boundary above
    var_step = step_std ** 2

    hit_time = np.full(cfg.n_paths, np.nan)

    def worker(chunk_idx: int, start: int, rows: int) -> None:
        rng = _chunk_rng(cfg.seed, chunk_idx)
        zn = rng.standard_normal((CHUNK, n_steps))[:rows]
        un = rng.random((CHUNK, n_steps))[:rows]
        z = np.empty((rows, ts.size))
        z[:, 0] = coord0
        z[:, 1:] = coord0 + np.cumsum(step_std[None, :] * zn, axis=1)
        d = sign * (b[None, :] - z)          # distance below the boundary
        direct = d[:, 1:] <= 0.0
        if cfg.bridge_correction:
            # distances to the level frozen at each step's left endpoint
            fl = sign * (b[None, :-1] - z[:, :-1])
            fr = sign * (b[None, :-1] - z[:, 1:])
            p = np.exp(-2.0 * np.maximum(fl, 0.0) * np.maximum(fr, 0.0)
                       / var_step[None, :])
            bridge = (un < p) & ~direct
        else:
            bridge = np.zeros_like(direct)
        idx, t_hit = _first_event_times(bridge, direct, ts)
        sl = slice(start, start + rows)
        hit_time[sl] = np.where(idx >= 0, t_hit, np.nan)

    _run_chunked(cfg.n_paths, worker)
    hits = hit_time[~np.isnan(hit_time)]
    return EmpiricalHittingSample(
        hit_times=np.sort(hits),
        exit_sides=None,
        censored_count=int(cfg.n_paths - hits.size),
        n_paths=cfg.n_paths,
    )


def estimate_fet(process: Process, s1: Boundary, s2: Boundary, cfg: SimConfig
                 ) -> EmpiricalHittingSample:
    """Empirical first-exit sample from the band (s1, s2), recording sides.

    Each step checks the lower boundary first, then the upper, both with
    their own bridge correction.
    """
    ts = _grid(process, cfg)
    n_steps = ts.size - 1
    b1 = _coord_boundary(process, ts, _boundary_values(process, s1, ts))
    b2 = _coord_boundary(process, ts, _boundary_values(process, s2, ts))
    if np.any(b1 >= b2):
        raise BandCrossing("lower boundary meets or exceeds the upper one")
    coord0, step_std, _ = _wiener_coord_setup(process, ts)
    if not (b1[0] < coord0 < b2[0]):
        raise StartOutsideBand("path starts on or outside the band")
    var_step = step_std ** 2

    hit_time = np.full(cfg.n_paths, np.nan)
    hit_side = np.zeros(cfg.n_paths, dtype=np.int8)  # 1 lower, 2 upper

    def worker(chunk_idx: int, start: int, rows: int) -> None:
        rng = _chunk_rng(cfg.seed, chunk_idx)
        zn = rng.standard_normal((CHUNK, n_steps))[:rows]
        u_low = rng.random((CHUNK, n_steps))[:rows]
        u_up = rng.random((CHUNK, n_steps))[:rows]
        z = np.empty((rows, ts.size))
        z[:, 0] = coord0
        z[:, 1:] = coord0 + np.cumsum(step_std[None, :] * zn, axis=1)
        d1 = z - b1[None, :]   # distance above the lower boundary
        d2 = b2[None, :] - z   # distance below the upper boundary
        direct_low = d1[:, 1:] <= 0.0
        direct_up = d2[:, 1:] <= 0.0
        if cfg.bridge_correction:
            # distances to each boundary frozen at the step's left endpoint
            l_fl = z[:, :-1] - b1[None, :-1]
            l_fr = z[:, 1:] - b1[None, :-1]
            u_fl = b2[None, :-1] - z[:, :-1]
            u_fr = b2[None, :-1] - z[:, 1:]
            p1 = np.exp(-2.0 * np.maximum(l_fl, 0.0) * np.maximum(l_fr, 0.0)
                        / var_step[None, :])
            p2 = np.exp(-2.0 * np.maximum(u_fl, 0.0) * np.maximum(u_fr, 0.0)
                        / var_step[None, :])
            bridge_low = (u_low < p1) & ~direct_low
            bridge_up = (u_up < p2) & ~direct_up
        else:
            bridge_low = np.zeros_like(direct_low)
            bridge_up = np.zeros_like(direct_up)
        ev_low = direct_low | bridge_low
        ev_up = (direct_up | bridge_up) & ~ev_low  # lower checked first
        ev = ev_low | ev_up
        any_ev = ev.any(axis=1)
        first = np.where(any_ev, np.argmax(ev, axis=1), -1)
        rows_i = np.arange(rows)
        side = np.zeros(rows, dtype=np.int8)
        low_at = np.zeros(rows, dtype=bool)
        low_at[any_ev] = ev_low[rows_i[any_ev], first[any_ev]]
        side[any_ev] = np.where(low_at[any_ev], 1, 2)
        # midpoint for bridge hits, right endpoint for direct ones
        direct_at = np.zeros(rows, dtype=bool)
        dsel = np.where(low_at, direct_low[rows_i, np.maximum(first, 0)],
                        direct_up[rows_i, np.maximum(first, 0)])
        direct_at[any_ev] = dsel[any_ev]
        dt = ts[1] - ts[0]
        t_hit = np.where(direct_at, ts[0] + (first + 1) * dt,
                         ts[0] + first * dt + 0.5 * dt)
        sl = slice(start, start + rows)
        hit_time[sl] = np.where(first >= 0, t_hit, np.nan)
        hit_side[sl] = np.where(first >= 0, side, 0)

    _run_chunked(cfg.n_paths, worker)
    mask = ~np.isnan(hit_time)
    order = np.argsort(hit_time[mask], kind="stable")
    times = hit_time[mask][order]
    sides = np.where(hit_side[mask][order] == 1, "lower", "upper")
    return EmpiricalHittingSample(
        hit_times=times,
        exit_sides=sides,
        censored_count=int(cfg.n_paths - times.size),
        n_paths=cfg.n_paths,
    )


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
