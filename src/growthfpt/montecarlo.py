"""Exact-transition path simulation and empirical passage/exit estimation.

simulate_paths advances paths by exact transition sampling on a uniform grid
of step dt, so the step never biases the marginal laws.  Every path lives
in its process's Wiener coordinate from the start (process.coord): a unit
Wiener process w from 0 in the clock R, whose step variances are the
differences of R on the grid.  The estimators map their problem into it by
gm_core.to_clock, as the Volterra solvers do, and take only rows that are
lines c + d*R there, the closed-form boundaries of the process; any other
boundary, callables or one of the other process, is a ConfigError.

Against one line, or a band between two lines (_strip_hits), a path goes to
the horizon in one step, since given its two ends its exit law is exact
over any clock interval (Anderson 1960, Ann. Math. Statist. 31).  It draws
its end over the whole clock V.  A band first becomes one of one slope by
Doob's (1949, Ann. Math. Statist. 20) space-time map of the bridge.  Let
its sides c_i + d_i R have the widths L at R = 0 and L_V at R = V, and
k = (d_2 - d_1)/L, so that 1 + kR is the width at R over L, positive as
gm_core.check_posed keeps every width.  A bridge w over [0, V] ending at y
is (1 + kR) W(R/(1 + kR)), W a bridge over [0, S], S = V L/L_V, ending at
y L/L_V.  In the clock s = R/(1 + kR) both sides of W are lines of the one
slope d_1 - k c_1 with the intercepts c_i, each end distance is L/L_V times
w's, and a hit at s is one at R = s/(1 - ks).  A line, or a band of one
slope, has k = 0 and S = V, and all else is as in R.  In s, side i has
start distance a_i = |c_i| and end distance b_i, and alone is crossed with
the bridge's probability P_i = exp{-2 a_i b_i / S} where b_i > 0, 1
otherwise, the same in s as in R; Q = sum_i P_i.  A proposal picks side
i with probability P_i/Q (one uniform), draws tau from that side's bridge
law, S U/(1 + U) with U ~ IG(a/|b|, a^2/S) (one normal and one uniform,
_hit_clock), and accepts it with probability r_i(tau) = f_i(tau)/f_one(tau)
<= 1 (one uniform), f_i the strip's exit density through i and f_one the
one-sided one: given the ends, the exit's sub-density in (i, tau) is
Q r_i(tau) times the proposal's.  r_i is fet._strip_ratio, by which
fet_pdf_closed multiplies each side's passage density.  An end outside
proposes until one is accepted.  An end inside with Q <= 1 draws u where
Q > 2**-53 and makes one proposal where log u < log Q; a rejection leaves
it inside.  One with Q > 1 exits where u < 1 - P_stay and then proposes
until one is accepted; from a to b above the lower side of a strip of
width L (fet._strip_stay, beside _strip_ratio, with its terms and floor),

    P_stay = sum_n [exp{-2nL(nL + b - a)/S} - exp{-2(nL + a)(nL + b)/S}].

A line has r = 1 and no second side: it draws no side or accept uniform.
Newton's method on the coordinate's clock maps R = tau/(1 - k tau) to a
time (_clock_times).  The law is exact whatever dt, which sets no step of
an estimator, only the grid from which Newton's method starts.

simulate_paths returns whole paths.  estimate_fpt and estimate_fet wrap
one private path, which checks the rows by gm_core.check_posed as every
method does and calls _strip_hits.

Randomness comes from one SFC64 stream per kind of draw, spawned in a fixed
order from SeedSequence(seed) (the seed taken modulo 2**64, _streams), and
each kind is drawn for the whole ensemble in path order.  simulate_paths
draws one normal per step of each path, row-major (path, step), from the
first stream.  _strip_hits draws one normal per path, then one uniform per
candidate, then in each proposal round, for the paths still proposing, the
side uniforms, the hit times' normals and uniforms and the accept uniforms,
each kind from its own stream.  Path-wide arrays are built in pieces of at
most PIECE values (_pieces), one piece after another in path order; since
each stream is drawn in path order, a sample is a function of the seed and
the problem alone, whatever the piece size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, EmptySample
from .fet import _exp_floored, _strip_ratio, _strip_stay
from .fpt import DensityCurve
from .gm_core import WienerCoord, check_posed, to_clock
from .growth_curve import _core
from .process_lognormal import ExpBoundary, LognormalProcess
from .process_ou import AffineGMBoundary, OUProcess

# the most values a piece of a path-wide array holds (_pieces): a memory bound,
# not part of the random streams
PIECE = 2 ** 14
# log of the smallest positive Generator.random() draw, 2**-53: a bridge
# exponent at or below it can fire only on a drawn 0
LOG_U_MIN = float(np.log(2.0 ** -53))
NEWTON_TOL, NEWTON_MAX = 1e-7, 8  # the inverse clock's last step, of the span; its most steps

Process = Union[LognormalProcess, OUProcess]
Boundary = Union[ExpBoundary, AffineGMBoundary]


@dataclass(frozen=True)
class SimConfig:
    """An ensemble's grid, size and seed.  dt is the step of simulate_paths.
    The estimators take each path to the horizon in one step, so there dt
    sets no step, only the grid from which Newton's method starts to map hit
    times."""

    dt: float
    horizon: float
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and self.horizon > 0.0):
            raise ConfigError("dt and horizon must be positive")
        if self.dt >= self.horizon:
            raise ConfigError(f"dt={self.dt} must be smaller than horizon={self.horizon}")
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
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
    # path-steps simulated: one per path, whatever dt
    path_steps: int = 0


def _streams(seed: int, kinds: int) -> list:
    """One SFC64 generator per kind of draw, spawned in order from the seed
    taken modulo 2**64."""
    root = np.random.SeedSequence(seed & 0xFFFF_FFFF_FFFF_FFFF)
    return [np.random.Generator(np.random.SFC64(child)) for child in root.spawn(kinds)]


def _pieces(n: int, width: int = 1) -> list:
    """(lo, hi) of the consecutive row ranges that cover [0, n), in order,
    each of at most PIECE values at width values a row, and one row at
    least."""
    step = max(1, PIECE // width)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _grid(process: Process, cfg: SimConfig) -> np.ndarray:
    """The grid from the process's start; it must end before t_star."""
    params = process.params
    t_star = _core(params).t_star
    if params.t0 + cfg.horizon >= t_star:
        raise ConfigError(
            f"horizon {cfg.horizon} reaches the domain end t_star={t_star}")
    return params.t0 + cfg.dt * np.arange(round(cfg.horizon / cfg.dt) + 1)


def simulate_paths(process: Process, cfg: SimConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate an ensemble of exact-transition paths.

    Returns (times, paths) with paths of shape (n_paths, n_times); paths[i, 0]
    is x0 for every path.  For a fixed seed the ensemble is bit-identical,
    and its first paths are those of any smaller ensemble.
    """
    ts = _grid(process, cfg)
    coord = process.coord(process.params.x0, process.params.t0)
    step_std = np.sqrt(np.diff(coord.clock(ts)))
    out = np.empty((cfg.n_paths, ts.size))
    normals, = _streams(cfg.seed, 1)
    for lo, hi in _pieces(cfg.n_paths, ts.size):
        w = out[lo:hi]  # a unit Wiener path from 0, one normal per step, row-major
        w[:, 0] = 0.0
        np.cumsum(step_std * normals.standard_normal((hi - lo, step_std.size)), axis=1,
                  out=w[:, 1:])
        w[:] = coord.to_state(w, ts)
    return ts, out


def _hit_clock(a: Union[float, np.ndarray], b: np.ndarray, V: float,
               normals: np.random.Generator, uniforms: np.random.Generator) -> np.ndarray:
    """Clock times in (0, V] of the first hits of Brownian bridges over [0, V]
    from distances a > 0 to the line to end distances b: tau = V U/(1 + U)
    with U ~ IG(a/|b|, a^2/V), that is (a/|b|) X with X ~ IG(1, phi), phi =
    a|b|/V.  X is drawn by Michael, Schucany and Haas (Amer. Statist. 30,
    1976) from one normal Z and one uniform: the root x = 2 phi/(2 phi + y +
    sqrt(y^2 + 4 phi y)), y = Z^2, with probability 1/(1 + x), else 1/x.  In
    1/U = V(2 phi + y + sqrt(...))/(2 a^2) and x|b|/a every term is positive,
    so nothing cancels, and an end on the line (phi = 0) takes the bridge's
    limit U = a^2/(V y)."""
    bb = np.abs(b)
    phi = a * bb / V
    y = np.square(normals.standard_normal(b.size))
    den = 2.0 * phi + y + np.sqrt(y * (y + 4.0 * phi))
    x = 2.0 * phi / den
    small = uniforms.random(b.size) * (1.0 + x) <= 1.0
    return V / (1.0 + np.where(small, V * den / (2.0 * a * a), x * bb / a))


def _clock_times(coord: WienerCoord, ts: np.ndarray, R: np.ndarray,
                 tau: np.ndarray) -> np.ndarray:
    """The times in [ts[0], ts[-1]] at which coord.clock reads tau, by
    Newton's method on the coordinate's clock and rate from the linear
    interpolation of its values R on the grid ts.  Each time stops once its
    step moves it by at most NEWTON_TOL of the span, which leaves an error
    of the order of that step squared, so a time does not depend on the
    others in the call.  A linear clock (the lognormal process's) takes one
    evaluation."""
    t = np.interp(tau, R, ts)
    tol = NEWTON_TOL * (ts[-1] - ts[0])
    todo = np.arange(t.size)
    for _ in range(NEWTON_MAX):
        tk = t[todo]
        step = (coord.clock(tk) - tau[todo]) / coord.rate(tk)
        t[todo] = np.clip(tk - step, ts[0], ts[-1])
        todo = todo[np.abs(step) > tol]
        if not todo.size:
            break
    return t


@np.errstate(divide="ignore")  # a drawn 0 has log -inf, an event
def _strip_hits(ts: np.ndarray, R: np.ndarray, coord: WienerCoord,
                lines: Sequence[Tuple[float, float]], cfg: SimConfig,
                side_names: Optional[Sequence[str]]) -> EmpiricalHittingSample:
    """The first exit of each path of a unit Wiener process from 0 in the
    clock R through one line c + d*R, or either side of a band of two (the
    side named by side_names when given), in one step per path over the
    clock V = R[-1] by the module docstring's law, run in the clock s in
    which the sides have one slope.  Each piece of paths draws its ends and
    decides which paths propose; then one loop makes every round, piece by
    piece, and gathers into new pieces the refused paths whose ends lie
    outside.  Last, the clock times map to times, a piece at a time."""
    V, band = float(R[-1]), len(lines) == 2
    c, d = np.array(lines).T
    sign, a, L = np.sign(c), np.abs(c), float(np.sum(np.abs(c)))  # distances: sign*(c + dR - w)
    # the clock s = R/(1 + kR) gives the sides one slope (module docstring): it
    # ends at S = qV, q = 1/(1 + kV) = L/L_V (1 for one slope), and each end distance
    # is q times w's
    k = (d[-1] - d[0]) / L
    q = 1.0 / (1.0 + k * V)
    S = V * q
    # in s: an end's distance per unit normal, and at w = 0; the bridge exponent per unit distance
    scale, b_still, rate = -sign * np.sqrt(V) * q, (a + sign * d * V) * q, -2.0 * a / S
    ratio = _strip_ratio(a, L) if band else None
    ends, cand_u, side_u, hit_z, hit_u, accept_u = _streams(cfg.seed, 6)
    # clock times s, which the end maps to R and then to times
    hit_time, hit_side = np.full(cfg.n_paths, np.nan), np.zeros(cfg.n_paths, dtype=np.int8)

    def propose(rows: np.ndarray, b: np.ndarray, p_lower: np.ndarray, must: np.ndarray):
        """One proposal round of the paths rows in path order, given their ends'
        distances b (a row per side), lower-side shares and must (an end outside):
        records the accepted; returns the refused that must go on, as its arguments."""
        if band:
            s = (side_u.random(rows.size) >= p_lower).astype(np.intp)
            t = _hit_clock(a[s], b[s, np.arange(rows.size)], S, hit_z, hit_u)
            ok = accept_u.random(rows.size) < ratio(s, t)
            hit_time[rows[ok]], hit_side[rows[ok]] = t[ok], s[ok]
            keep = must & ~ok
        else:  # a line takes every proposal
            hit_time[rows] = _hit_clock(a[0], b[0], S, hit_z, hit_u)
            keep = np.zeros(rows.size, dtype=bool)
        return rows[keep], b[:, keep], p_lower[keep], must[keep]  # copies: no view keeps a piece

    def proposers(lo: int, hi: int):
        """(rows, b, p_lower, must) of the paths of the piece [lo, hi) that propose."""
        b = np.multiply.outer(scale, ends.standard_normal(hi - lo))  # a row per side
        b += b_still[:, None]
        g = rate[:, None] * b
        must, top = b[0] <= 0.0, g[0]  # must: an end outside
        if band:
            must, top = must | (b[1] <= 0.0), np.maximum(g[0], g[1])
        # Q <= (number of sides) max P, so only these can be candidates
        cand = np.flatnonzero(~must & (top > LOG_U_MIN - math.log(len(a))))
        logq = g[0][cand]
        if band:
            logq = np.logaddexp(logq, g[1][cand])
            cand, logq = cand[logq > LOG_U_MIN], logq[logq > LOG_U_MIN]
        u = cand_u.random(cand.size)
        go = must.copy()
        go[cand] = np.log(u) < logq
        big = cand[logq > 0.0]  # Q > 1: exits where u < 1 - P_stay, then must
        if big.size:
            go[big] = must[big] = u[logq > 0.0] < 1.0 - _strip_stay(a[0], b[0, big], S, L)
        rows = np.flatnonzero(go)
        p_lower = np.ones(rows.size)  # a line's one side
        if band:
            P = _exp_floored(np.minimum(g[:, rows], 0.0))  # 1 where b <= 0
            p_lower = P[0] / (P[0] + P[1])
        return lo + rows, b[:, rows], p_lower, must[rows]

    # the first round takes each piece as it is drawn, so no piece waits in memory
    todo = (proposers(lo, hi) for lo, hi in _pieces(cfg.n_paths))
    while todo:  # a proposal round, piece by piece in path order
        rows, b, p_lower, must = (np.concatenate(x, axis=-1)
                                  for x in zip(*(propose(*piece) for piece in todo)))
        todo = [(rows[lo:hi], b[:, lo:hi], p_lower[lo:hi], must[lo:hi])
                for lo, hi in _pieces(rows.size)]
    mask = ~np.isnan(hit_time)
    hits, sides = hit_time[mask], None
    for lo, hi in _pieces(hits.size):  # none if empty: the OU clock takes no empty call
        tau = hits[lo:hi]
        hits[lo:hi] = _clock_times(coord, ts, R, tau / (1.0 - k * tau))
    if band:
        order = np.argsort(hits)
        hits, sides = hits[order], np.array(side_names)[hit_side[mask][order]]
    else:
        hits.sort()
    return EmpiricalHittingSample(hit_times=hits, exit_sides=sides,
                                  censored_count=int(cfg.n_paths - hits.size),
                                  n_paths=cfg.n_paths, path_steps=cfg.n_paths)


def _estimate(process: Process, boundaries: list, cfg: SimConfig, side_names):
    """The sample of the problem to_clock maps from the process's start, every
    boundary a line there, in one step per path (_strip_hits)."""
    ts = _grid(process, cfg)
    R, _, S, _, lines = to_clock(process, boundaries, process.params.x0, ts)
    if None in lines:
        raise ConfigError("Monte Carlo takes only closed-form boundaries of the process")
    check_posed(S)
    return _strip_hits(ts, R, process.coord(process.params.x0, ts[0]), lines, cfg, side_names)


def estimate_fpt(process: Process, boundary: Boundary, cfg: SimConfig
                 ) -> EmpiricalHittingSample:
    """Empirical first-passage sample against a single boundary."""
    return _estimate(process, [boundary], cfg, None)


def estimate_fet(process: Process, s1: Boundary, s2: Boundary, cfg: SimConfig
                 ) -> EmpiricalHittingSample:
    """Empirical first-exit sample from the band (s1, s2), recording sides.

    Each path exits by the band's law in one step, whatever the sides'
    slopes and dt.
    """
    return _estimate(process, [s1, s2], cfg, ("lower", "upper"))


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
