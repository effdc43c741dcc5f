"""A fixed reference job timed between problems, to take host speed out of
the timings.

The host the benchmark was built on runs in fast and slow stretches: a fixed
solve took 35 ms in some and 63 ms in others, each stretch lasting seconds.
Between every two timed items (problems and set-ups) the benchmark times
a small job that does not touch growthfpt, and scales each item's time by
REFERENCE / (the job's time around it): the geometric mean of the readings
just before and just after the item.  A timing so scaled reads as the time
the item takes when the reference job takes its reference time.

The jobs mirror the code each workload spends its time in.  For the CLI
workloads: interpreted float arithmetic and number formatting, and numpy on
short arrays.  For the Monte Carlo workload: drawing, summing and testing
blocks of paths the way the estimator does, on one thread as the benchmark
runs the estimator.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_SHORT = [np.random.default_rng(k).standard_normal(300) for k in range(4)]


def _interpreted() -> str:
    def f(u: float) -> float:
        return math.exp(-u) * u ** 1.5 + 1.0

    total, parts = 0.0, []
    for i in range(1500):
        total += f(i * 1e-3)
        if i % 3 == 0:
            parts.append(f"{total:.17g}")
    return ",".join(parts)


def _short_arrays() -> float:
    a, b, c, d = _SHORT
    acc = 0.0
    for _ in range(40):
        x = a * b - c / (1.0 + d * d)
        acc += float(np.exp(-x * x).sum())
    return acc


def _path_block(key: int) -> int:
    rng = np.random.Generator(np.random.Philox(key=[7, key]))
    z = np.cumsum(0.05 * rng.standard_normal((1024, 100)), axis=1)
    u = rng.random((1024, 99))
    p = np.exp(-2.0 * np.maximum(0.3 - z[:, :-1], 0.0) * np.maximum(0.3 - z[:, 1:], 0.0)
               / 0.0025)
    return int(np.argmax((u < p) | (z[:, 1:] >= 0.3), axis=1).sum())


def _paths() -> None:
    _path_block(1)
    _path_block(2)


# job -> (seconds it takes in the reference machine's fast state, weight)
REFERENCE = {
    "cli": {_interpreted: (0.80e-3, 0.5), _short_arrays: (0.45e-3, 0.5)},
    "montecarlo": {_paths: (10.5e-3, 1.0)},
}


class Calibration:
    def __init__(self, kind: str) -> None:
        self.reference = REFERENCE[kind]
        self.factors: list[float] = []
        self._last = self._read()

    def _read(self) -> dict:
        out = {}
        for job in self.reference:
            t = perf_counter()
            job()
            out[job] = perf_counter() - t
        return out

    def scale(self) -> float:
        """Take a reading now and return the factor for the item just timed."""
        now = self._read()
        log_f = sum(w * math.log(ref / math.sqrt(self._last[job] * now[job]))
                    for job, (ref, w) in self.reference.items())
        self._last = now
        factor = math.exp(log_f)
        self.factors.append(factor)
        return factor
