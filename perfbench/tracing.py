"""Spans around the package's public entry points, for the traced run.

The benchmark rebinds each traced function's name in every growthfpt module
that holds it, so calls made inside the package go through the wrapper too.
Each call becomes a span (layer, parent span, start, end), kept in memory and
written out when the run ends.  A layer's self time is the time of its spans
less the part their child spans cover; summed over all layers it is exactly
the time of the root spans, one per problem.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ["cli", "growth_curve", "quadrature", "gm_core", "fpt.closed",
          "fpt.volterra", "fet.closed", "fet.volterra", "montecarlo", "cli.csv",
          "svg"]


def _targets(pkg) -> dict:
    """Function object -> layer, for every entry point the trace wraps."""
    gc, quad, gm, fpt, fet, mc = (pkg.growth_curve, pkg.quadrature, pkg.gm_core,
                                  pkg.fpt, pkg.fet, pkg.montecarlo)
    out = {gc.x_eval: "growth_curve", gc.h_eval: "growth_curve",
           gc.g_eval: "growth_curve", quad.integrate_adaptive: "quadrature",
           gm.transition_law: "gm_core", gm.r_ratio: "gm_core",
           fpt.volterra_fpt: "fpt.volterra", fet.volterra_fet: "fet.volterra",
           pkg.cli.write_csv: "cli.csv", pkg.svg.render_line_chart: "svg"}
    for mod, prefix, layer in ((fpt, "fpt_pdf_", "fpt.closed"),
                               (fet, "fet_pdf_", "fet.closed"),
                               (mc, "estimate_", "montecarlo")):
        for name, obj in vars(mod).items():
            if name.startswith(prefix) and callable(obj):
                out[obj] = layer
    return out


class Tracer:
    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {key: 0.0 for key in (
            "quadrature.integrand_evals", "fpt.kernel_evals", "fet.kernel_evals",
            "montecarlo.path_steps", "montecarlo.useful_steps",
            "montecarlo.hits", "montecarlo.bridge_hits", "montecarlo.paths",
            "cli.csv_bytes", "svg.bytes")}
        self._installed: list = []

    # -- spans
    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _parent_layer(self) -> int:
        top = self.stack[-1]
        return self.layer[top] if top >= 0 else -1

    def wrap(self, fn, layer: str):
        layer_id = LAYERS.index(layer)
        hook = _HOOKS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._parent_layer() != layer_id
            if hook is not None and hook[0] == "before":
                args, kwargs = hook[1](tracer, outer, args, kwargs)
            idx = tracer._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None and hook[0] == "after":
                hook[1](tracer, outer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- rebinding
    def install(self, pkg) -> None:
        """Rebind every traced name in the freshly imported package."""
        wrappers = {fn: self.wrap(fn, layer) for fn, layer in _targets(pkg).items()}
        for name, mod in list(sys.modules.items()):
            if name != "growthfpt" and not name.startswith("growthfpt."):
                continue
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._installed.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._installed:
            setattr(mod, attr, obj)
        self._installed.clear()

    # -- results
    def summary(self) -> dict:
        layer = np.frombuffer(self.layer, dtype=np.int8).astype(np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        # a call counts once per entry into its layer, not per nested call
        outer = ~has_parent.copy()
        outer[has_parent] = layer[parent[has_parent]] != layer[has_parent]
        calls = np.bincount(layer[outer], minlength=len(LAYERS))
        return {"self_s": dict(zip(LAYERS, self_time.tolist())),
                "calls": dict(zip(LAYERS, calls.tolist())),
                "root_s": float(dur[~has_parent].sum()),
                "spans": int(dur.size),
                "counts": dict(self.counts)}

    def save(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npz")
        np.savez_compressed(tmp, layer=np.array(self.layer, dtype=np.int8),
                            parent=np.array(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end),
                            layers=np.array(LAYERS), meta=np.array(repr(meta)))
        os.replace(tmp, path)


# -- counts taken at the layer boundaries

def _count_integrand(tracer: Tracer, outer: bool, args, kwargs):
    f = args[0]

    def counted(u):
        tracer.counts["quadrature.integrand_evals"] += 1
        return f(u)

    return (counted,) + tuple(args[1:]), kwargs


def _kernel_evals(name: str, per_row: int, per_pair: int):
    """Kernel evaluations of a left-rectangle solve on K grid points: per_row
    forcing terms for each k >= 1 and per_pair sums over j = 1..k-1."""
    def hook(tracer: Tracer, outer: bool, args, kwargs):
        if outer:
            K = len(kwargs.get("grid", args[-1]))
            tracer.counts[name] += per_row * (K - 1) + per_pair * (K - 1) * (K - 2) / 2
        return args, kwargs
    return hook


def _mc_stats(tracer: Tracer, outer: bool, args, kwargs, sample) -> None:
    cfg = kwargs.get("cfg", args[-1])
    t0 = args[0].params.t0
    steps = round(cfg.horizon / cfg.dt)
    pos = (np.asarray(sample.hit_times) - t0) / cfg.dt
    c = tracer.counts
    c["montecarlo.paths"] += cfg.n_paths
    c["montecarlo.path_steps"] += cfg.n_paths * steps
    # a hit in step k (midpoint k + 1/2 or right end k + 1) used k + 1 steps
    c["montecarlo.useful_steps"] += float(np.sum(np.ceil(pos - 1e-9))) + \
        sample.censored_count * steps
    c["montecarlo.hits"] += pos.size
    c["montecarlo.bridge_hits"] += int(np.count_nonzero(
        np.abs(pos - np.floor(pos) - 0.5) < 1e-6))


def _csv_bytes(tracer: Tracer, outer: bool, args, kwargs, result) -> None:
    tracer.counts["cli.csv_bytes"] += os.path.getsize(kwargs.get("path", args[0]))


def _svg_bytes(tracer: Tracer, outer: bool, args, kwargs, result) -> None:
    tracer.counts["svg.bytes"] += len(result)


_HOOKS = {
    "integrate_adaptive": ("before", _count_integrand),
    "volterra_fpt": ("before", _kernel_evals("fpt.kernel_evals", 1, 1)),
    "volterra_fet": ("before", _kernel_evals("fet.kernel_evals", 2, 4)),
    "estimate_fpt": ("after", _mc_stats),
    "estimate_fet": ("after", _mc_stats),
    "write_csv": ("after", _csv_bytes),
    "render_line_chart": ("after", _svg_bytes),
}
