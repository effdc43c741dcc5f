"""growthfpt benchmark: one named workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload multiplicative|additive|montecarlo
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src.  The
number of rounds is a fixed function of --seconds, never of the clock, so two
runs with the same arguments do the same work.  With --trace 0 the result
holds the end-to-end metrics; with --trace 1 each round runs twice, untraced
and then traced, and the result holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import selfcheck
import workloads
from calibration import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Seconds one round takes on the reference machine (see README.md); a run of
# S seconds does round(S / ROUND_SECONDS) rounds.
ROUND_SECONDS = {"multiplicative": 0.6, "additive": 1.0, "montecarlo": 1.2}
# One simulation thread: the estimator's time then tracks the one-thread
# host-speed reading (two threads left a 12-19 % run-to-run spread).
THREADS = 1
# timed set-ups per run
SETUPS = 5


def fresh_import():
    """Import growthfpt as a new CLI process would, with empty caches."""
    for name in [m for m in sys.modules if m == "growthfpt" or m.startswith("growthfpt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("growthfpt")
    importlib.import_module("growthfpt.cli")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "growthfpt":
        raise ImportError(f"growthfpt imported from {pkg.__file__}, not ./src")
    return pkg


class Run:
    def __init__(self, workload: str, seed: int, rounds: int, workdir: Path) -> None:
        self.workload, self.seed, self.rounds, self.workdir = workload, seed, rounds, workdir
        self.kinds = workloads.KINDS[workload]
        self.cal = Calibration("montecarlo" if workload == "montecarlo" else "cli")
        self.setup_s: list[float] = []       # scaled by the host-speed reading
        self.raw = defaultdict(list)         # kind -> seconds as measured, untraced
        self.scaled = defaultdict(lambda: defaultdict(list))  # kind -> regime -> scaled
        self.attempted = 0
        self.failures = defaultdict(list)    # kind -> details
        self.unexpected = 0
        self.problems = []

    def setup(self):
        """Import growthfpt afresh and build the problem list, timed."""
        t = perf_counter()
        pkg = fresh_import()
        self.problems = workloads.build(self.workload, self.seed, self.rounds, self.workdir)
        elapsed = perf_counter() - t
        self.setup_s.append(elapsed * self.cal.scale())
        if len(self.setup_s) == 1:
            # keep the long-lived objects of the imports out of every later
            # collection, so the collection before each problem is short
            gc.collect()
            gc.freeze()
        return pkg

    def round(self, r: int) -> list:
        k = len(self.kinds)
        return self.problems[r * k:(r + 1) * k]

    def solve(self, pkg, problem, main=None) -> tuple[float, float]:
        """Run, time and check one problem: (seconds, scaled seconds)."""
        gc.collect()
        t = perf_counter()
        try:
            outcome = workloads.run(pkg, problem, main)
        except Exception as exc:  # a crash is a failed operation; the run goes on
            outcome = workloads.Outcome(perf_counter() - t, False,
                                        f"{type(exc).__name__}: {exc}")
        scaled = outcome.seconds * self.cal.scale()
        try:
            ok, detail = workloads.check(self.workload, problem, outcome, self.workdir)
        except Exception as exc:  # unreadable output fails the problem, not the run
            ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if not ok:
            self.failures[problem.kind].append(detail)
            self.unexpected += not problem.fault
        return outcome.seconds, scaled

    def record(self, problem, seconds: tuple[float, float]) -> None:
        self.raw[problem.kind].append(seconds[0])
        self.scaled[problem.kind][problem.spec.get("regime")].append(seconds[1])

    def p50(self, kind: str) -> float:
        """The kind's median time, taken per curve regime and averaged over
        the regimes: problem cost clusters by regime, and a median across
        clusters would jump between them from seed to seed."""
        groups = self.scaled[kind].values()
        return sum(statistics.median(g) for g in groups) / len(groups)

    def total(self, kinds) -> tuple[int, float]:
        """(problems, scaled seconds) over the given kinds."""
        times = [t for k in kinds for g in self.scaled[k].values() for t in g]
        return len(times), sum(times)


def end_to_end(run: Run) -> dict:
    def family_p50(family: str) -> float:
        return sum(run.p50(k) for k in run.kinds if k.split("_")[0] == family)

    n, total = run.total(run.kinds)
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "problems_per_s": (n / total, "1/s"),
        "fpt_p50_s": (family_p50("fpt"), "s"),
        "fet_p50_s": (family_p50("fet"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


KIND_P50 = ["curve", "fpt_closed", "fet_closed", "fpt_volterra", "fet_volterra",
            "fpt_mc", "fet_mc"]


def per_layer(run: Run, summary: dict, traced_s: float) -> dict:
    s, calls, c = summary["self_s"], summary["calls"], summary["counts"]
    untraced_s = sum(sum(v) for v in run.raw.values())
    mc_s = run.total([k for k in run.kinds if "_mc" in k])[1]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "quadrature.calls": (calls["quadrature"], "count"),
        "quadrature.integrand_evals": (c["quadrature.integrand_evals"], "count"),
        "quadrature.self_s": (s["quadrature"], "s"),
        "growth_curve.calls": (calls["growth_curve"], "count"),
        "growth_curve.self_s": (s["growth_curve"], "s"),
        "gm_core.calls": (calls["gm_core"], "count"),
        "gm_core.self_s": (s["gm_core"], "s"),
        "fpt.closed_calls": (calls["fpt.closed"], "count"),
        "fpt.closed_self_s": (s["fpt.closed"], "s"),
        "fet.closed_calls": (calls["fet.closed"], "count"),
        "fet.closed_self_s": (s["fet.closed"], "s"),
        "fpt.volterra_self_s": (s["fpt.volterra"], "s"),
        "fpt.kernel_evals": (c["fpt.kernel_evals"], "count"),
        "fet.volterra_self_s": (s["fet.volterra"], "s"),
        "fet.kernel_evals": (c["fet.kernel_evals"], "count"),
        "montecarlo.self_s": (s["montecarlo"], "s"),
        "montecarlo.path_steps": (c["montecarlo.path_steps"], "count"),
        "montecarlo.useful_step_fraction": (
            ratio(c["montecarlo.useful_steps"], c["montecarlo.path_steps"]), "fraction"),
        "montecarlo.bridge_hit_fraction": (
            ratio(c["montecarlo.bridge_hits"], c["montecarlo.hits"]), "fraction"),
        "montecarlo.paths_per_s": (ratio(c["montecarlo.paths"], mc_s), "1/s"),
        "cli.self_s": (s["cli"], "s"),
        "cli.csv_s": (s["cli.csv"], "s"),
        "cli.csv_bytes": (c["cli.csv_bytes"], "B"),
        "svg.self_s": (s["svg"], "s"),
        "svg.bytes": (c["svg.bytes"], "B"),
        "trace.spans": (summary["spans"], "count"),
        "trace.problem_s": (traced_s, "s"),
        "trace.untraced_problem_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.unattributed_s": (traced_s - sum(s.values()), "s"),
        "host.slowdown": (statistics.median(1.0 / f for f in run.cal.factors), "ratio"),
    }
    for kind in KIND_P50:
        out[f"{kind}_p50_s"] = (run.p50(kind) if kind in run.kinds else 0.0, "s")
    return out


def setup_rounds(rounds: int) -> set:
    """The rounds that start with a timed set-up, spread over the run.  Other
    rounds reuse the last import: no two problems share a curve, so its
    caches stay cold for each problem."""
    return {r * rounds // SETUPS for r in range(SETUPS)}


def measure(run: Run, trace: bool) -> dict:
    if not trace:
        pkg = None
        for r in range(run.rounds):
            if r in setup_rounds(run.rounds):
                pkg = run.setup()
            for problem in run.round(r):
                run.record(problem, run.solve(pkg, problem))
        return end_to_end(run)

    import tracing
    tracer = tracing.Tracer()
    traced_s = 0.0
    for r in range(run.rounds):
        pkg = run.setup()
        for problem in run.round(r):
            run.record(problem, run.solve(pkg, problem))
        pkg = fresh_import()
        tracer.install(pkg)
        main = tracer.wrap(pkg.cli.main, "cli")
        try:
            for problem in run.round(r):
                traced_s += run.solve(pkg, problem, main)[0]
        finally:
            tracer.uninstall()
    summary = tracer.summary()
    tracer.save(OUT / f"trace-{run.workload}.npz",
                {"workload": run.workload, "seed": run.seed, "rounds": run.rounds})
    return per_layer(run, summary, traced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "growthfpt" / "__init__.py").is_file():
        print(f"no growthfpt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["GROWTHFPT_THREADS"] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    oracle_checks = selfcheck.run()
    rounds = max(2, round(args.seconds / ROUND_SECONDS[args.workload]))
    if args.trace:
        rounds = max(1, math.ceil(rounds / 2))
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args.workload, args.seed, rounds, workdir)
    try:
        metrics = measure(run, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok, detail in oracle_checks:
        if not ok:
            print(f"oracle self-check failed: {name}: {detail}")
    for kind in run.kinds:
        print(f"{kind:20s} n={len(run.raw[kind]):3d} p50 "
              f"{run.p50(kind):.4f} s scaled, median "
              f"{statistics.median(run.raw[kind]):.4f} s measured, "
              f"failed {len(run.failures[kind])}")
    print(f"host slowdown: median {statistics.median(1.0 / f for f in run.cal.factors):.3f}")
    for kind, details in run.failures.items():
        if details:
            print(f"FAILED {kind} ({len(details)}x): {details[0]}")
    failed = sum(len(v) for v in run.failures.values())
    correct = run.unexpected == 0 and all(ok for _, ok, _ in oracle_checks)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
