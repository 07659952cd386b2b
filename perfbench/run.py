#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of brokenline.

Run from the repository root:

    python3 perfbench/run.py --workload l2-smooth --seed 1 --seconds 30 --trace 0

Load model: closed loop, one process, one caller, no threads; each timed call
(``best_fit`` with its default single thread, or ``grid_oracle``) starts when
the previous one returns. Instances come from ``--seed`` (see instances.py).
The process pins itself to one CPU, and every time it reports is calibrated
against a reference loop (see ``Clock``).

``--trace 0`` times the calls with tracing off and prints the end-to-end
metrics. ``--trace 1`` solves a fixed set of instances in alternating untraced
and traced passes, checks that both give the same answers, and prints the
per-layer metrics of tracing.py. Every answer is checked (see ``gate``); scale
probes re-solve some instances untimed in affine-changed units. An operation is
one timed call with its checks; ``attempted`` and ``failed`` count operations.
Probes are tallied apart (``probes``, ``probe_failures``): they hit a known
defect of the package, and ``--trace 1`` reports their failures as the count
``check.scale_probe.failed``. Human-readable lines come first; the last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Scale probe: x -> ALPHA*x + BETA (minutes to epoch seconds), f -> GAMMA*f + DELTA.
ALPHA, BETA, GAMMA, DELTA = 60.0, 1.7e9, -2.5, 100.0
PROBE_RTOL = 1e-6
SETUP_REPEATS = 15
# The tail is the highest of these with at least ten samples beyond it. A
# coarse ladder keeps the percentile fixed while the sample count drifts.
TAIL_PERCENTILES = (50, 75, 90, 99)
# Wall time of Clock.reference on an idle 2-core x86-64 machine with Python
# 3.11 and numpy 2.4; calibrated times are expressed at that speed.
REF_SECONDS = 0.005


@dataclass
class Outcome:
    """One timed call: its answer line, its wall time and its calibrated time."""

    answer: str
    wall: float | None  # None when the call raised
    seconds: float | None


class Clock:
    """Scales wall times to a fixed machine speed.

    The shared machines this benchmark runs on change speed by up to 2x within
    a minute, and every wall time moves with them. A fixed loop of small numpy
    solves and Python arithmetic, the kind of work brokenline does, moves the
    same way on the same core. It runs after every timed call, outside the
    timed interval. A call's calibrated time is its wall time times
    REF_SECONDS over the mean of the loop times just before and just after it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((12, 4))
        self._b = rng.standard_normal(12)
        self.refs: list[float] = []
        self.reference()  # warm-up
        self.reference()

    def reference(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            x, *_ = np.linalg.lstsq(self._A, self._b, rcond=None)
            acc += float(x @ x) + sum(range(i % 50))
        self.refs.append(time.perf_counter() - t0)
        return self.refs[-1]

    def calibrate(self, wall: float) -> float:
        before = self.refs[-1]
        return wall * REF_SECONDS / (0.5 * (before + self.reference()))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def environment() -> str:
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={np.__version__} loadavg={os.getloadavg()[0]:.2f}"
    )


def setup_seconds(clock: Clock) -> tuple[float, float]:
    """Median wall and calibrated time of a fresh interpreter importing brokenline."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import brokenline"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills __pycache__
    clock.reference()
    walls, times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        walls.append(time.perf_counter() - t0)
        times.append(clock.calibrate(walls[-1]))
    return statistics.median(walls), statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """Runs one workload's instances and keeps the failure tallies."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # answers that failed a correctness check
        self.probes = 0
        self.probe_failures = 0
        self.check_failures: Counter[str] = Counter()
        self.check_runs: Counter[str] = Counter()

    def call(self, inst, op=None) -> tuple[object, Outcome]:
        """Time one call of the workload's entry point on ``inst``."""
        from brokenline import solver
        from instances import GRID_PER_GAP

        s = inst.shape
        if op is None:
            op = getattr(solver, self.workload.op)
        args = (inst.data, s.k, s.norm())
        if self.workload.op == "grid_oracle":
            args += (GRID_PER_GAP,)
        t0 = time.perf_counter()
        try:
            out = op(*args)
        except Exception as exc:  # a crash is a failed operation, never an abort
            self.clock.reference()
            return None, Outcome(f"answer {inst.label} raised={type(exc).__name__}: {exc}", None, None)
        wall = time.perf_counter() - t0
        seconds = self.clock.calibrate(wall)
        if self.workload.op == "grid_oracle":
            return out, Outcome(f"answer {inst.label} value={out:.17g}", wall, seconds)
        answer = f"answer {inst.label} config={out.config} error={out.error:.17g}"
        return out, Outcome(answer, wall, seconds)

    def _check(self, name: str, ok: bool) -> bool:
        self.check_runs[name] += 1
        if not ok:
            self.check_failures[name] += 1
        return ok

    def gate(self, inst, out) -> bool:
        """Correctness checks of one answer, run untimed; True when all pass."""
        from brokenline import best_fit, check_structure, error_norm

        data, s = inst.data, inst.shape
        p = s.norm()
        top = float(abs(data.f).max())
        if self.workload.op == "grid_oracle":
            ref = best_fit(data, s.k, p).error
            return self._check("oracle-upper-bound", out >= ref - 1e-9 * max(ref, out))
        ok = self._check("structure", check_structure(data, out.spline, p).all_pass)
        recomputed = error_norm(data, out.spline, p)
        ok &= self._check("error-consistent", math.isclose(out.error, recomputed, rel_tol=1e-9))
        if s.kind == "planted":
            ok &= self._check("planted-zero", out.error <= 1e-9 * top)
        return ok

    def probe(self, inst, base) -> bool:
        """Re-solve in affine-changed units; the error must scale by |GAMMA|."""
        from brokenline import DataSet, best_fit

        data, s = inst.data, inst.shape
        moved = DataSet(ALPHA * data.x + BETA, GAMMA * data.f + DELTA)
        try:
            err = best_fit(moved, s.k, s.norm()).error
        except Exception as exc:  # counted as a failed probe, never an abort
            print(f"probe {inst.label} raised={type(exc).__name__}: {exc}")
            return self._check(f"scale-probe-p{s.norm().label()}", False)
        want = abs(GAMMA) * base.error
        ok = math.isclose(err, want, rel_tol=PROBE_RTOL, abs_tol=1e-9 * float(abs(moved.f).max()))
        if not ok:
            print(f"probe {inst.label} error={err:.17g} want={want:.17g}")
        return self._check(f"scale-probe-p{s.norm().label()}", ok)

    def solve_checked(self, inst) -> Outcome:
        """Timed call plus its untimed gate and, on a share of instances, a probe."""
        out, outcome = self.call(inst)
        self.attempted += 1
        if outcome.wall is None:
            self.failed += 1
        elif not self.gate(inst, out):
            self.failed += 1
            self.wrong += 1
        print(outcome.answer)
        w = self.workload
        index = inst.cycle * len(w.shapes) + inst.slot
        if w.probe_every and index % w.probe_every == 0 and outcome.wall is not None:
            self.probes += 1
            if not self.probe(inst, out):
                self.probe_failures += 1
        return outcome

    def report_checks(self) -> None:
        for name in sorted(self.check_runs):
            print(f"check {name} failed={self.check_failures[name]} of {self.check_runs[name]}")
        ratio = self.failed / self.attempted
        print(f"metric fail_ratio {ratio:.6g} ratio ({self.failed} of {self.attempted} timed calls;"
              f" scale probes {self.probe_failures} failed of {self.probes})")

    def result(self, metrics: dict) -> str:
        return json.dumps(
            {
                "correct": self.wrong == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )


def percentile(values: list[float], pct: int) -> float:
    """Linear-interpolated percentile, as statistics.quantiles computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(metrics: dict, name: str, value: float, unit: str, note: str = "") -> None:
    metrics[name] = {"value": value, "unit": unit}
    print(f"metric {name} {value:.6g} {unit}{' (' + note + ')' if note else ''}")


def run_untraced(bench: Bench, seconds: float) -> dict:
    """Closed loop for ``seconds``; timings come from the complete cycles only."""
    metrics: dict = {}
    setup_wall, setup = setup_seconds(bench.clock)
    metric(metrics, "setup_s", setup, "s", f"median of {SETUP_REPEATS}; wall {setup_wall:.6g} s")
    shapes = len(bench.workload.shapes)
    complete: list[Outcome] = []
    cycle: list[Outcome] = []
    start = time.perf_counter()
    index = 0
    while index < shapes or time.perf_counter() - start < seconds:
        inst = bench.workload.instance(bench.seed, *divmod(index, shapes))
        cycle.append(bench.solve_checked(inst))
        index += 1
        if index % shapes == 0:
            complete += [o for o in cycle if o.wall is not None]
            cycle = []
    n = len(complete)
    if n == 0:
        raise RuntimeError("every timed call raised")
    times = [o.seconds for o in complete]
    walls = [o.wall for o in complete]
    pct = max([p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10], default=50)
    metric(metrics, "solve_s_p50", statistics.median(times), "s",
           f"n={n}; wall {statistics.median(walls):.6g} s")
    metric(metrics, "solve_s_tail", percentile(times, pct), "s",
           f"p{pct}, n={n}; wall {percentile(walls, pct):.6g} s")
    metric(metrics, "solves_per_s", n / sum(times), "1/s", f"n={n}; wall {n / sum(walls):.6g} 1/s")
    metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB")
    refs = bench.clock.refs
    print(f"clock reference median {statistics.median(refs):.6g} s over {len(refs)} loops"
          f" (min {min(refs):.6g}, max {max(refs):.6g}; unit {REF_SECONDS} s)")
    bench.report_checks()
    return metrics


def run_traced(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced passes over a fixed instance set."""
    from brokenline import solver
    from tracing import Tracer

    w = bench.workload
    insts = [w.instance(bench.seed, 0, s) for s in range(len(w.shapes))]
    rounds: list[tuple[float, float, Tracer]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if rounds:
            plain = [bench.call(inst)[1] for inst in insts]
        else:
            plain = [bench.solve_checked(inst) for inst in insts]
        tracer = Tracer()
        with tracer.installed():
            op = getattr(solver, w.op)
            traced = [
                bench.call(inst, functools.partial(tracer.span, "solver." + w.op, inst.label, op))[1]
                for inst in insts
            ]
        for a, b in zip(plain, traced):
            if a.answer != b.answer:
                print(f"trace-mismatch untraced: {a.answer} traced: {b.answer}")
                bench.wrong += 1
        scale = _total(traced, "seconds") / _total(traced, "wall")
        for layer in tracer.layers.values():
            layer.s *= scale
            layer.self_s *= scale
        rounds.append((_total(plain, "seconds"), _total(traced, "seconds"), tracer))
    first = rounds[0][2]
    if any(t.count_metrics() != first.count_metrics() for _, _, t in rounds[1:]):
        print("trace-mismatch: counts differ between rounds")
        bench.wrong += 1

    def med(layer: str, field: str) -> float:
        return statistics.median(getattr(t.layers[layer], field) for _, _, t in rounds)

    metrics: dict = {}
    for name, value in first.count_metrics().items():
        metric(metrics, name, value, "count")
    metric(metrics, "check.scale_probe.failed", bench.probe_failures, "count",
           f"of {bench.probes} probes")
    for layer, field in (
        ("solver.enumerate_configs", "s"),
        ("solver.solve_config", "self_s"),
        ("norms.error_norm", "s"),
        ("core.classify_knots", "s"),
        ("fixed_knot.fit_chain", "self_s"),
        ("fixed_knot.fit_line", "self_s"),
        ("simplex.solve_lp", "s"),
        ("solver.best_fit", "self_s"),
        ("solver.grid_oracle", "s"),
    ):
        metric(metrics, f"{layer}.{field}", med(layer, field), "s")
    counts, layers = first.counts, first.layers
    winners = layers["solver.best_fit"].calls
    useful = winners / counts["fit_results"] if counts["fit_results"] else 0.0
    metric(metrics, "solver.solve_config.useful_ratio", useful, "ratio",
           f"{winners} winners / {counts['fit_results']} FitResults")
    lookups = counts["chain_lookups"]
    hit = 1.0 - layers["fixed_knot.fit_chain"].calls / lookups if lookups else 0.0
    metric(metrics, "solver.chain_cache.hit_ratio", hit, "ratio", "1 - fit_chain calls / lookups")
    plain_s = statistics.median(r[0] for r in rounds)
    traced_s = statistics.median(r[1] for r in rounds)
    metric(metrics, "trace.overhead_ratio", traced_s / plain_s, "ratio",
           f"traced {traced_s:.4f} s / untraced {plain_s:.4f} s, median of {len(rounds)} rounds")
    t0 = first.spans[0].start if first.spans else 0.0
    for span in first.spans:
        print(
            f"span {span.id} parent={span.parent} {span.name} {span.instance}"
            f" start={span.start - t0:.6f} dur={span.end - span.start:.6f}"
        )
    bench.report_checks()
    return metrics


def _total(outcomes: list[Outcome], field: str) -> float:
    return sum(getattr(o, field) for o in outcomes if o.wall is not None)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brokenline" / "__init__.py").is_file():
        print(f"perfbench: no brokenline package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from instances import WORKLOADS

    # One CPU for this process and the interpreters it starts, so the
    # reference loop of Clock runs on the same core as the work it calibrates.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(environment(), flush=True)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = run_traced(bench, args.seconds)
    else:
        metrics = run_untraced(bench, args.seconds)
    print(bench.result(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
