"""Tests of the benchmark itself: repeatable answers and counts, exact baselines.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import brokenline.fixed_knot  # noqa: E402
import brokenline.solver  # noqa: E402
from instances import WORKLOADS  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def record(workload: str, seed: int) -> tuple[list[str], dict, dict]:
    """Answer lines, count metrics and the result of one single-round traced run."""
    out = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    return [line for line in lines if line.startswith("answer ")], counts, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_runs_record_identical_answers_and_counts(workload):
    answers, counts, result = record(workload, 11)
    again, counts_again, _ = record(workload, 11)
    assert result["correct"]
    assert len(answers) == len(WORKLOADS[workload].shapes)
    assert answers == again
    assert counts == counts_again
    assert counts["solver." + WORKLOADS[workload].op + ".calls"] == len(answers)


@pytest.mark.parametrize(
    "mu, k, configs", [(12, 3, 1404), (20, 3, 7900), (30, 3, 29460), (60, 2, 6965)]
)
def test_enumeration_count_matches_roadmap_baseline(mu, k, configs):
    tracer = Tracer()
    with tracer.installed():
        brokenline.solver.enumerate_configs(mu, k)
    assert tracer.counts["configs"] == configs
    assert tracer.layers["solver.enumerate_configs"].calls == 1


def test_wrappers_are_removed_even_after_an_exception():
    modules = {"brokenline.solver": brokenline.solver, "brokenline.fixed_knot": brokenline.fixed_knot}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in WRAPPED}
    with pytest.raises(ValueError):
        with Tracer().installed():
            assert brokenline.solver.fit_chain is not before["brokenline.solver", "fit_chain"]
            brokenline.solver.enumerate_configs(0, 1)
    assert {(m, a): getattr(modules[m], a) for m, a, _ in WRAPPED} == before


def test_self_time_excludes_wrapped_children():
    from brokenline import DataSet, PNorm

    data = DataSet([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0])
    tracer = Tracer()
    with tracer.installed():
        tracer.span("solver.best_fit", "tiny", brokenline.solver.best_fit, data, 1, PNorm.one())
    layers = tracer.layers
    assert layers["simplex.solve_lp"].calls == layers["fixed_knot.fit_chain"].calls > 0
    chain = layers["fixed_knot.fit_chain"]
    assert chain.self_s < chain.s
    top = layers["solver.best_fit"]
    assert top.calls == 1 and 0 < top.self_s < top.s
    assert [(s.name, s.parent) for s in tracer.spans] == [("solver.best_fit", None)]


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "l2-smooth", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
