import os
import subprocess
import sys
from pathlib import Path

from brokenline.cli import load_dataset

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_generate_instance_writes_loadable_csv(tmp_path):
    out = tmp_path / "planted.csv"
    args = ["--mu", "4", "--kind", "planted", "--k", "2", "--seed", "3", "--out", str(out)]
    proc = run_script("generate_instance.py", *args)
    assert proc.returncode == 0, proc.stderr
    data = load_dataset(out)
    assert data.mu == 4


def test_oracle_convergence_runs():
    proc = run_script("oracle_convergence.py", "--instances", "1", "--grids", "1", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2].startswith("mean")


def test_answer_digest_repeats():
    runs = [run_script("answer_digest.py", "--quick", "--seed", "3") for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "best_fit", "grid_oracle", "regularize", "best_fit_p2_wide", "chain_fits"
    ]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert runs[1].stdout == runs[0].stdout


def test_answer_digest_lists_answers():
    plain = run_script("answer_digest.py", "--quick", "--seed", "3")
    listed = run_script("answer_digest.py", "--quick", "--seed", "3", "--answers")
    assert listed.returncode == 0, listed.stderr
    lines = [line.split() for line in listed.stdout.splitlines()]
    digests = [" ".join(fields) for fields in lines if len(fields[2]) == 64]
    assert digests == plain.stdout.splitlines()
    answers = [fields for fields in lines if len(fields[2]) == 16]
    assert len(answers) == sum(int(line.split()[1]) for line in digests)
    first = answers[0]
    assert first[:2] == ["best_fit", "0"] and float.fromhex(first[3]) >= 0.0 and first[4]
