"""Smoke runs of the experiment scripts under scripts/, each in a child
process that imports the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from tests.helpers import package_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_rk_convergence():
    lines = run_script("rk_convergence.py")
    rows = {line.split()[0]: line.split() for line in lines if line.startswith("rk")}
    assert set(rows) == {"rk1", "rk2", "rk4"}
    # the fitted log-log slope of the one-step error is order + 1
    for order in (1, 2, 4):
        assert float(rows[f"rk{order}"][-1]) == pytest.approx(order + 1, abs=0.1)


def test_sbm_benchmark():
    lines = run_script("sbm_benchmark.py", "--epochs", "2", "--rk", "2")
    assert [line.split()[:2] for line in lines] == [
        ["homophilic", "rk2"],
        ["heterophilic", "rk2"],
    ]
    assert all("epochs=2" in line for line in lines)


def test_alpha_sweep():
    lines = run_script(
        "alpha_sweep.py", "--alphas", "1.0", "--rounds", "1", "--local-epochs", "1"
    )
    assert lines[0].split() == ["alpha", "mean_tv", "final_accuracy"]
    alpha, mean_tv, accuracy = lines[1].split()
    assert float(alpha) == 1.0
    assert 0.0 <= float(mean_tv) <= 1.0
    assert 0.0 <= float(accuracy) <= 1.0
    assert lines[2].startswith("(clients=5, rounds=1, local_epochs=1")


def test_step_profile():
    lines = run_script(
        "step_profile.py", "--sbm", "blocks=20,20,20;p_in=0.3;p_out=0.05;seed=1",
        "--rk", "2", "--blas-threads", "1", "--steps", "3",
    )
    assert lines[0] == "n=60 rk=2 blas_threads=1"
    header = lines[1].split()
    assert header == ["step", "forward_ms", "backward_ms", "adam_ms", "eval_ms",
                      "faults_forward", "faults_backward", "faults_adam", "faults_eval",
                      "maxrss_mb"]
    rows = [line.split() for line in lines[2:5]]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    for row in rows:
        assert len(row) == len(header)
        assert all(float(v) >= 0 for v in row[1:])
    assert lines[5].startswith("median of steps 1-2: forward_ms ")
    assert len(lines[5].split(": ")[1].split()) == 2 * (len(header) - 1)
    label, peaks = lines[6].split(": ")
    assert label == "traced peak_mb of step 0"
    words = peaks.split()
    peak = dict(zip(words[::2], map(float, words[1::2])))
    assert list(peak) == ["forward", "backward", "adam", "eval"]
    # the training forward holds its graph and the attention's n x n
    # arrays; the detached eval forward holds neither
    assert 0 < peak["eval"] < peak["forward"]
    assert len(lines) == 7
