"""The demo scripts and the README quickstart run against the current library,
each in a fresh process, so each sees the package exactly as a user's script
would."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(args, cwd):
    # from a scratch directory, where a demo may write its figure
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                            env=env, cwd=cwd, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_oracle_triangle_demo_runs(tmp_path):
    # the one demo that drives the Monte Carlo chain counts
    out = run_fresh([str(ROOT / "demos" / "oracle_triangle.py")], tmp_path)
    beyond_reach = re.findall(r"monte carlo (\S+) over 500 trials", out)
    assert beyond_reach == ["0.0", "0.0"]


@pytest.mark.parametrize("demo, expected", [
    ("clustering_plateau.py", "value at half-width pi: 1.000000000000"),
    ("separation_thresholds.py", "terminal value p/pi = 0.031831"),
    ("torus_product.py", "clustering  factorized 0.1687500000  tensor grid 0.1687500000"),
], ids=["clustering_plateau", "separation_thresholds", "torus_product"])
def test_demo_runs(tmp_path, demo, expected):
    assert expected in run_fresh([str(ROOT / "demos" / demo)], tmp_path)


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Library quickstart\n\n```python\n(.*?)```", readme,
                          flags=re.S)
    closed, quad, mc, spread = map(float, run_fresh(["-c", block], tmp_path).split())
    assert closed == pytest.approx(quad, abs=1e-9)
    assert abs(mc - closed) <= 5 * spread
