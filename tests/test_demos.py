"""The demo scripts run against the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_triangle_demo_runs():
    # the one demo that drives estimate_chain_count; a fresh process, so it
    # sees the package exactly as a user's script would
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "oracle_triangle.py")],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    beyond_reach = re.findall(r"monte carlo (\S+) over 500 trials", result.stdout)
    assert beyond_reach == ["0.0", "0.0"]
