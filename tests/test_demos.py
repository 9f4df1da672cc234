"""The demos run end to end as scripts, the way the README tells a reader to.

Each runs in its own interpreter with `PYTHONPATH=src` from the repository
root. Demos 02 and 03 sweep whole tracking runs (about 10 s each) and are
left to a manual run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run([sys.executable, str(Path("demos") / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_restore_dropped_targets.py",
                                  "04_boundary_offsets.py",
                                  "06_cli_end_to_end.py"])
def test_demo_exits_zero(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr


def test_metrics_walkthrough_prints_hand_values():
    done = run_demo("05_metrics_walkthrough.py")
    assert done.returncode == 0, done.stderr
    assert "  MOTA = 1 - (0+0+2)/10 = 0.8\n" in done.stdout
    assert "  IDF1 = 0.6\n" in done.stdout
