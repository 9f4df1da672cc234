"""The benchmark command still runs on the tree it sits in.

perfbench/run.py reads containers through `iter_container` and steps them
through `Tracker.step`, then checks its own rows and counters. A change to
the read path or the step that breaks the harness fails here, in the tier-1
suite. The benchmark's files are run as they are, not edited.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_traced_run_exits_0_and_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
