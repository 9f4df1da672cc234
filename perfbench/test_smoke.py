"""Smoke test of the benchmark itself on the tiny 8x8, 2-target world.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END_UNITS = {
    "track_fps": "frames/s",
    "frame_ms_p50": "ms",
    "frame_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mota": "ratio",
    "idf1": "ratio",
    "restore_recall": "ratio",
    "ids_excess": "identities",
    "failed_frame_ratio": "ratio",
}


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def result(request):
    proc = run_bench(ROOT, request.param)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    return request.param, lines, record, json.loads(lines[-1])


def test_every_metric_is_printed_with_its_unit(result):
    _, lines, _, _ = result
    text = "\n".join(lines[:-2])
    units = dict(END_TO_END_UNITS)
    units.update({m["name"]: m["unit"] for m in DECLARED["per_layer"]})
    for name, unit in units.items():
        pattern = rf"^\s+{re.escape(name)}\s+\S.* {re.escape(unit)}$"
        assert re.search(pattern, text, re.MULTILINE), f"{name} [{unit}] not printed"


def test_last_line_follows_the_contract(result):
    trace, _, _, last = result
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_counters_add_up(result):
    _, _, record, _ = result
    m = {k: v["value"] for k, v in record["metrics"].items()}
    assert m["detection.basic_dets"] + m["fusion.restored"] == m["fusion.fused"]
    assert m["association.matches"] + m["association.births"] == m["association.rows"]
    assert m["association.births"] == record["identities"]
    assert record["problems"] == []
    acc = record["step_accounting"]
    assert acc["step_layers_sum_ms"] == pytest.approx(acc["step_total_ms"], abs=1e-6)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
