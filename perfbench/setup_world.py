"""Build one benchmark world: generate the scenario and write its container.

Runs as a process of its own, so that the generator's memory never enters
the tracking phase's peak RSS. It repeats `generate` + `write_container`
with the same seed at least SETUP_MIN_REPS times and for at least
SETUP_MIN_S seconds, timing each repetition, and leaves the last container
plus a JSON sidecar (timings, exact ground truth, dropout log) in `--out`:

    python3 perfbench/setup_world.py --workload desk --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from workloads import SETUP_MAX_REPS, SETUP_MIN_REPS, SETUP_MIN_S, WORKLOADS, bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bootstrap()
    from omctrack.frame_io import write_container
    from omctrack.synth import ScenarioConfig, generate

    cfg = ScenarioConfig(seed=args.seed, **WORKLOADS[args.workload])
    container = args.out / "world.omcf"
    generate_s, write_s = [], []
    started = time.perf_counter()
    while len(generate_s) < SETUP_MAX_REPS and (
        len(generate_s) < SETUP_MIN_REPS or time.perf_counter() - started < SETUP_MIN_S
    ):
        t0 = time.perf_counter()
        frames, gt, dropped = generate(cfg)
        t1 = time.perf_counter()
        write_container(frames, container)
        t2 = time.perf_counter()
        del frames  # the next generate must not hold two sequences at once
        generate_s.append(t1 - t0)
        write_s.append(t2 - t1)

    sidecar = {
        "generate_s": generate_s,
        "write_s": write_s,
        "container_bytes": container.stat().st_size,
        "gt": [[b.frame, b.id, b.x, b.y, b.w, b.h, b.conf] for b in gt],
        "dropped": [list(pair) for pair in dropped],
    }
    (args.out / "world.json").write_text(json.dumps(sidecar), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
