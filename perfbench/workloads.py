"""Benchmark workloads and the start-up every benchmark process shares.

This module imports only the standard library, so that `bootstrap` can cap
the BLAS thread count before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = Path(__file__).resolve().parent / ".work"

# generate + write_container repeat until both minimums are met (or the
# cap is hit); setup_s is the median repetition.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15

# The tracker is single-threaded apart from BLAS. On a 2-CPU machine a
# second OpenBLAS thread competes with the interpreter thread: it made no
# frame faster (mot17 included) and clutter's frame rate noisier, so every
# run uses one, whatever OPENBLAS_NUM_THREADS asks for.
BLAS_THREADS = 1

# Seed kept out of tuning: a later change claiming a gain re-checks it here.
HELD_OUT_SEED = 7

# ScenarioConfig fields per workload. The tracker runs with the default
# PipelineConfig except that its stride equals the world's, as
# `omctrack track --stride` would be given.
WORKLOADS = {
    # README quick start and acceptance criterion 3: a healthy tracker with
    # restoration doing real work; per-cell Python objects dominate.
    "desk": dict(num_targets=6, height=20, width=20, frames=200,
                 dropout_prob=0.3, clutter_similarity=0.3),
    # Acceptance criteria 4/5: ghost tracks push live tracklets past 140, so
    # association, scalar IoU loops and per-tracklet aggregation dominate.
    # Runnable but not in BENCHMARK.json: its work varies with the seed too
    # much for the frame-rate bound (see README.md).
    "clutter": dict(num_targets=4, height=12, width=12, frames=80,
                    dropout_prob=0.2, clutter_similarity=0.6),
    # Paper scale: the FairMOT 152x272x512 embedding map of a 1088x608 input
    # at stride 4. Dense per-cell kernels, container reads and memory
    # dominate; association is negligible. Three frames keep generation
    # (about 1.7 s a frame) inside the run budget; frames 2 and 3 propagate.
    "mot17": dict(num_targets=20, height=152, width=272, frames=3,
                  dropout_prob=0.2, stride=4),
    # Smoke-test scenario only; not listed in BENCHMARK.json.
    "tiny": dict(num_targets=2, height=8, width=8, frames=12,
                 dropout_prob=0.3),
}


def bootstrap() -> dict:
    """Make the repository's `src` importable and fix the BLAS thread count.

    Exits with status 2, before anything is printed to stdout, when the
    checkout holds no `src/omctrack` package: the benchmark measures that
    source tree and never an installed copy.
    """
    if not (SRC / "omctrack" / "__init__.py").is_file():
        print(f"perfbench: no omctrack sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    requested = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    return {"nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OPENBLAS_NUM_THREADS_requested": requested}
