"""One benchmark run: build a seeded world, track it, score it, check it.

The run drives the container through the public API the way
`omctrack track` does (`iter_container` -> `Tracker.step` per frame ->
`write_mot_results`), first untraced for the end-to-end numbers, then
traced for the per-layer numbers, and scores the written rows with
`evaluate` and `restoration_report`. See README.md beside this file.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import omctrack
from omctrack.association import PipelineConfig, Tracker
from omctrack.frame_io import MotBox, iter_container, read_mot_boxes, write_mot_results
from omctrack.metrics import evaluate
from omctrack.synth import restoration_report

import tracing
from workloads import HELD_OUT_SEED, ROOT, WORK_DIR, WORKLOADS

SETUP_TIMEOUT_S = 150

# frame_ms_p95 is reported only over at least this many frames, so that at
# least ten lie beyond it.
P95_MIN_FRAMES = 200

UNITS = {
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
    "frame_io.read_ms": "ms",
    "frame_io.bytes_per_frame": "bytes",
    "numerics.l2_normalize_grid_ms": "ms",
    "detection.decode_boxes_ms": "ms",
    "detection.greedy_nms_ms": "ms",
    "detection.cells_decoded": "count",
    "detection.basic_dets": "count",
    "detection.iou_calls": "count",
    "recheck.cross_correlate_ms": "ms",
    "recheck.aggregate_ms": "ms",
    "recheck.refine_ms": "ms",
    "recheck.transductive_ms": "ms",
    "recheck.tracklets_propagated": "count",
    "recheck.trans_dets": "count",
    "fusion.fuse_ms": "ms",
    "fusion.fused": "count",
    "fusion.restored": "count",
    "fusion.accept_ratio": "ratio",
    "association.extract_embeddings_ms": "ms",
    "association.associate_ms": "ms",
    "association.update_tracklets_ms": "ms",
    "association.step_self_ms": "ms",
    "association.step_ms": "ms",
    "association.matches": "count",
    "association.births": "count",
    "association.rows": "count",
    "association.live_tracklets_max": "count",
    "synth.generate_s": "s",
    "numerics.self_ms": "ms",
    "detection.self_ms": "ms",
    "recheck.self_ms": "ms",
    "fusion.self_ms": "ms",
    "association.self_ms": "ms",
    "trace.fps_delta": "frames/s",
}

END_TO_END = list(UNITS)[:10]


@dataclass
class Pass:
    """One pass of the tracker over the whole container.

    Only a phase's first pass keeps its rows and tracker, so that peak RSS
    does not grow with the number of passes.
    """

    rows: list[MotBox]
    tracker: Tracker | None
    latencies_ns: list[int]
    wall_ns: int
    attempted: int
    failed: int
    bytes_read: int
    counts: dict = field(default_factory=dict)
    sha256: str = ""

    @property
    def fps(self) -> float:
        return self.attempted / (self.wall_ns / 1e9)


class WarningCounter(logging.Handler):
    """Counts warnings from the omctrack loggers (the all-miss frame path)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def python_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's current speed.

    Recorded at the start and end of each run so that spread between runs
    can be told apart from drift of the shared machine.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return median(times)


def environment(boot: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu": cpu,
        "machine": platform.machine(),
        **boot,
    }


def build_world(workload: str, seed: int, out: Path) -> dict:
    """Run setup_world.py in a child process and load its sidecar."""
    script = Path(__file__).resolve().parent / "setup_world.py"
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=sys.stderr)
    return json.loads((out / "world.json").read_text(encoding="utf-8"))


def track_pass(container: Path, pipeline: PipelineConfig, warnings: WarningCounter,
               tracer: tracing.Tracer | None, pass_no: int) -> Pass:
    """Read and track every frame of the container with a fresh Tracker."""
    tracker = Tracker(pipeline)
    rows: list[MotBox] = []
    latencies: list[int] = []
    attempted = failed = bytes_read = 0
    if tracer is not None:
        tracer.counts.clear()
    start = time.perf_counter_ns()
    frames = iter_container(container)
    while True:
        t0 = time.perf_counter_ns()
        try:
            frame = next(frames)
        except StopIteration:
            break
        except Exception:  # a failed read ends the pass; report, keep the run going
            logging.exception("frame read failed")
            attempted += 1
            failed += 1
            break
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.frame = (pass_no, frame.frame_index)
            tracer.add_span(tracing.READ, t0, t1)
            bytes_read += sum(a.nbytes for a in frame.tensors().values())
        before = warnings.count
        try:
            rows.extend(tracker.step(frame))
        except Exception:  # count the frame as failed and go on, like a caller would
            logging.exception("Tracker.step failed on frame %d", frame.frame_index)
            failed += 1
        else:
            if warnings.count != before:
                failed += 1
        latencies.append(time.perf_counter_ns() - t0)
        attempted += 1
    wall = time.perf_counter_ns() - start
    counts = dict(tracer.counts) if tracer is not None else {}
    return Pass(rows, tracker, latencies, wall, attempted, failed, bytes_read, counts)


def run_phase(container: Path, pipeline: PipelineConfig, seconds: float,
              warnings: WarningCounter, out: Path,
              tracer: tracing.Tracer | None = None) -> list[Pass]:
    """Whole passes until `seconds` have elapsed (at least one pass).

    Each pass's rows go through write_mot_results; the file's SHA-256 is
    kept, and the first pass's file stays at `out`.
    """
    passes: list[Pass] = []
    scratch = out.with_suffix(".pass.txt")
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        p = track_pass(container, pipeline, warnings, tracer, len(passes))
        target = scratch if passes else out
        write_mot_results(p.rows, target)
        p.sha256 = hashlib.sha256(target.read_bytes()).hexdigest()
        if passes:
            p.rows, p.tracker = [], None
        passes.append(p)
    scratch.unlink(missing_ok=True)
    return passes


def best_frame_ms(passes: list[Pass]) -> list[float]:
    """Each frame's latency in its fastest pass, in ms.

    Every pass reads and steps the same frames in the same state, so a
    frame's time can only be inflated, by other work on the shared machine,
    and its fastest pass is the steadiest estimate of its cost.
    """
    return [min(ns) / 1e6 for ns in zip(*(p.latencies_ns for p in passes))]


def fps(latencies_ms: list[float]) -> float:
    return len(latencies_ms) / (sum(latencies_ms) / 1e3)


def row_problems(rows: list[MotBox], frames: int) -> list[str]:
    problems = []
    seen = set()
    for r in rows:
        key = (r.frame, r.id)
        if key in seen:
            problems.append(f"duplicate row for (frame, id) {key}")
        seen.add(key)
        if r.id < 1:
            problems.append(f"row {key} has id < 1")
        if not 1 <= r.frame <= frames:
            problems.append(f"row {key} lies outside frames 1..{frames}")
        if not all(math.isfinite(v) for v in (r.x, r.y, r.w, r.h, r.conf)):
            problems.append(f"row {key} has a non-finite field")
        elif r.w <= 0 or r.h <= 0:
            problems.append(f"row {key} has w or h <= 0")
    return problems[:20]


def layer_metrics(tracer: tracing.Tracer, traced: list[Pass]) -> tuple[dict, dict]:
    """Per-layer metrics and the step-time accounting from the traced passes."""
    spans = tracer.spans
    durations = tracing.per_frame_medians(
        (name, end - start, frame) for name, start, end, _, frame in spans)
    selfs = tracing.self_times(spans)
    step_self = tracing.per_frame_medians(
        (name, ns, frame) for name, ns, frame in selfs if name == tracing.STEP)
    layer_self = tracing.per_frame_medians(
        (name.split(".", 1)[0], ns, frame) for name, ns, frame in selfs)

    values = {
        "frame_io.read_ms": durations.get(tracing.READ, 0.0),
        "frame_io.bytes_per_frame": traced[0].bytes_read / traced[0].attempted,
        "association.step_self_ms": step_self.get(tracing.STEP, 0.0),
        "association.step_ms": durations.get(tracing.STEP, 0.0),
    }
    for name in tracing.STEP_CHILDREN:
        values[f"{name}_ms"] = durations.get(name, 0.0)
    for layer in ("numerics", "detection", "recheck", "fusion", "association"):
        values[f"{layer}.self_ms"] = layer_self.get(layer, 0.0)
    for name, unit in UNITS.items():
        if unit == "count":
            values[name] = traced[0].counts.get(name, 0)
    trans = values["recheck.trans_dets"]
    values["fusion.accept_ratio"] = values["fusion.restored"] / trans if trans else 0.0

    # Totals over the first traced pass: every step span's time is the sum of
    # its children's self times and its own, and the layers partition it.
    totals: dict[str, float] = {}
    for name, ns, frame in selfs:
        if frame[0] == 0:
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + ns / 1e6
    step_total = sum(end - start for name, start, end, _, frame in spans
                     if name == tracing.STEP and frame[0] == 0) / 1e6
    accounting = {
        "step_total_ms": step_total,
        "layer_self_total_ms": totals,
        "step_layers_sum_ms": sum(v for k, v in totals.items() if k != "frame_io"),
    }
    return values, accounting


def check_run(untraced: list[Pass], traced: list[Pass], tracer: tracing.Tracer,
              file_rows: list[MotBox], frames: int) -> list[str]:
    """Every violation of the benchmark's correctness rules, as text."""
    problems = row_problems(untraced[0].rows, frames)
    problems += [f"written file: {p}" for p in row_problems(file_rows, frames)]
    if len({p.sha256 for p in untraced}) != 1:
        problems.append("untraced passes wrote different rows")
    if any(p.sha256 != untraced[0].sha256 for p in traced):
        problems.append("traced rows differ from untraced rows")
    if any(p.counts != traced[0].counts for p in traced):
        problems.append("traced passes counted different work")
    c = traced[0].counts
    if c.get("detection.basic_dets", 0) + c.get("fusion.restored", 0) != c.get("fusion.fused", 0):
        problems.append(f"basic_dets + restored != fused: {c}")
    if c.get("association.matches", 0) + c.get("association.births", 0) != c.get("association.rows", 0):
        problems.append(f"matches + births != rows emitted: {c}")
    if c.get("association.rows", 0) != len(traced[0].rows):
        problems.append("step spans counted a different number of rows than emitted")
    problems += tracing.nesting_errors(tracer.spans)[:20]
    failed = sum(p.failed for p in untraced + traced)
    if failed:
        problems.append(f"{failed} frames failed")
    return problems


def run(args, boot: dict) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scenario = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    loop_start = python_loop_s()
    env = environment(boot)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    warnings = WarningCounter()
    omc_log = logging.getLogger("omctrack")
    omc_log.addHandler(warnings)
    try:
        world = build_world(args.workload, args.seed, work)
        container = work / "world.omcf"
        pipeline = PipelineConfig(stride=scenario.get("stride", 8))
        results = work / "results.txt"

        untraced = run_phase(container, pipeline, args.seconds, warnings, results)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced = run_phase(container, pipeline, args.seconds if args.trace else 0,
                               warnings, work / "traced.txt", tracer)

        file_rows = read_mot_boxes(results)
        gt = [MotBox(int(f), int(i), x, y, w, h, c) for f, i, x, y, w, h, c in world["gt"]]
        dropped = [tuple(pair) for pair in world["dropped"]]
        tracker = untraced[0].tracker
        report = evaluate(gt, file_rows, restored_count=tracker.restored_emitted)
        recall, _ = restoration_report(file_rows, gt, dropped)
        problems = check_run(untraced, traced, tracer, file_rows, scenario["frames"])
    finally:
        omc_log.removeHandler(warnings)
        shutil.rmtree(work, ignore_errors=True)

    latencies = best_frame_ms(untraced)
    untraced_fps = fps(latencies)
    attempted = sum(p.attempted for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    values = {
        "track_fps": untraced_fps,
        "frame_ms_p50": median(latencies),
        "frame_ms_p95": (float(np.percentile(latencies, 95))
                         if len(latencies) >= P95_MIN_FRAMES else None),
        "setup_s": median(g + w for g, w in zip(world["generate_s"], world["write_s"])),
        "peak_rss_mb": peak_rss_mb,
        "mota": report.mota,
        "idf1": report.idf1,
        "restore_recall": recall,
        "ids_excess": tracker.next_id - 1 - scenario["num_targets"],
        "failed_frame_ratio": failed / attempted,
    }
    layers, accounting = layer_metrics(tracer, traced)
    values.update(layers)
    values["synth.generate_s"] = median(world["generate_s"])
    values["trace.fps_delta"] = fps(best_frame_ms(traced)) - untraced_fps

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "setup_reps": len(world["generate_s"]),
        "scenario": scenario,
        "omctrack": omctrack.__version__,
        "env": {**env, "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                "python_loop_s_start": loop_start, "python_loop_s_end": python_loop_s()},
        "frames": scenario["frames"],
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "untraced_pass_fps": [p.fps for p in untraced],
        "traced_pass_fps": [p.fps for p in traced],
        "latency_samples": sum(p.attempted for p in untraced),
        "identities": tracker.next_id - 1,
        "fp": report.fp,
        "fn": report.fn,
        "idsw": report.idsw,
        "container_bytes": world["container_bytes"],
        "rows_sha256": untraced[0].sha256,
        "step_accounting": accounting,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "problems": problems,
    }
    print_report(record)
    print(json.dumps({"record": record}))

    mode = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in declared[mode]:
        if UNITS[m["name"]] != m["unit"]:
            raise ValueError(f"BENCHMARK.json unit of {m['name']} is {m['unit']}, "
                             f"the benchmark measures {UNITS[m['name']]}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def print_report(record: dict) -> None:
    m = record["metrics"]
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"frames={record['frames']} untraced_passes={record['untraced_passes']} "
          f"traced_passes={record['traced_passes']} "
          f"latency_samples={record['latency_samples']}")
    print(f"env {json.dumps(record['env'])}")
    print("end to end (untraced):")
    for name in END_TO_END:
        value = m[name]["value"]
        shown = "n/a (under 200 frames)" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {m[name]['unit']}")
    print("per layer (traced; times are per-frame medians, counts per pass):")
    for name in list(UNITS)[10:]:
        print(f"  {name:<34} {m[name]['value']:>14.6g} {m[name]['unit']}")
    acc = record["step_accounting"]
    print(f"step span total {acc['step_total_ms']:.3f} ms = layer self times "
          f"{acc['step_layers_sum_ms']:.3f} ms "
          + " ".join(f"{k}={v:.3f}" for k, v in sorted(acc["layer_self_total_ms"].items())))
    print(f"identities={record['identities']} fp={record['fp']} fn={record['fn']} "
          f"idsw={record['idsw']}")
    print(f"rows_sha256={record['rows_sha256']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
