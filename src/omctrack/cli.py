"""Command-line entry point: track, eval, synth, sweep and gradcheck.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 failed
gradcheck or sweep assertion. A container frame with a bad value that the
tracker reads (non-finite, prob outside [0, 1]) is not a data error: track
logs a warning, emits no rows for it and goes on. Values are checked where
they are read, so a bad value nothing reads (in feat under bypass
refinement, or in an embed cell neither the search nor the readout reads)
changes nothing. embed is read from the container block by block by the
search and cell by cell by the readout, never whole; feat is read only
under learned refinement. track writes its rows frame by frame: a data
error partway still replaces --out with the rows of every frame that
finished (the printed frames= count) before exiting 2. The OMC_LOG
environment variable (debug|info) raises log verbosity; default output is
just the command's own summary.

Flag values may also come from a --config file of flat key=value lines
(same keys as the long flag names with dashes turned into underscores);
explicit flags win over the file, the file wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time

import numpy as np

from .association import PipelineConfig, Tracker, TrackerConfig, track_sequence
from .frame_io import (
    ContainerFormatError,
    MotBox,
    MotParseError,
    iter_container,
    mot_results_writer,
    read_mot_boxes,
    write_container,
    write_mot_results,
)
from .metrics import EvalReport, evaluate
from .recheck import RefineWeights
from .supervision import gaussian_target, logistic_mse_loss, loss_gradient
from .synth import ScenarioConfig, generate, iter_generate

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

log = logging.getLogger("omctrack")


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this artifact reserves 2 for data
    # errors, so route parse failures through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


def _merged(args: argparse.Namespace, key: str, default, convert):
    """Resolve one option: explicit flag > config file > default."""
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    file_values = getattr(args, "_config_values", {})
    if key in file_values:
        try:
            return convert(file_values[key])
        except ValueError as exc:
            raise UsageError(f"config key {key}: {exc}") from exc
    return default


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_radius(text: str) -> float:
    if text.lower() in ("inf", "none"):
        return math.inf
    return float(text)


def _add_tracking_flags(p: _Parser) -> None:
    p.add_argument("--epsilon", type=float, default=None,
                   help="fusion vote threshold (default 0.5)")
    p.add_argument("--radius", type=_parse_radius, default=None,
                   help="response shrink radius in cells, 'inf' disables (default 3)")
    p.add_argument("--hscale", type=float, default=None,
                   help="boundary-aware offset scale (default 10)")
    p.add_argument("--k", type=int, default=None,
                   help="frames a tracklet survives without a match (default 30)")
    p.add_argument("--alpha", type=float, default=None,
                   help="embedding momentum for mode 'updated' (default 0.9)")
    p.add_argument("--stride", type=int, default=None,
                   help="pixels per feature cell (default 8)")
    p.add_argument("--score-thr", type=float, default=None, dest="score_thr",
                   help="detection keep threshold (default 0.5)")
    p.add_argument("--iou-thr", type=float, default=None, dest="iou_thr",
                   help="NMS suppression threshold (default 0.45)")
    p.add_argument("--emb-match-thr", type=float, default=None, dest="emb_match_thr",
                   help="min cosine similarity for association (default 0.6)")
    p.add_argument("--iou-match-thr", type=float, default=None, dest="iou_match_thr",
                   help="min IOU for fallback association (default 0.5)")
    p.add_argument("--decode", choices=("bar", "sigmoid"), default=None,
                   help="offset decoding mode (default bar)")
    p.add_argument("--refine", choices=("bypass", "learned"), default=None,
                   help="refinement mode; learned needs --weights (default bypass)")
    p.add_argument("--weights", default=None,
                   help="OMCF file with refinement weights")
    p.add_argument("--disable-recheck", action="store_true", default=None,
                   dest="disable_recheck",
                   help="turn tracklet propagation off (detector only)")
    p.add_argument("--disable-shrink", action="store_true", default=None,
                   dest="disable_shrink",
                   help="aggregate full response maps without peak windows")
    p.add_argument("--embedding-mode", choices=("first", "last", "updated"),
                   default=None, dest="embedding_mode",
                   help="tracklet embedding update rule (default updated)")


def _add_scenario_flags(p: _Parser) -> None:
    p.add_argument("--targets", type=int, default=None, help="number of targets (default 6)")
    p.add_argument("--frames", type=int, default=None, help="sequence length (default 200)")
    p.add_argument("--grid", default=None, help="feature grid as HxW (default 20x20)")
    p.add_argument("--dropout", type=float, default=None,
                   help="per-frame detection dropout probability (default 0)")
    p.add_argument("--clutter", type=float, default=None,
                   help="max background cosine vs any identity (default 0.3)")
    p.add_argument("--noise", type=float, default=None,
                   help="gaussian noise sigma on target embeddings (default 0)")
    p.add_argument("--speed", default=None,
                   help="target speed range in cells/frame as LO:HI (default 0.12:0.35)")
    p.add_argument("--size", default=None,
                   help="target box size range in cells as LO:HI (default 2:3)")


def _build_configs(args) -> tuple[PipelineConfig, TrackerConfig]:
    disable_recheck = _merged(args, "disable_recheck", False, _parse_bool)
    disable_shrink = _merged(args, "disable_shrink", False, _parse_bool)
    radius = _merged(args, "radius", 3.0, _parse_radius)
    if disable_shrink:
        radius = math.inf
    try:
        pipeline = PipelineConfig(
            decode_mode=_merged(args, "decode", "bar", str),
            h_scale=_merged(args, "hscale", 10.0, float),
            score_thr=_merged(args, "score_thr", 0.5, float),
            nms_iou_thr=_merged(args, "iou_thr", 0.45, float),
            fusion_epsilon=_merged(args, "epsilon", 0.5, float),
            shrink_radius=radius,
            stride=_merged(args, "stride", 8, int),
            recheck_enabled=not disable_recheck,
        )
        tracker_cfg = TrackerConfig(
            retention_frames=_merged(args, "k", 30, int),
            embedding_momentum=_merged(args, "alpha", 0.9, float),
            emb_match_thr=_merged(args, "emb_match_thr", 0.6, float),
            iou_match_thr=_merged(args, "iou_match_thr", 0.5, float),
            embedding_mode=_merged(args, "embedding_mode", "updated", str),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return pipeline, tracker_cfg


def _parse_range(text: str, what: str) -> tuple[float, float]:
    lo_txt, sep, hi_txt = text.partition(":")
    if not sep:
        raise UsageError(f"--{what} must look like LO:HI, got {text!r}")
    try:
        return float(lo_txt), float(hi_txt)
    except ValueError as exc:
        raise UsageError(f"--{what} must look like LO:HI, got {text!r}") from exc


def _build_scenario(args) -> ScenarioConfig:
    grid = _merged(args, "grid", "20x20", str)
    try:
        h_txt, _, w_txt = grid.lower().partition("x")
        height, width = int(h_txt), int(w_txt)
    except ValueError as exc:
        raise UsageError(f"--grid must look like 20x20, got {grid!r}") from exc
    speed_min, speed_max = _parse_range(
        _merged(args, "speed", "0.12:0.35", str), "speed"
    )
    size_min, size_max = _parse_range(_merged(args, "size", "2:3", str), "size")
    cfg = ScenarioConfig(
        num_targets=_merged(args, "targets", 6, int),
        height=height,
        width=width,
        frames=_merged(args, "frames", 200, int),
        speed_min=speed_min,
        speed_max=speed_max,
        size_min=size_min,
        size_max=size_max,
        dropout_prob=_merged(args, "dropout", 0.0, float),
        embedding_noise=_merged(args, "noise", 0.0, float),
        clutter_similarity=_merged(args, "clutter", 0.3, float),
        seed=_merged(args, "seed", 0, int),
        stride=_merged(args, "stride", 8, int),
        bar_h_scale=_merged(args, "hscale", 10.0, float),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _load_weights(args) -> RefineWeights:
    refine_mode = _merged(args, "refine", "bypass", str)
    weights_path = _merged(args, "weights", None, str)
    if refine_mode == "learned":
        if not weights_path:
            raise UsageError("--refine learned requires --weights")
        return RefineWeights.load(weights_path)
    if weights_path:
        raise UsageError("--weights requires --refine learned")
    return RefineWeights.bypass()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_track(args) -> int:
    pipeline, tracker_cfg = _build_configs(args)
    weights = _load_weights(args)
    public = None
    if args.public is not None:
        public = read_mot_boxes(args.public)

    tracker = Tracker(pipeline, tracker_cfg, weights)
    frames = 0
    failure = None
    started = time.perf_counter()
    with mot_results_writer(args.out) as write:
        try:
            for rows in tracker.run(iter_container(args.container), public):
                write(rows)
                frames += 1
        except (OSError, ValueError) as exc:  # the data errors main reports
            if frames == 0:
                raise
            failure = exc  # --out keeps frames 1..frames; exit 2 below
    elapsed = time.perf_counter() - started

    fps = frames / elapsed if elapsed > 0 else float("inf")
    print(f"frames={frames}")
    print(f"boxes={tracker.rows_emitted}")
    print(f"restored={tracker.restored_emitted}")
    print(f"fps={fps:.1f}")
    print(f"out={args.out}")
    if failure is not None:
        raise failure
    return EXIT_OK


def _cmd_eval(args) -> int:
    gt = read_mot_boxes(args.gt)
    pred = read_mot_boxes(args.results)
    if not gt:
        raise ContainerFormatError("ground-truth file holds no boxes")
    iou_thr = _merged(args, "iou_thr", 0.5, float)
    report = evaluate(gt, pred, iou_thr=iou_thr)
    print(report.pretty())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(EvalReport.CSV_HEADER + "\n")
            f.write(report.csv_row() + "\n")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = _build_scenario(args)
    gt: list[MotBox] = []
    dropped: list[tuple[int, int]] = []

    def frames():
        # One frame in memory at a time; its GT and drops are kept.
        for frame, frame_gt, frame_dropped in iter_generate(cfg):
            gt.extend(frame_gt)
            dropped.extend(frame_dropped)
            yield frame

    count = write_container(frames(), args.out)
    write_mot_results(gt, args.gt)
    if args.dropped:
        with open(args.dropped, "w", encoding="utf-8") as f:
            f.write("frame,id\n")
            for frame, gid in dropped:
                f.write(f"{frame},{gid}\n")
    print(f"frames={count}")
    print(f"gt_boxes={len(gt)}")
    print(f"dropped={len(dropped)}")
    print(f"out={args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.param not in ("epsilon", "r"):
        raise UsageError(f"--param must be epsilon or r, got {args.param!r}")
    try:
        values = [_parse_radius(v) if args.param == "r" else float(v)
                  for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values: {exc}") from exc
    if not values:
        raise UsageError("--values is empty")

    scenario = _build_scenario(args)
    pipeline, tracker_cfg = _build_configs(args)
    weights = _load_weights(args)
    frames, gt, dropped = generate(scenario)

    results = []
    for value in values:
        if args.param == "epsilon":
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"epsilon value {value} outside [0, 1]")
            run_pipeline = PipelineConfig(
                **{**pipeline.__dict__, "fusion_epsilon": value}
            )
        else:
            run_pipeline = PipelineConfig(
                **{**pipeline.__dict__, "shrink_radius": value}
            )
        rows, tracker = track_sequence(
            frames, run_pipeline, TrackerConfig(**tracker_cfg.__dict__), weights
        )
        report = evaluate(gt, rows, restored_count=tracker.restored_emitted)
        results.append((value, report))

    lines = ["value,mota,fp,fn,restored"]
    for value, report in results:
        value_txt = "inf" if math.isinf(value) else f"{value:g}"
        lines.append(
            f"{value_txt},{report.mota:.6f},{report.fp},{report.fn},"
            f"{report.restored_count}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    print(text, end="")

    if args.check:
        fps = [report.fp for _, report in results]
        if args.param == "epsilon":
            bad = [i for i in range(1, len(fps)) if fps[i] > fps[i - 1]]
            if bad:
                raise CheckFailure(
                    f"FP column is not non-increasing at positions {bad}: {fps}"
                )
        else:
            by_value = {v: report.fp for v, report in results}
            if math.inf in by_value and 3.0 in by_value:
                if by_value[3.0] > by_value[math.inf]:
                    raise CheckFailure(
                        f"FP at r=3 ({by_value[3.0]}) exceeds no-shrink "
                        f"({by_value[math.inf]})"
                    )
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    instances = _merged(args, "instances", 20, int)
    if instances < 1:
        raise UsageError(f"--instances must be >= 1, got {instances}")
    seed = _merged(args, "seed", 0, int)
    rng = np.random.default_rng(seed)
    step = 1e-4
    worst = 0.0
    for _ in range(instances):
        height = width = 16
        n_targets = int(rng.integers(1, 6))
        centers = [
            (float(rng.uniform(0, width)), float(rng.uniform(0, height)))
            for _ in range(n_targets)
        ]
        sizes = [
            (float(rng.uniform(1, 8)), float(rng.uniform(1, 8)))
            for _ in range(n_targets)
        ]
        target = gaussian_target(centers, sizes, height, width).grid
        m_p = rng.uniform(0.01, 0.99, size=(height, width))
        grad = loss_gradient(m_p, target, n_targets)
        for r in range(height):
            for c in range(width):
                hi = m_p.copy()
                lo = m_p.copy()
                hi[r, c] += step
                lo[r, c] -= step
                fd = (
                    logistic_mse_loss(hi, target, n_targets)
                    - logistic_mse_loss(lo, target, n_targets)
                ) / (2.0 * step)
                rel = abs(grad[r, c] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
    ok = worst < 1e-4
    print(f"instances={instances}")
    print(f"max_rel_err={worst:.3e}")
    print(f"status={'pass' if ok else 'fail'}")
    if not ok:
        raise CheckFailure(f"gradient check failed: max_rel_err={worst:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="omctrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a container file")
    p_track.add_argument("--container", required=True, help="input OMCF container")
    p_track.add_argument("--out", required=True, help="output MOT results file")
    p_track.add_argument("--public", default=None,
                         help="MOT det file replacing the detector output")
    _add_tracking_flags(p_track)
    p_track.add_argument("--config", default=None, help="key=value config file")
    p_track.add_argument("--seed", type=int, default=None, help="unused; accepted for config symmetry")
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", help="score a results file against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth MOT file")
    p_eval.add_argument("--results", required=True, help="tracker MOT results file")
    p_eval.add_argument("--csv", default=None, help="also write the report as CSV")
    p_eval.add_argument("--iou-thr", type=float, default=None, dest="iou_thr",
                        help="match gate (default 0.5)")
    p_eval.add_argument("--config", default=None, help="key=value config file")
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--out", required=True, help="output OMCF container")
    p_synth.add_argument("--gt", required=True, help="output ground-truth MOT file")
    p_synth.add_argument("--dropped", default=None,
                         help="output CSV listing dropped (frame, id) pairs")
    _add_scenario_flags(p_synth)
    p_synth.add_argument("--stride", type=int, default=None,
                         help="pixels per feature cell (default 8)")
    p_synth.add_argument("--hscale", type=float, default=None,
                         help="boundary-aware offset scale (default 10)")
    p_synth.add_argument("--seed", type=int, default=None, help="scenario seed (default 0)")
    p_synth.add_argument("--config", default=None, help="key=value config file")
    p_synth.set_defaults(func=_cmd_synth)

    p_sweep = sub.add_parser("sweep", help="run the tracker across parameter values")
    p_sweep.add_argument("--param", required=True, help="epsilon or r")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values; 'inf' allowed for r")
    p_sweep.add_argument("--out", default=None, help="output CSV path")
    p_sweep.add_argument("--check", action="store_true",
                         help="fail (exit 3) if the expected FP direction is violated")
    _add_scenario_flags(p_sweep)
    _add_tracking_flags(p_sweep)
    p_sweep.add_argument("--seed", type=int, default=None, help="scenario seed (default 0)")
    p_sweep.add_argument("--config", default=None, help="key=value config file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_grad = sub.add_parser("gradcheck",
                            help="compare the loss gradient against finite differences")
    p_grad.add_argument("--seed", type=int, default=None, help="instance seed (default 0)")
    p_grad.add_argument("--instances", type=int, default=None,
                        help="random instances to test (default 20)")
    p_grad.add_argument("--config", default=None, help="key=value config file")
    p_grad.set_defaults(func=_cmd_gradcheck)

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("OMC_LOG", "").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        level_name, logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args._config_values = (
            _read_config_file(args.config) if getattr(args, "config", None) else {}
        )
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ContainerFormatError, MotParseError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
