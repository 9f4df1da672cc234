"""Command-line entry point: track, eval, synth, sweep and gradcheck.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 failed
gradcheck or sweep assertion. A container frame with a bad value that the
tracker reads (non-finite, prob outside [0, 1], a box size that decodes
to inf or 0) is not a data error: track logs a warning, emits no rows for
it and goes on. Values are checked where they are read, so a bad value
nothing reads (in feat without --weights, or in an embed cell neither
the search nor the readout reads) changes nothing. track reads each
container tensor from the file when it first uses it: prob and boxes
whole when it checks them, embed block by block in the search and cell by
cell in the readout, and feat only under learned refinement, which runs
exactly when --weights names a weight file (refinement is otherwise a
clamp). track writes its rows frame by frame: a data error partway still
replaces --out with the rows of every frame that finished (the printed
frames= count) before exiting 2; so do bytes after the last frame the
container's header counts. --public rows of a frame the container does not
hold are such an error, raised after the last frame, so --out holds every
frame's rows. Every output file (--out, --gt, --dropped, --csv) is
written beside its path and replaces it only once complete, so a failed
write leaves any earlier file as it was; synth's outputs replace theirs
only once all are written. An output path that names the same file as
another path flag of its command (compared after os.path.realpath) is a
usage error naming both flags, raised before anything is written. eval
refuses an empty ground truth as a data error: its metrics are
undefined. A MOT
text row (--public, --gt, --results) whose frame or id is not an integer
(3.0 is), whose frame is below 1, or that is otherwise malformed is a data
error naming its line. eval's --iou-thr must lie in (0, 1]; any other
value, NaN included, is a usage error. So is a scenario value that is
not finite (synth's and sweep's --noise nan, --hscale inf, --speed
0.1:inf), a negative --seed (synth, sweep, gradcheck), a tracking
--hscale that is not finite and positive, and a --radius (or a swept r)
of -inf or nan: only inf, or none, turns the shrink window off. A
--weights file is checked when it loads, before --out is opened: a bias
that does not hold one value per output channel of its kernel, or a
non-finite weight, is a data error naming the tensor. The OMC_LOG
environment variable (debug|info) raises log verbosity; default output
is just the command's own summary.

A --config file of key=value lines may set any optional flag of the
command except --config itself. A key is the flag's long name with dashes
turned into underscores (score_thr for --score-thr); a switch such as
disable_recheck takes true or false. A key takes effect as its flag would,
below explicit flags and above the defaults. Any other key, or a value the
flag refuses, is a usage error (exit 1) naming the file, the line and the
key; so is a key given twice, naming both lines. Tracking and scenario
defaults are those of the config dataclass fields (PipelineConfig,
ScenarioConfig) that the flag tables below name, and each field is set
by one flag only (--radius inf, or none, turns the shrink window off).
A flag of those tables that neither the command line nor --config sets
is absent from the parsed arguments, and its field keeps its default.
sweep refuses, as a usage error, the flag or key that sets what the
swept parameter sets on every run, whatever its value: --epsilon under
--param epsilon, --radius under --param r.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .association import PipelineConfig, Tracker, track_sequence
from .frame_io import (
    MotBox,
    _replacing,
    _staged,
    iter_container,
    mot_results_writer,
    read_mot_boxes,
    write_container,
    write_mot_results,
)
from .metrics import DEFAULT_GATE_IOU, EvalReport, _check_gate, evaluate
from .recheck import RefineWeights
from .supervision import gaussian_target, logistic_mse_loss, loss_gradient
from .synth import ScenarioConfig, generate, iter_generate

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


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


def _parse_gate(text: str) -> float:
    """An eval match gate: a number in (0, 1]."""
    try:
        return _check_gate(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_pair(sep: str, kind: type, form: str) -> Callable[[str], tuple]:
    """A parser of text that looks like form, two kind values around sep."""
    def parse(text: str) -> tuple:
        first, found, second = text.lower().partition(sep)
        try:
            if found:
                return kind(first), kind(second)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must look like {form}, got {text!r}")
    return parse


def _file_value(action: argparse.Action, text: str):
    """text taken as the flag of action takes it; a switch takes a boolean."""
    return _parse_bool(text) if action.nargs == 0 else (action.type or str)(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this artifact reserves 2 for data
    # errors, so route parse failures through UsageError instead.
    def error(self, message):
        raise UsageError(message)

    def apply_config_file(self, path) -> None:
        """Make each key=value line of a --config file the default of its flag.

        An explicit flag still wins, as it wins over any default.
        """
        flags = self._flags()
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        values, first_line = {}, {}
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, text = (part.strip() for part in line.partition("="))
            where = f"{path}:{lineno}"
            if not sep:
                raise UsageError(f"{where}: expected key=value, got {line!r}")
            if key not in flags:
                raise UsageError(f"{where}: unknown key {key!r}; "
                                 f"accepted keys: {', '.join(sorted(flags))}")
            if key in first_line:
                raise UsageError(f"{where}: key {key!r} already set on line "
                                 f"{first_line[key]}")
            first_line[key] = lineno
            try:
                values[key] = _file_value(flags[key], text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{where}: {key}: {exc}") from exc
        self.set_defaults(**values)

    def _flags(self) -> dict[str, argparse.Action]:
        """The optional flags a --config key may set, by dest."""
        return {a.dest: a for a in self._actions if a.option_strings
                and not a.required and a.dest not in ("help", "config")}


def _add_flag(p: _Parser, flag: str, default, help: str, suppress: bool = False,
              **kwargs) -> None:
    """Add --flag whose help ends in its default.

    With suppress, the flag is absent from the parsed namespace unless the
    command line or a --config key sets it.
    """
    shown = f"{default:g}" if isinstance(default, float) else default
    p.add_argument(f"--{flag}", default=argparse.SUPPRESS if suppress else default,
                   help=f"{help} (default {shown})", **kwargs)


def _field_default(owner, name: str):
    return next(f.default for f in dataclasses.fields(owner) if f.name == name)


class _Flag(NamedTuple):
    """A flag that sets one field of a config dataclass."""

    flag: str
    owner: type
    field: str
    parse: Callable[[str], object]
    help: str


_TRACKING_FLAGS = (
    _Flag("epsilon", PipelineConfig, "fusion_epsilon", float, "fusion vote threshold"),
    _Flag("radius", PipelineConfig, "shrink_radius", _parse_radius,
          "response shrink radius in cells, 'inf' disables"),
    _Flag("hscale", PipelineConfig, "h_scale", float, "boundary-aware offset scale"),
    _Flag("k", PipelineConfig, "retention_frames", int,
          "frames a tracklet survives without a match"),
    _Flag("alpha", PipelineConfig, "embedding_momentum", float,
          "weight of a tracklet's embedding against each match's; "
          "1 freezes it, 0 replaces it"),
    _Flag("stride", PipelineConfig, "stride", int, "pixels per feature cell"),
    _Flag("score-thr", PipelineConfig, "score_thr", float, "detection keep threshold"),
    _Flag("iou-thr", PipelineConfig, "nms_iou_thr", float, "NMS suppression threshold"),
    _Flag("emb-match-thr", PipelineConfig, "emb_match_thr", float,
          "min cosine similarity for association"),
    _Flag("iou-match-thr", PipelineConfig, "iou_match_thr", float,
          "min IOU for fallback association"),
)

_SCENARIO_FLAGS = (
    _Flag("targets", ScenarioConfig, "num_targets", int, "number of targets"),
    _Flag("frames", ScenarioConfig, "frames", int, "sequence length"),
    _Flag("dropout", ScenarioConfig, "dropout_prob", float,
          "per-frame detection dropout probability"),
    _Flag("clutter", ScenarioConfig, "clutter_similarity", float,
          "max background cosine vs any identity"),
    _Flag("noise", ScenarioConfig, "embedding_noise", float,
          "gaussian noise sigma on target embeddings"),
    _Flag("seed", ScenarioConfig, "seed", int, "scenario seed"),
)

# The world's grid geometry. synth adds these flags; sweep reads the same
# names from its tracking flags, so one value sets both world and tracker.
_GEOMETRY_FLAGS = (
    _Flag("stride", ScenarioConfig, "stride", int, "pixels per feature cell"),
    _Flag("hscale", ScenarioConfig, "bar_h_scale", float, "boundary-aware offset scale"),
)


def _add_flags(p: _Parser, flags: tuple[_Flag, ...]) -> None:
    for f in flags:
        _add_flag(p, f.flag, _field_default(f.owner, f.field), f.help, suppress=True,
                  type=f.parse)


def _fill(owner, args, flags: tuple[_Flag, ...], **fixed):
    """An owner whose fields come from the flags set, then fixed.

    A field whose flag is unset keeps its dataclass default.
    """
    dests = {f.field: f.flag.replace("-", "_") for f in flags if f.owner is owner}
    values = {field: getattr(args, dest) for field, dest in dests.items() if dest in args}
    try:
        return owner(**{**values, **fixed})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_tracking_flags(p: _Parser) -> None:
    _add_flags(p, _TRACKING_FLAGS)
    p.add_argument("--weights", help="OMCF file of learned refinement weights; "
                   "without it refinement clamps the aggregate")
    p.add_argument("--disable-recheck", action="store_true",
                   help="turn tracklet propagation off (detector only)")


def _add_scenario_flags(p: _Parser) -> None:
    _add_flags(p, _SCENARIO_FLAGS)
    # argparse parses a string default with the flag's type.
    d = ScenarioConfig()
    in_range = _parse_pair(":", float, "LO:HI")
    _add_flag(p, "grid", f"{d.height}x{d.width}", "feature grid as HxW",
              type=_parse_pair("x", int, "20x20"))
    _add_flag(p, "speed", f"{d.speed_min:g}:{d.speed_max:g}",
              "target speed range in cells/frame as LO:HI", type=in_range)
    _add_flag(p, "size", f"{d.size_min:g}:{d.size_max:g}",
              "target box size range in cells as LO:HI", type=in_range)


def _build_pipeline(args) -> PipelineConfig:
    return _fill(PipelineConfig, args, _TRACKING_FLAGS, recheck_enabled=not args.disable_recheck)


def _build_scenario(args) -> ScenarioConfig:
    return _fill(
        ScenarioConfig, args, _SCENARIO_FLAGS + _GEOMETRY_FLAGS,
        height=args.grid[0], width=args.grid[1],
        speed_min=args.speed[0], speed_max=args.speed[1],
        size_min=args.size[0], size_max=args.size[1],
    )


def _load_weights(args) -> RefineWeights | None:
    """The --weights file's weights, or None (no learned head) without it."""
    return RefineWeights.load(args.weights) if args.weights else None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_track(args) -> int:
    pipeline = _build_pipeline(args)
    weights = _load_weights(args)
    public = None if args.public is None else read_mot_boxes(args.public)

    tracker = Tracker(pipeline, weights)
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
    report = evaluate(gt, pred, iou_thr=args.iou_thr)
    print(report.pretty())
    if args.csv:
        with _replacing(args.csv, "x", encoding="utf-8") as f:
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

    # The outputs replace their paths only once the last of them is written.
    outputs = [args.out, args.gt] + ([args.dropped] if args.dropped else [])
    with _staged(*outputs) as (out, gt_path, *dropped_path):
        count = write_container(frames(), out)
        write_mot_results(gt, gt_path)
        if args.dropped:
            with _replacing(dropped_path[0], "x", encoding="utf-8") as f:
                f.write("frame,id\n")
                for frame, gid in dropped:
                    f.write(f"{frame},{gid}\n")
    print(f"frames={count}")
    print(f"gt_boxes={len(gt)}")
    print(f"dropped={len(dropped)}")
    print(f"out={args.out}")
    return EXIT_OK


# Each sweep --param and the tracking flag whose field it sets on every run.
_SWEEP_PARAMS = {param: next(f for f in _TRACKING_FLAGS if f.flag == flag)
                 for param, flag in (("epsilon", "epsilon"), ("r", "radius"))}


def _cmd_sweep(args) -> int:
    swept = _SWEEP_PARAMS[args.param]
    if swept.flag.replace("-", "_") in args:
        raise UsageError(f"--{swept.flag} conflicts with --param {args.param}, "
                         f"which sets {swept.field} on every run")
    try:
        values = [swept.parse(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values: {exc}") from exc
    if not values:
        raise UsageError("--values is empty")

    scenario = _build_scenario(args)
    pipeline = _build_pipeline(args)
    try:
        pipelines = [dataclasses.replace(pipeline, **{swept.field: v}) for v in values]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    weights = _load_weights(args)
    frames, gt, dropped = generate(scenario)

    results = []
    for value, run_pipeline in zip(values, pipelines):
        rows, tracker = track_sequence(frames, run_pipeline, weights)
        report = evaluate(gt, rows, restored_count=tracker.restored_emitted)
        results.append((value, report))

    lines = ["value,mota,fp,fn,restored"]
    for value, report in results:
        lines.append(f"{value:g},{report.mota:.6f},{report.fp},{report.fn},"
                     f"{report.restored_count}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _replacing(args.out, "x", encoding="utf-8") as f:
            f.write(text)
    print(text, end="")

    if args.check:
        if args.param == "epsilon":
            restored = [report.restored_count for _, report in sorted(results, key=lambda r: r[0])]
            if (any(b > a for a, b in zip(restored, restored[1:]))
                    or (len(set(values)) > 1 and restored[-1] >= restored[0])):
                raise CheckFailure(f"restored count by ascending epsilon is not "
                                   f"non-increasing and falling: {restored}")
        else:
            by_value = {v: report.fp for v, report in results}
            r = _field_default(PipelineConfig, "shrink_radius")
            if math.inf in by_value and r in by_value:
                if by_value[r] > by_value[math.inf]:
                    raise CheckFailure(
                        f"FP at r={r} ({by_value[r]}) exceeds no-shrink "
                        f"({by_value[math.inf]})"
                    )
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise UsageError(f"--instances must be >= 1, got {args.instances}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    step = 1e-4
    worst = 0.0
    for _ in range(args.instances):
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
        target = gaussian_target(centers, sizes, height, width)
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
    print(f"instances={args.instances}")
    print(f"max_rel_err={worst:.3e}")
    print(f"status={'pass' if ok else 'fail'}")
    if not ok:
        raise CheckFailure(f"gradient check failed: max_rel_err={worst:.3e}")
    return EXIT_OK


# Each command's output path flags and its other path flags, by dest.
_PATH_FLAGS = {"track": (("out",), ("container", "public", "weights", "config")),
               "eval": (("csv",), ("gt", "results", "config")),
               "synth": (("out", "gt", "dropped"), ("config",)),
               "sweep": (("out",), ("weights", "config"))}


def _check_paths(args) -> None:
    """UsageError when an output path names the file of another path flag.

    Paths are compared after os.path.realpath, so a relative path, a
    symlink or a `..` detour to the same file clashes too.
    """
    outputs, others = _PATH_FLAGS.get(args.command, ((), ()))
    given = [(d, os.path.realpath(getattr(args, d))) for d in outputs + others if getattr(args, d)]
    for k, (first, path) in enumerate(given):
        for second, other in given[k + 1:]:
            if first in outputs and path == other:
                raise UsageError(f"--{first} and --{second} name the same file {path}")


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the parser of each command, by name."""
    parser = _Parser(prog="omctrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a container file")
    p_track.add_argument("--container", required=True, help="input OMCF container")
    p_track.add_argument("--out", required=True, help="output MOT results file")
    p_track.add_argument("--public", help="MOT det file replacing the detector output")
    _add_tracking_flags(p_track)
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", help="score a results file against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth MOT file")
    p_eval.add_argument("--results", required=True, help="tracker MOT results file")
    p_eval.add_argument("--csv", help="also write the report as CSV")
    _add_flag(p_eval, "iou-thr", DEFAULT_GATE_IOU, "match gate, in (0, 1]",
              type=_parse_gate)
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--out", required=True, help="output OMCF container")
    p_synth.add_argument("--gt", required=True, help="output ground-truth MOT file")
    p_synth.add_argument("--dropped", help="output CSV listing dropped (frame, id) pairs")
    _add_scenario_flags(p_synth)
    _add_flags(p_synth, _GEOMETRY_FLAGS)
    p_synth.set_defaults(func=_cmd_synth)

    p_sweep = sub.add_parser("sweep", help="run the tracker across parameter values")
    p_sweep.add_argument("--param", required=True, choices=tuple(_SWEEP_PARAMS),
                         help="epsilon or r")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values; 'inf' allowed for r")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.add_argument("--check", action="store_true",
                         help="fail (exit 3) if restored rises with epsilon or is not lower "
                              "at its largest; if FP at the default r exceeds FP at r=inf")
    _add_scenario_flags(p_sweep)
    _add_tracking_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_grad = sub.add_parser("gradcheck",
                            help="compare the loss gradient against finite differences")
    _add_flag(p_grad, "seed", 0, "instance seed", type=int)
    _add_flag(p_grad, "instances", 20, "random instances to test", type=int)
    p_grad.set_defaults(func=_cmd_gradcheck)

    for p in sub.choices.values():
        p.add_argument("--config", help="key=value config file")
    return parser, sub.choices


def _setup_logging() -> None:
    level_name = os.environ.get("OMC_LOG", "").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        level_name, logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# numpy's bundled OpenBLAS library, its thread-count calls, and the
# environment variables it reads its thread count from.
_OPENBLAS_LIBRARY = "libscipy_openblas*.so*"
_OPENBLAS_GET = "scipy_openblas_get_num_threads64_"
_OPENBLAS_SET = "scipy_openblas_set_num_threads64_"
_OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, then restore the previous count.

    Every command runs under it. The embedding search already splits a
    paper-scale grid between two threads; with OpenBLAS at one thread per
    CPU, each of them asks for more, and on a 2-CPU machine the search ran
    at half the speed. synth draws each frame's random numbers on a second
    thread while its BLAS products build the frame before, and a second
    BLAS thread competes with that draw (8 frames at 152x272x512: 6.0-6.7 s
    and 658 MiB at two threads, 3.9-4.4 s and 615 MiB at one, the same
    bytes; 5 alternating runs on a 2-CPU Xeon). eval and gradcheck
    timed the same either way. A thread count set in any variable of
    _OPENBLAS_THREAD_VARS is left as set, and so is a numpy whose BLAS
    library cannot be loaded or does not export both thread-count calls.
    """
    explicit = any(name in os.environ for name in _OPENBLAS_THREAD_VARS)
    calls = None if explicit else _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_threads = calls
    previous = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _openblas_thread_calls():
    """(get, set) thread-count functions of numpy's loaded OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob(_OPENBLAS_LIBRARY)):
        try:
            lib = ctypes.CDLL(str(path))  # numpy has loaded it: the same handle
        except OSError:
            continue
        if hasattr(lib, _OPENBLAS_GET) and hasattr(lib, _OPENBLAS_SET):
            get, set_threads = getattr(lib, _OPENBLAS_GET), getattr(lib, _OPENBLAS_SET)
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads
    return None


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            commands[args.command].apply_config_file(args.config)
            args = parser.parse_args(argv)
        _check_paths(args)
        with _one_blas_thread():
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (OSError, ValueError) as exc:  # ContainerFormatError, MotParseError too
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
