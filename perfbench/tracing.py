"""Spans and counters around the public functions `Tracker.step` calls.

Only the traced passes use this. `instrumented` rebinds, for the duration of
a `with` block, the names that `omctrack.association` resolves at call time
(and `Tracker.step` itself) to wrappers that record a span each, plus the
scalar `iou` in the detection, fusion and association namespaces to
wrappers that only count calls. The originals are restored on exit.

A span is the tuple (name, start_ns, end_ns, parent_index, frame), kept in
memory until the run summarises it; `frame` is whatever the caller set on
`Tracer.frame` before the step. Span names are `<module>.<stage>`, and the
module part is the layer the span belongs to.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from statistics import median

from omctrack import association, detection, fusion

STEP = "association.step"
READ = "frame_io.read"

# Span name -> name bound in omctrack.association that Tracker.step calls.
STEP_CHILDREN = {
    "numerics.l2_normalize_grid": "l2_normalize_grid",
    "detection.decode_boxes": "decode_boxes",
    "detection.greedy_nms": "greedy_nms",  # the base NMS only
    "recheck.cross_correlate": "cross_correlate",
    "recheck.aggregate": "aggregate",
    "recheck.refine": "refine",
    "recheck.transductive": "transductive_detections",
    "fusion.fuse": "fuse",
    "association.extract_embeddings": "extract_embeddings",
    "association.associate": "associate",
    "association.update_tracklets": "update_tracklets",
}


def _count_cells(counts, args, out):
    counts["detection.cells_decoded"] += len(out)


def _count_basic(counts, args, out):
    counts["detection.basic_dets"] += len(out)


def _count_propagated(counts, args, out):
    counts["recheck.tracklets_propagated"] += len(args[0])


def _count_trans(counts, args, out):
    counts["recheck.trans_dets"] += len(out)


def _count_restored(counts, args, out):
    counts["fusion.restored"] += sum(1 for box in out if box.restored)


def _count_fused(counts, args, out):
    counts["fusion.fused"] += len(args[0])


def _count_matches(counts, args, out):
    counts["association.matches"] += len(out[0])


def _count_births(counts, args, out):
    survivors, born, _ = out
    counts["association.births"] += len(born)
    live = len(survivors) + len(born)
    counts["association.live_tracklets_max"] = max(
        counts["association.live_tracklets_max"], live
    )


def _count_rows(counts, args, out):
    counts["association.rows"] += len(out)


COUNTERS = {
    "detection.decode_boxes": _count_cells,
    "detection.greedy_nms": _count_basic,
    "recheck.cross_correlate": _count_propagated,
    "recheck.transductive": _count_trans,
    "fusion.fuse": _count_restored,
    "association.extract_embeddings": _count_fused,
    "association.associate": _count_matches,
    "association.update_tracklets": _count_births,
    STEP: _count_rows,
}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.frame = None
        self._open: list[int] = []

    def add_span(self, name: str, start: int, end: int) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, start, end, parent, self.frame))

    def timed(self, name: str, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans[index] = (name, start, end, parent, self.frame)
            if count is not None:
                count(self.counts, args, out)
            return out

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers; restore the original bindings on exit."""
    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    try:
        for span, attr in STEP_CHILDREN.items():
            patch(association, attr, tracer.timed(span, getattr(association, attr)))
        patch(association.Tracker, "step", tracer.timed(STEP, association.Tracker.step))
        for module in (detection, fusion, association):
            patch(module, "iou", tracer.counted("detection.iou_calls", module.iou))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def nesting_errors(spans: list[tuple]) -> list[str]:
    """Spans that do not sit inside their parent's interval and frame."""
    errors = []
    for name, start, end, parent, frame in spans:
        if parent < 0:
            if name != STEP and name != READ:
                errors.append(f"{name} span outside any Tracker.step span")
            continue
        p_name, p_start, p_end, _, p_frame = spans[parent]
        if p_name != STEP or p_frame != frame or start < p_start or end > p_end:
            errors.append(f"{name} span not nested in its step span ({frame})")
    return errors


def self_times(spans: list[tuple]) -> list[tuple[str, int, object]]:
    """(name, self_ns, frame) per span: duration minus its children's."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [(name, end - start - child_ns[i], frame)
            for i, (name, start, end, _, frame) in enumerate(spans)]


def per_frame_medians(items) -> dict[str, float]:
    """Median over frames, in ms, of each name's summed time in a frame.

    `items` yields (name, ns, frame); frames where a name never ran do not
    count towards its median.
    """
    per_frame: dict[str, dict] = {}
    for name, ns, frame in items:
        frames = per_frame.setdefault(name, {})
        frames[frame] = frames.get(frame, 0) + ns
    return {name: median(frames.values()) / 1e6
            for name, frames in per_frame.items()}
