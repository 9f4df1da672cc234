"""Tracklet lifecycle, greedy matching and the per-frame pipeline step.

Association runs in two greedy stages: cosine similarity between tracklet
embeddings and candidate-box embeddings first, IOU against each tracklet's
last box as a fallback for the leftovers. Matched tracklets refresh their
state, unmatched ones age out after a retention window, unmatched boxes
spawn new identities from a monotone id counter.

The pipeline step stitches the whole frame together: decode boxes, build
basic detections (or ingest public ones), propagate active tracklets with
the global embedding search, fuse the transductive detections back in,
associate, and emit result rows in pixel units. There is deliberately no
motion model: propagation by embedding search is the mechanism under test,
and a motion prior would mask its contribution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .detection import (
    BarParams,
    Box,
    Boxes,
    DEFAULT_IOU_THR,
    DEFAULT_SCORE_THR,
    decode_boxes,
    greedy_nms,
    iou,
)
from .frame_io import FrameContainer, MotBox
from .fusion import FusionConfig, fuse
# l2_normalize_grid is unused here but stays bound: perfbench's tracer wraps
# every stage name this module binds, that one included.
from .numerics import as_grid, l2_normalize, l2_normalize_grid, normalize_cells
from .recheck import (
    DEFAULT_SHRINK_RADIUS,
    EmbeddingSet,
    RefineWeights,
    aggregate,
    cross_correlate,
    refine,
    transductive_detections,
)

__all__ = [
    "Tracklet",
    "TrackerConfig",
    "PipelineConfig",
    "Tracker",
    "extract_embeddings",
    "associate",
    "update_tracklets",
    "track_sequence",
]

log = logging.getLogger(__name__)

# IOU above which a public detection counts as "near" an existing track and
# must not start a new trajectory.
PUBLIC_NEAR_IOU = 0.5


@dataclass
class Tracklet:
    """One persistent identity: smoothed embedding, last box, lifecycle."""

    id: int
    embedding: np.ndarray
    last_box: Box
    miss_count: int = 0
    state: str = "active"                              # active | removed


@dataclass
class TrackerConfig:
    """Association and lifecycle settings.

    retention_frames: consecutive misses before a tracklet is removed.
    embedding_momentum: weight of the old embedding in "updated" mode.
    embedding_mode: first (frozen at birth) | last (replaced) | updated
    (momentum-smoothed and renormalized).
    """

    retention_frames: int = 30
    embedding_momentum: float = 0.9
    emb_match_thr: float = 0.6
    iou_match_thr: float = 0.5
    embedding_mode: str = "updated"

    def __post_init__(self):
        if self.retention_frames < 1:
            raise ValueError("retention_frames must be >= 1")
        if not 0.0 <= self.embedding_momentum <= 1.0:
            raise ValueError("embedding_momentum must lie in [0, 1]")
        for name in ("emb_match_thr", "iou_match_thr"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.embedding_mode not in ("first", "last", "updated"):
            raise ValueError(f"unknown embedding_mode {self.embedding_mode!r}")


@dataclass
class PipelineConfig:
    """Per-frame pipeline settings shared by the CLI and the test harness."""

    decode_mode: str = "bar"                           # bar | sigmoid
    h_scale: float = 10.0
    score_thr: float = DEFAULT_SCORE_THR
    nms_iou_thr: float = DEFAULT_IOU_THR
    fusion_epsilon: float = 0.5
    shrink_radius: float = DEFAULT_SHRINK_RADIUS       # math.inf = no shrink
    stride: int = 8
    recheck_enabled: bool = True

    def __post_init__(self):
        if self.decode_mode not in ("bar", "sigmoid"):
            raise ValueError(f"unknown decode mode {self.decode_mode!r}")
        if not self.h_scale > 0:
            raise ValueError("h_scale must be positive")
        for name in ("score_thr", "nms_iou_thr", "fusion_epsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not (math.isinf(self.shrink_radius) or self.shrink_radius >= 0):
            raise ValueError("shrink_radius must be >= 0 or inf")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


def extract_embeddings(boxes: Boxes, embed: np.ndarray) -> EmbeddingSet:
    """Read one normalized embedding per box at its center cell.

    Centers outside the grid clamp to the nearest boundary cell. Only the
    cells read are normalized and checked: a non-finite value in one raises
    ValueError.
    """
    grid = as_grid(embed, name="embed")
    h, w = grid.shape[:2]
    cols = np.clip(np.floor(boxes.cx), 0, w - 1).astype(np.intp)
    rows = np.clip(np.floor(boxes.cy), 0, h - 1).astype(np.intp)
    cells = normalize_cells(grid[rows, cols])
    vectors = np.zeros(cells.shape, dtype=np.float32)
    for k, cell in enumerate(cells):
        vectors[k] = l2_normalize(cell)
    return EmbeddingSet(vectors, [-1] * len(boxes))


def _greedy_matrix_match(
    scores: np.ndarray,
    thr: float,
    row_open: list[int],
    col_open: list[int],
) -> list[tuple[int, int]]:
    """Repeatedly take the globally largest open entry at or above thr.

    Ties resolve to the first row-major occurrence, which keeps results
    identical run to run.
    """
    pairs: list[tuple[int, int]] = []
    if not row_open or not col_open:
        return pairs
    work = scores[np.ix_(row_open, col_open)].astype(np.float64).copy()
    rmap = list(row_open)
    cmap = list(col_open)
    while work.size:
        flat = int(np.argmax(work))
        i, j = divmod(flat, work.shape[1])
        if work[i, j] < thr:
            break
        pairs.append((rmap[i], cmap[j]))
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    return pairs


def associate(
    tracklets: list[Tracklet],
    boxes: Boxes,
    e_set: EmbeddingSet,
    cfg: TrackerConfig,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Two-stage greedy matching of tracklets to candidate boxes.

    Returns (matches, unmatched_tracklet_ids, unmatched_box_indices) where
    matches pairs tracklet ids with box indices. Every tracklet and box is
    matched at most once.
    """
    if len(boxes) != len(e_set):
        raise ValueError(
            f"box count {len(boxes)} != embedding count {len(e_set)}"
        )
    matches: list[tuple[int, int]] = []
    open_rows = list(range(len(tracklets)))
    open_cols = list(range(len(boxes)))
    if tracklets and len(boxes):
        trk_emb = np.stack([t.embedding for t in tracklets]).astype(np.float64)
        stages = (
            (trk_emb @ e_set.vectors.astype(np.float64).T, cfg.emb_match_thr),
            (iou(Boxes.of([t.last_box for t in tracklets]), boxes), cfg.iou_match_thr),
        )
        for scores, thr in stages:
            for i, j in _greedy_matrix_match(scores, thr, open_rows, open_cols):
                matches.append((tracklets[i].id, j))
                open_rows.remove(i)
                open_cols.remove(j)
    unmatched_tracklets = [tracklets[i].id for i in open_rows]
    return matches, unmatched_tracklets, open_cols


def update_tracklets(
    tracklets: list[Tracklet],
    matches: list[tuple[int, int]],
    boxes: Boxes,
    e_set: EmbeddingSet,
    cfg: TrackerConfig,
    next_id: int,
    spawnable: set[int] | None = None,
) -> tuple[list[Tracklet], list[Tracklet], int]:
    """Apply one frame's assignment to the tracklet population.

    Matched tracklets reset their miss counter, take the new box and update
    their embedding per cfg.embedding_mode. Unmatched tracklets age and are
    removed once the miss count reaches the retention window. Unmatched
    boxes (restricted to spawnable indices when given) found new tracklets
    with fresh ids; returns (surviving tracklets, new tracklets, next_id).
    """
    matched = dict(matches)
    for t in tracklets:
        if t.id in matched:
            j = matched[t.id]
            box = boxes[j]
            new_emb = e_set.vectors[j]
            t.miss_count = 0
            t.last_box = box
            if cfg.embedding_mode == "last":
                t.embedding = new_emb.copy()
            elif cfg.embedding_mode == "updated":
                a = cfg.embedding_momentum
                blended = a * t.embedding.astype(np.float64) + (1.0 - a) * new_emb.astype(np.float64)
                t.embedding = l2_normalize(blended)
            # mode "first": embedding stays frozen at its birth value
        else:
            t.miss_count += 1
            if t.miss_count >= cfg.retention_frames:
                t.state = "removed"
    survivors = [t for t in tracklets if t.state == "active"]

    matched_boxes = set(matched.values())
    born = [j for j in range(len(boxes))
            if j not in matched_boxes and (spawnable is None or j in spawnable)]
    new_tracklets = [
        Tracklet(id=next_id + k, embedding=e_set.vectors[j].copy(), last_box=boxes[j])
        for k, j in enumerate(born)
    ]
    return survivors, new_tracklets, next_id + len(born)


def _public_to_cells(dets: list[MotBox], stride: int) -> Boxes:
    x, y, w, h, conf = np.array(
        [(d.x, d.y, d.w, d.h, d.conf) for d in dets], dtype=np.float64
    ).reshape(-1, 5).T
    return Boxes(cx=(x + w / 2.0) / stride, cy=(y + h / 2.0) / stride,
                 w=w / stride, h=h / stride, score=np.clip(conf, 0.0, 1.0))


def _to_mot_row(frame_index: int, track_id: int, box: Box, stride: int) -> MotBox:
    return MotBox(
        frame=frame_index,
        id=track_id,
        x=(box.cx - box.w / 2.0) * stride,
        y=(box.cy - box.h / 2.0) * stride,
        w=box.w * stride,
        h=box.h * stride,
        conf=min(max(box.score, 0.0), 1.0),
    )


class Tracker:
    """Stateful per-sequence tracker; one instance per video sequence.

    Holds the tracklet population, the monotone id counter and running
    counts. step() consumes one FrameContainer and returns the MOT rows
    emitted for that frame. Distinct sequences need distinct instances.
    """

    def __init__(
        self,
        pipeline: PipelineConfig | None = None,
        tracker_cfg: TrackerConfig | None = None,
        weights: RefineWeights | None = None,
    ):
        self.pipeline = pipeline or PipelineConfig()
        self.cfg = tracker_cfg or TrackerConfig()
        self.weights = weights or RefineWeights.bypass()
        self.tracklets: list[Tracklet] = []
        self.next_id = 1
        self.frames_seen = 0
        self.rows_emitted = 0
        self.restored_emitted = 0

    def step(
        self,
        frame: FrameContainer,
        public_dets: list[MotBox] | None = None,
    ) -> list[MotBox]:
        """Run the full pipeline on one frame and emit its result rows.

        public_dets, when given, must hold this frame's rows only; they
        replace the detector's boxes. This is where a frame's values are
        checked: a frame that fails FrameContainer.validate (a non-finite
        value, prob outside [0, 1], a malformed tensor) logs a warning,
        ages every tracklet by one miss and emits no rows.
        """
        p = self.pipeline
        self.frames_seen += 1
        try:
            frame.validate()
        except ValueError as exc:
            log.warning("frame %s failed validation, counting as all-miss: %s",
                        frame.frame_index, exc)
            self.tracklets, _, _ = update_tracklets(
                self.tracklets, [], Boxes.of([]), EmbeddingSet.empty(0),
                self.cfg, self.next_id,
            )
            return []

        decoded = decode_boxes(
            frame.prob, frame.boxes, p.decode_mode, BarParams(p.h_scale)
        )

        public_mode = public_dets is not None
        if public_mode:
            d_base = _public_to_cells(public_dets, p.stride)
        else:
            d_base = greedy_nms(decoded, p.score_thr, p.nms_iou_thr)

        if p.recheck_enabled and self.tracklets:
            e_prev = EmbeddingSet(
                np.stack([t.embedding for t in self.tracklets]),
                [t.id for t in self.tracklets],
            )
            stack = cross_correlate(e_prev, frame.embed)
            m_s = aggregate(stack, p.shrink_radius)
            m_p = refine(m_s, frame.feat, self.weights)
            d_trans = transductive_detections(
                m_p, decoded, p.score_thr, p.nms_iou_thr
            )
            d_final = fuse(d_trans, d_base, FusionConfig(p.fusion_epsilon))
        else:
            d_final = d_base

        e_set = extract_embeddings(d_final, frame.embed)
        matches, _, unmatched_boxes = associate(
            self.tracklets, d_final, e_set, self.cfg
        )

        # Birth gate: a new identity must not already be explained by an
        # active tracklet. Without this, a box whose embedding duplicates a
        # live identity (overlap readout, propagation leftovers) founds a
        # twin tracklet, twin response maps stack past the score threshold,
        # and ghost tracks snowball.
        # Shaped (tracklets, C) even with no tracklets: every box is then novel.
        trk_emb = np.array([t.embedding for t in self.tracklets], dtype=np.float64)
        sims = trk_emb.reshape(-1, e_set.vectors.shape[1]) @ e_set.vectors[unmatched_boxes].T
        novel = (sims < self.cfg.emb_match_thr).all(axis=0)
        spawnable = {j for j, ok in zip(unmatched_boxes, novel) if ok}
        if public_mode:
            # Public boxes may found trajectories only away from boxes that
            # are already tracked this frame; propagated boxes never spawn
            # under the public protocol.
            tracked_now = d_final[[j for _, j in matches]]
            near = (iou(d_final, tracked_now) >= PUBLIC_NEAR_IOU).any(axis=1)
            spawnable = {
                j for j in spawnable if not (d_final.restored[j] or near[j])
            }

        survivors, new_tracklets, self.next_id = update_tracklets(
            self.tracklets, matches, d_final, e_set,
            self.cfg, self.next_id, spawnable,
        )
        self.tracklets = survivors + new_tracklets

        emitted = [(tid, d_final[j]) for tid, j in matches]
        emitted += [(t.id, t.last_box) for t in new_tracklets]
        rows = [_to_mot_row(frame.frame_index, tid, box, p.stride) for tid, box in emitted]
        self.restored_emitted += sum(box.restored for _, box in emitted)
        self.rows_emitted += len(rows)
        return rows


def track_sequence(
    frames,
    pipeline: PipelineConfig | None = None,
    tracker_cfg: TrackerConfig | None = None,
    weights: RefineWeights | None = None,
    public_dets: list[MotBox] | None = None,
) -> tuple[list[MotBox], Tracker]:
    """Run a fresh tracker over an iterable of frames; returns (rows, tracker).

    public_dets may span the sequence; each frame gets its own rows.
    """
    by_frame: dict[int, list[MotBox]] = {}
    for d in public_dets or []:
        by_frame.setdefault(d.frame, []).append(d)
    tracker = Tracker(pipeline, tracker_cfg, weights)
    rows: list[MotBox] = []
    for frame in frames:
        dets = None if public_dets is None else by_frame.get(frame.frame_index, [])
        rows.extend(tracker.step(frame, dets))
    return rows, tracker
