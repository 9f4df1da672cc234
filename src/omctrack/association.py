"""Tracklet lifecycle, greedy matching and the per-frame pipeline step.

The live tracklets are one table of arrays (`TrackletTable`): ids,
embeddings, last boxes and miss counts, one row each, in the order the
tracklets were founded. Embeddings are plain (n, C) float32 rows, and
`normalize_cells` alone makes them, in the readout and in the momentum
blend: unit rows, or rows of norm <= NORM_EPS left as they are. Association
runs in two greedy stages: cosine similarity between tracklet embeddings
and candidate-box embeddings first, IOU against each tracklet's last box as
a fallback for the leftovers, computed only when the first stage leaves
both a tracklet and a box open. Each stage takes its pairs in one sweep
over the matrix sorted once. Matched rows are refreshed in place, unmatched
ones age out after a retention window. One birth rule, applied in
`Tracker._match` under both protocols, picks the boxes that append rows
with new identities from a monotone id counter: a box founds a tracklet
when it is unmatched, not restored, and novel (cosine below emb_match_thr
against every live row); under the public protocol it must also not be near
a box tracked this frame. Restored boxes repair tracklets; they never start
one.

The pipeline step stitches the whole frame together: propagate active
tracklets with the global embedding search, decode boxes at the cells a
score threshold keeps, build basic detections (or ingest public ones),
fuse the transductive detections back in, associate, and emit result rows
in pixel units, built from the fused boxes' arrays. One `PipelineConfig`
holds every setting the step and its kernels read. The search reads
`embed` from whatever the frame holds, a container's grid block by block,
and the readout reads the fused boxes' centre cells. When the base NMS,
the transductive NMS and the fusion vote all run over the decoded boxes,
one IOU table over them a frame serves the three, which pick boxes by
index into it. The search reads the table's embedding rows as it holds
them, and one cosine matrix a frame, those rows against the fused boxes'
embeddings, serves association and births. There is deliberately
no motion model: propagation by embedding search is the mechanism under
test, and a motion prior would mask its contribution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import detection
from .detection import Boxes, DEFAULT_H_SCALE, DEFAULT_STRIDE, decode_boxes, greedy_nms, iou
from .frame_io import FrameContainer, MotBox, Payload, mot_box_fault
from .fusion import fuse
# l2_normalize_grid is unused here but stays bound: perfbench's tracer wraps
# every stage name this module binds, that one included.
from .numerics import FrameValueError, l2_normalize_grid, normalize_cells
from .recheck import (
    RefineWeights,
    aggregate,
    cross_correlate,
    refine,
    transductive_detections,
)

__all__ = [
    "TrackletTable",
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


@dataclass(eq=False)
class TrackletTable:
    """The live tracklets, one row each, in the order they were founded.

    ids: (n,) int64 identities. emb: their (n, C) float32 embeddings, rows
    as `normalize_cells` leaves them: unit rows, or rows of norm <=
    NORM_EPS, which respond about 0, as a zero row does. last: the box each
    one last matched. misses: (n,) int64 consecutive frames without a
    match. `update_tracklets` changes a table in place.
    """

    ids: np.ndarray
    emb: np.ndarray
    last: Boxes
    misses: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class PipelineConfig:
    """The tracker's settings, each with its one default, shared by the CLI
    and the test harness.

    retention_frames: consecutive misses before a tracklet is removed.
    embedding_momentum: alpha of the one embedding update, f <- alpha * f
    + (1 - alpha) * f_new, renormalized: 1 keeps the birth embedding, 0
    takes each match's.
    """

    h_scale: float = DEFAULT_H_SCALE
    score_thr: float = 0.5
    nms_iou_thr: float = 0.45
    fusion_epsilon: float = 0.5
    shrink_radius: float = 3       # math.inf = no shrink
    stride: int = DEFAULT_STRIDE
    recheck_enabled: bool = True
    retention_frames: int = 30
    embedding_momentum: float = 0.9
    emb_match_thr: float = 0.6
    iou_match_thr: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.h_scale < math.inf:
            raise ValueError(f"h_scale must be finite and positive, got {self.h_scale}")
        for name in ("score_thr", "nms_iou_thr", "fusion_epsilon", "emb_match_thr",
                     "iou_match_thr"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not self.shrink_radius >= 0:
            raise ValueError("shrink_radius must be >= 0 or inf")
        if not 1 <= self.stride < math.inf:
            raise ValueError(f"stride must be finite and >= 1, got {self.stride}")
        if not self.retention_frames >= 1:
            raise ValueError("retention_frames must be >= 1")
        if not 0.0 <= self.embedding_momentum <= 1.0:
            raise ValueError("embedding_momentum must lie in [0, 1]")


def extract_embeddings(boxes: Boxes, embed: np.ndarray | Payload) -> np.ndarray:
    """Read one normalized embedding per box at its center cell.

    embed is an (H, W, C) array or a container frame's unread `embed`
    Payload, of which only the center cells are read. Centers outside the
    grid clamp to the nearest boundary cell. Only the cells read are
    normalized and checked: a non-finite value in one raises
    FrameValueError.
    """
    unread = isinstance(embed, Payload)
    grid = embed if unread else np.asarray(embed)
    h, w = grid.shape[:2]
    cols = np.minimum(np.maximum(np.floor(boxes.cx), 0), w - 1).astype(np.intp)
    rows = np.minimum(np.maximum(np.floor(boxes.cy), 0), h - 1).astype(np.intp)
    cells = grid.take_cells(rows * w + cols) if unread else grid[rows, cols]
    return normalize_cells(cells)


def _greedy_matrix_match(
    scores: np.ndarray,
    thr: float,
    row_open: list[int],
    col_open: list[int],
) -> list[tuple[int, int]]:
    """Repeatedly take the globally largest open entry at or above thr.

    Ties resolve to the first row-major occurrence, which keeps results
    identical run to run. NaN entries rank above every number, first
    row-major, as np.argmax ranks them. One sort gives that order, and one
    sweep takes each entry whose row and column are both still open; that
    is the entry a repeated argmax over the open entries would take next.
    """
    pairs: list[tuple[int, int]] = []
    if not row_open or not col_open:
        return pairs
    work = scores.take(row_open, axis=0).take(col_open, axis=1).astype(np.float64).ravel()
    # A stable sort of -work puts ties in row-major order and NaNs last;
    # moving the NaNs to the front gives np.argmax's order.
    order = np.argsort(-work, kind="stable")
    nans = np.count_nonzero(np.isnan(work))
    if nans:
        order = np.concatenate((order[-nans:], order[:-nans]))
    width = len(col_open)
    rows_free, cols_free = [True] * len(row_open), [True] * width
    left = min(len(row_open), width)
    for flat, value in zip(order.tolist(), work[order].tolist()):
        if value < thr:
            break
        i, j = divmod(flat, width)
        if rows_free[i] and cols_free[j]:
            pairs.append((row_open[i], col_open[j]))
            rows_free[i] = cols_free[j] = False
            left -= 1
            if not left:
                break
    return pairs


def associate(
    live: TrackletTable,
    boxes: Boxes,
    sims: np.ndarray,
    cfg: PipelineConfig,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Two-stage greedy matching of the live tracklets to candidate boxes.

    sims is the (len(live), len(boxes)) cosine matrix of the table's
    embedding rows against the boxes' embeddings, the one `Tracker._match`
    builds a frame; the embedding stage matches on it as given. Returns
    (matches, unmatched_tracklet_ids, unmatched_box_indices) where matches
    pairs tracklet ids with box indices. Every tracklet and box is matched
    at most once. The IOU fallback runs only when the embedding stage
    leaves both a tracklet and a box open; otherwise it could match
    nothing.
    """
    matches: list[tuple[int, int]] = []
    ids = live.ids.tolist()
    open_rows = list(range(len(ids)))
    open_cols = list(range(len(boxes)))

    def take(scores: np.ndarray, thr: float) -> None:
        for i, j in _greedy_matrix_match(scores, thr, open_rows, open_cols):
            matches.append((ids[i], j))
            open_rows.remove(i)
            open_cols.remove(j)

    if ids and len(boxes):
        take(sims, cfg.emb_match_thr)
        if open_rows and open_cols:
            take(iou(live.last, boxes), cfg.iou_match_thr)
    return matches, [ids[i] for i in open_rows], open_cols


def update_tracklets(
    live: TrackletTable,
    matches: list[tuple[int, int]],
    boxes: Boxes,
    embeddings: np.ndarray,
    cfg: PipelineConfig,
    next_id: int,
    born: list[int],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply one frame's assignment to the table of live tracklets, in place.

    embeddings holds the boxes' (len(boxes), C) float32 rows from
    `extract_embeddings`. Matched rows reset their miss count, take their
    box and blend their embedding with the match's by
    cfg.embedding_momentum, every matched row in one pass: the blend is
    taken in float64, rounded to float32 and scaled to unit length by
    `normalize_cells`, the readout's rule. Every other row ages by one
    miss, and rows whose count reaches the retention window are dropped.
    The boxes at the indices in born found new rows with fresh ids, in that
    order, after the survivors; `Tracker._match` picks them by the one
    birth rule (unmatched, not restored, novel). Only a frame that drops or
    founds rows builds new arrays. Returns (surviving ids, new ids,
    next_id); the ids are views of the table's.
    """
    matched = dict(matches)
    ids = live.ids.tolist()
    # The matched rows and their boxes' columns as index arrays, built once
    # for every write and the blend.
    hit = [i for i, tid in enumerate(ids) if tid in matched]
    rows = np.array(hit, dtype=np.intp)
    cols = np.array([matched[ids[i]] for i in hit], dtype=np.intp)
    live.misses += 1
    if hit:
        live.misses[rows] = 0
        for held, seen in zip(live.last._columns(), boxes._columns()):
            held[rows] = seen[cols]
        a = cfg.embedding_momentum
        blend = (live.emb[rows].astype(np.float64) * a
                 + embeddings[cols].astype(np.float64) * (1.0 - a))
        live.emb[rows] = normalize_cells(blend.astype(np.float32))

    keep = live.misses < cfg.retention_frames
    if born or not keep.all():
        vectors = live.emb[keep]
        if born:
            # A table that has never held a row has no channel count yet.
            vectors = (np.concatenate((vectors, embeddings[born])) if len(vectors)
                       else embeddings[born])
        new_ids = np.arange(next_id, next_id + len(born), dtype=np.int64)
        live.ids = np.concatenate((live.ids[keep], new_ids))
        live.emb = vectors
        live.last = Boxes(*(np.concatenate((held[keep], seen[born]))
                            for held, seen in zip(live.last._columns(), boxes._columns())))
        live.misses = np.concatenate((live.misses[keep], np.zeros(len(born), dtype=np.int64)))
    kept = len(live) - len(born)
    return live.ids[:kept], live.ids[kept:], next_id + len(born)


def _public_to_cells(dets: list[MotBox], stride: int) -> Boxes:
    x, y, w, h, conf = np.array(
        [(d.x, d.y, d.w, d.h, d.conf) for d in dets], dtype=np.float64
    ).reshape(-1, 5).T
    return Boxes(cx=(x + w / 2.0) / stride, cy=(y + h / 2.0) / stride,
                 w=w / stride, h=h / stride, score=np.clip(conf, 0.0, 1.0))


def _mot_rows(frame_index: int, ids: list[int], boxes: Boxes,
              cells: np.ndarray, stride: int) -> list[MotBox]:
    """One pixel-unit MOT row per (id, box index) pair, read from the box arrays.

    x, y is the top-left corner; conf is the score clipped to [0, 1]. Each
    field is one Python float operation on the box's float64 values.
    """
    columns = (a[cells].tolist() for a in (boxes.cx, boxes.cy, boxes.w, boxes.h, boxes.score))
    return [
        MotBox(frame_index, tid, (cx - w / 2.0) * stride, (cy - h / 2.0) * stride,
               w * stride, h * stride, min(max(score, 0.0), 1.0))
        for tid, cx, cy, w, h, score in zip(ids, *columns)
    ]


class Tracker:
    """Stateful per-sequence tracker; one instance per video sequence.

    Holds its one config (`pipeline`; None gives `PipelineConfig()`), the
    live tracklets as one table (`live`), the monotone id counter and
    running counts. weights are the learned refinement head,
    or None for none: refinement then clamps the aggregate and no frame's
    feat is read. step() consumes one FrameContainer and returns the MOT
    rows emitted for that frame. Distinct sequences need distinct
    instances.
    """

    def __init__(
        self,
        pipeline: PipelineConfig | None = None,
        weights: RefineWeights | None = None,
    ):
        self.pipeline = pipeline or PipelineConfig()
        self.weights = weights
        self.live = TrackletTable(np.zeros(0, dtype=np.int64), np.zeros((0, 0), np.float32),
                                  Boxes.of([]), np.zeros(0, dtype=np.int64))
        self.next_id = 1
        self.rows_emitted = 0
        self.restored_emitted = 0

    def step(
        self,
        frame: FrameContainer,
        public_dets: list[MotBox] | None = None,
    ) -> list[MotBox]:
        """Run the full pipeline on one frame and emit its result rows.

        public_dets, when given, must hold this frame's rows only, each a
        well-formed box (`mot_box_fault`); they replace the detector's boxes.
        A row of another frame, or a malformed row, raises ValueError naming
        the frame before any tracklet changes, and so does a frame whose
        format is bad (`FrameContainer.validate`) or whose embed has another
        channel count than the live tracklets' embeddings. A frame's values
        are checked where they are read: prob (finite, within [0, 1]) and
        boxes (finite) up front, the decoded sizes (finite, positive) by the
        decode, embed by the embedding search and by the readout cells, feat
        by learned refinement only. A bad value raises FrameValueError; the
        frame then logs a warning, ages every tracklet by one miss and emits
        no rows. Tracklet state changes only after every value has been
        read, and any other exception propagates.

        Association's IOU fallback runs only when its embedding stage
        leaves both a tracklet and a box open. The rows, matched boxes
        first and then the boxes that found tracklets, are built from the
        fused boxes' arrays.
        """
        for d in public_dets or ():
            if d.frame != frame.frame_index:
                raise ValueError(f"public detection of frame {d.frame} given to "
                                 f"frame {frame.frame_index}")
            if (fault := mot_box_fault(d)) is not None:
                raise ValueError(f"public detection of frame {d.frame}: {fault}")
        try:
            d_final, embeddings, matches, born = self._match(frame, public_dets)
        except FrameValueError as exc:
            log.warning("frame %s failed validation, counting as all-miss: %s",
                        frame.frame_index, exc)
            update_tracklets(self.live, [], Boxes.of([]), np.zeros((0, 0), np.float32),
                             self.pipeline, self.next_id, [])
            return []

        _, new_ids, self.next_id = update_tracklets(
            self.live, matches, d_final, embeddings, self.pipeline, self.next_id, born,
        )
        ids = [tid for tid, _ in matches] + new_ids.tolist()
        cells = np.array([j for _, j in matches] + born, dtype=np.intp)
        rows = _mot_rows(frame.frame_index, ids, d_final, cells, self.pipeline.stride)
        self.restored_emitted += int(np.count_nonzero(d_final.restored[cells]))
        self.rows_emitted += len(rows)
        return rows

    def run(
        self,
        frames: Iterable[FrameContainer],
        public_dets: list[MotBox] | None = None,
    ) -> Iterator[list[MotBox]]:
        """Step through frames in order, yielding each frame's rows as it ends.

        public_dets may span the sequence; each frame gets its own rows.
        After the last frame, public rows of a frame the sequence does not
        hold raise ValueError naming the first such frames.
        """
        by_frame: dict[int, list[MotBox]] = {}
        for d in public_dets or []:
            by_frame.setdefault(d.frame, []).append(d)
        held = set()
        for frame in frames:
            held.add(frame.frame_index)
            dets = None if public_dets is None else by_frame.get(frame.frame_index, [])
            yield self.step(frame, dets)
        if unused := sorted(by_frame.keys() - held):
            more = f" and {len(unused) - 5} more" if len(unused) > 5 else ""
            raise ValueError("public detections of frames the sequence does not hold: "
                             + ", ".join(map(str, unused[:5])) + more)

    def _match(
        self,
        frame: FrameContainer,
        public_dets: list[MotBox] | None,
    ) -> tuple[Boxes, np.ndarray, list[tuple[int, int]], list[int]]:
        """Read the frame and match it against the tracklets, changing neither.

        Returns the fused boxes, their embeddings, the (tracklet id, box
        index) matches and the ascending indices of the boxes that found
        new tracklets. This is the one place that decides births.

        The propagated map comes first, so the frame is decoded once and
        only at the cells that can give a box: where the detector score
        (for the basic set; public boxes replace it) or the propagated
        score (for the transductive set, when tracklets propagate) is at
        or above the score threshold. Both NMS passes take that one set,
        and with the fusion vote they read one IOU table over it when all
        three run (`_fused_detections`).

        Each value is read and checked once. `FrameContainer.validate`
        checks the frame's format, then reads prob and boxes, a container
        frame's from the file, and checks them before anything else reads
        them; the kernels trust those checks. The one shape no frame can
        check alone, embed's channel count against the live tracklets'
        embeddings, is checked here, with or without the re-check. A
        container frame's unread `embed` is read block by block by the
        search, when tracklets propagate, and cell by cell by the readout;
        the frame keeps holding the unread payload.
        """
        p = self.pipeline
        frame.validate(("prob", "boxes"))
        public_mode = public_dets is not None

        # The search and the readout read embed from whatever the frame
        # holds; the frame keeps holding a container's grid unread.
        embed = frame.held()["embed"]
        dim = self.live.emb.shape[1]
        if len(self.live) and embed.shape[2] != dim:
            raise ValueError(f"frame {frame.frame_index}: tensor 'embed' has {embed.shape[2]} "
                             f"channels, but the live tracklets' embeddings have {dim}")
        m_p = None
        if p.recheck_enabled and len(self.live):
            stack = cross_correlate(self.live.emb, embed)
            m_s = aggregate(stack, p.shrink_radius)
            f_t = None if self.weights is None else frame.feat
            m_p = refine(m_s, f_t, self.weights)

        # Compared in float64, as greedy_nms compares the decoded scores.
        thr = np.float64(p.score_thr)
        prob = frame.prob.reshape(-1)
        keep = np.zeros(prob.shape, dtype=bool) if public_mode else prob >= thr
        if m_p is not None:
            keep |= m_p.reshape(-1) >= thr
        cells = np.flatnonzero(keep)
        decoded = decode_boxes(frame.prob, frame.boxes, p.h_scale, cells)

        public = _public_to_cells(public_dets, p.stride) if public_mode else None
        d_final = _fused_detections(decoded, cells, m_p, p, public)

        embeddings = extract_embeddings(d_final, embed)
        # One cosine matrix a frame, the live rows against the fused boxes,
        # for the first matching stage and the birth rule. A table that has
        # never held a row has no channel count yet.
        live_rows = self.live.emb if len(self.live) else embeddings[:0]
        sims = live_rows.astype(np.float64) @ embeddings.astype(np.float64).T
        matches, _, unmatched_boxes = associate(self.live, d_final, sims, p)

        # Birth rule: a box founds a tracklet when it is unmatched, novel and
        # not restored. Restored boxes repair tracklets and never start one.
        # Novel means below emb_match_thr against every live row: a box
        # whose embedding duplicates a live identity (overlap readout,
        # propagation leftovers) would otherwise found a twin tracklet, twin
        # response maps stack past the score threshold, and ghosts snowball.
        novel = (sims < p.emb_match_thr).all(axis=0)
        spawnable = [j for j in unmatched_boxes if novel[j] and not d_final.restored[j]]
        if public_mode and spawnable:
            # Under the public protocol a box must also not be near a box
            # tracked this frame.
            tracked_now = d_final[[j for _, j in matches]]
            near = (iou(d_final, tracked_now) >= PUBLIC_NEAR_IOU).any(axis=1)
            spawnable = [j for j in spawnable if not near[j]]
        return d_final, embeddings, matches, spawnable


def _fused_detections(
    decoded: Boxes,
    cells: np.ndarray,
    m_p: np.ndarray | None,
    p: PipelineConfig,
    public: Boxes | None = None,
) -> Boxes:
    """A frame's fused boxes: the basic detections, then the restored ones.

    decoded holds the boxes of cells, the cells that some score threshold
    keeps; m_p is the propagated map, or None when nothing propagates.
    public, when given, replaces the base NMS. When the base NMS, the
    transductive NMS and the fusion vote all run over decoded, and it holds
    up to NMS_BLOCK candidates, one IOU table over decoded is built here
    and the three read it by index; otherwise each computes its own IOU.
    """
    overlap = None
    if public is None and m_p is not None and len(decoded) <= detection.NMS_BLOCK:
        overlap = iou(decoded, decoded)
    if public is None:
        base = greedy_nms(decoded, p.score_thr, p.nms_iou_thr, overlap)
        d_base = decoded[base]
    else:
        d_base = public
    if m_p is None:
        return d_base
    trans = transductive_detections(m_p, decoded, cells, p.score_thr, p.nms_iou_thr, overlap)
    d_trans = Boxes(decoded.cx[trans], decoded.cy[trans], decoded.w[trans], decoded.h[trans],
                    m_p.reshape(-1)[cells[trans]])
    vote = None if overlap is None else overlap.take(trans, axis=0).take(base, axis=1)
    return fuse(d_trans, d_base, p.fusion_epsilon, vote)


def track_sequence(
    frames,
    pipeline: PipelineConfig | None = None,
    weights: RefineWeights | None = None,
    public_dets: list[MotBox] | None = None,
) -> tuple[list[MotBox], Tracker]:
    """Run a fresh tracker over an iterable of frames; returns (rows, tracker).

    public_dets may span the sequence; each frame gets its own rows, and a
    row of a frame the sequence does not hold raises ValueError
    (`Tracker.run`).
    """
    tracker = Tracker(pipeline, weights)
    rows = [row for frame_rows in tracker.run(frames, public_dets) for row in frame_rows]
    return rows, tracker
