"""Box decoding, IOU and greedy non-maximum suppression.

Boxes live on the feature grid: centers and sizes are measured in cells,
with the anchor of each prediction at its cell center (col + 0.5,
row + 0.5). Two offset decoders are provided: the legacy sigmoid decoder
confines centers to one cell, while the boundary-aware decoder (bar) can
reach offsets up to half its scale parameter, so truncated targets at the
image edge remain representable.

Box sets are `Boxes`, one array per field; `Box` is the record for one box.
Every overlap decision, from NMS to the metrics, reads one pairwise IOU
kernel, which `iou` feeds grid boxes and `metrics.row_iou` pixel rows.
`greedy_nms` returns the indices of the boxes it keeps and reads a
caller's IOU table of its input when given one, so a tracker frame's two
NMS passes and its fusion vote all read one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import FrameValueError, sigmoid

__all__ = [
    "Box",
    "Boxes",
    "decode_offset_sigmoid",
    "decode_offset_bar",
    "decode_boxes",
    "iou",
    "greedy_nms",
    "DEFAULT_SCORE_THR",
    "DEFAULT_IOU_THR",
    "DEFAULT_H_SCALE",
    "DEFAULT_STRIDE",
    "DECODE_MODES",
]

DEFAULT_SCORE_THR = 0.5
DEFAULT_IOU_THR = 0.45
DEFAULT_H_SCALE = 10.0  # boundary-aware offset scale, in cells
DEFAULT_STRIDE = 8  # pixels per grid cell
DECODE_MODES = ("bar", "sigmoid")
# Candidates per greedy_nms block. The tracker's candidate sets (cells at or
# above the score threshold) fit in one, and up to this size the tracker
# builds one (n, n) IOU table a frame for both NMS passes and the fusion
# vote. Without a table, a whole grid's boxes take one (kept, NMS_BLOCK)
# and one (NMS_BLOCK, NMS_BLOCK) IOU matrix per block, not one (n, n)
# matrix.
NMS_BLOCK = 256

_FIELDS = ("cx", "cy", "w", "h", "score", "restored")  # of Box and of Boxes


@dataclass
class Box:
    """Axis-aligned box in feature-map cells with a confidence score.

    The restored flag marks boxes recovered by detection fusion rather
    than produced by the detector itself.
    """

    cx: float
    cy: float
    w: float
    h: float
    score: float
    restored: bool = False


@dataclass(eq=False)
class Boxes:
    """n boxes as parallel (n,) arrays: float64 geometry and score, bool restored.

    Indexing with an int, or iterating, yields `Box` records; indexing with
    a mask or an index array yields `Boxes`.
    """

    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray
    score: np.ndarray
    restored: np.ndarray | None = None

    def __post_init__(self):
        # Unrolled: the same casts and checks as a loop over the fields,
        # in fewer calls, since the tracker builds a few Boxes a frame.
        cx = self.cx = np.asarray(self.cx, dtype=np.float64)
        cy = self.cy = np.asarray(self.cy, dtype=np.float64)
        w = self.w = np.asarray(self.w, dtype=np.float64)
        h = self.h = np.asarray(self.h, dtype=np.float64)
        score = self.score = np.asarray(self.score, dtype=np.float64)
        shape = cx.shape
        restored = self.restored = (np.zeros(shape, dtype=bool) if self.restored is None
                                    else np.asarray(self.restored, dtype=bool))
        if (len(shape) != 1 or cy.shape != shape or w.shape != shape
                or h.shape != shape or score.shape != shape or restored.shape != shape):
            raise ValueError("box fields must be 1-d arrays of one length")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.cx, self.cy, self.w, self.h, self.score, self.restored)

    def __len__(self) -> int:
        return len(self.cx)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            # Unrolled like __post_init__: the tracker reads a few boxes a frame.
            return Box(self.cx.item(key), self.cy.item(key), self.w.item(key),
                       self.h.item(key), self.score.item(key), self.restored.item(key))
        return Boxes(*(a[key] for a in self._columns()))

    def __iter__(self):
        for values in zip(*(a.tolist() for a in self._columns())):
            yield Box(*values)

    @classmethod
    def of(cls, boxes: list[Box]) -> "Boxes":
        """Pack a list of Box records into arrays."""
        return cls(*([getattr(b, name) for b in boxes] for name in _FIELDS))


def decode_offset_sigmoid(raw):
    """Legacy offset decode: sigmoid squashes each component into (0, 1).

    raw is a (dx, dy) pair of scalars or of arrays; so is the result.
    """
    return (sigmoid(raw[0]), sigmoid(raw[1]))


def decode_offset_bar(raw, h_scale: float):
    """Boundary-aware offset decode: (sigmoid(raw) - 0.5) * h_scale.

    Ranges over (-h_scale/2, h_scale/2) per axis and is exactly zero at
    raw = 0, so centers beyond a single cell stay representable. Pairs as
    in decode_offset_sigmoid.
    """
    return (
        (sigmoid(raw[0]) - 0.5) * h_scale,
        (sigmoid(raw[1]) - 0.5) * h_scale,
    )


def decode_boxes(
    prob: np.ndarray,
    raw: np.ndarray,
    mode: str = "bar",
    h_scale: float = DEFAULT_H_SCALE,
    cells: np.ndarray | None = None,
) -> Boxes:
    """Decode per-cell regressions into grid-aligned boxes.

    Parameters
    ----------
    prob : (H, W, 1) foreground probability map (box scores)
    raw : (H, W, 4) regression values (raw_dx, raw_dy, raw_logw, raw_logh)
    mode : "bar" or "sigmoid" offset decoding
    h_scale : offset scale of the "bar" decoder
    cells : ascending row-major cell indices to decode, or None for all

    Returns one box per decoded cell, in row-major order: all H*W cells,
    or only those in cells. The tracker passes the cells that some score
    threshold keeps, so the rest of the grid is never decoded. Each box
    has the bits of the same cell's box in the whole-grid decode. Widths
    and heights come from exponentiating the raw values; a decoded cell
    whose width or height is not finite and positive (a finite raw
    log-size can overflow to inf or underflow to 0) raises
    FrameValueError naming boxes. The values are not read beyond the
    decoded cells, nor otherwise checked: `FrameContainer.validate`
    checks a frame's prob and boxes once, before the tracker decodes them.
    """
    prob = np.asarray(prob)
    raw = np.asarray(raw)
    if prob.ndim != 3 or prob.shape[2] != 1:
        raise ValueError(f"prob must have shape (H, W, 1), got {prob.shape}")
    if raw.ndim != 3 or raw.shape[2] != 4:
        raise ValueError(f"boxes must have shape (H, W, 4), got {raw.shape}")
    if prob.shape[:2] != raw.shape[:2]:
        raise ValueError(
            f"prob and boxes grids differ: {prob.shape[:2]} vs {raw.shape[:2]}"
        )
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {mode!r}")

    height, width = prob.shape[:2]
    flat_raw, scores = raw.reshape(-1, 4), prob.reshape(-1)
    if cells is None:
        cells = np.arange(height * width)
    else:
        cells = _check_cells(cells, height * width)
        flat_raw, scores = flat_raw[cells], scores[cells]
    raw64 = flat_raw.astype(np.float64)
    pair = (raw64[:, 0], raw64[:, 1])
    dx, dy = decode_offset_bar(pair, h_scale) if mode == "bar" else decode_offset_sigmoid(pair)
    with np.errstate(over="ignore"):
        w, h = np.exp(raw64[:, 2]), np.exp(raw64[:, 3])
    if not (((w > 0) & (w < np.inf)).all() and ((h > 0) & (h < np.inf)).all()):
        raise FrameValueError("tensor 'boxes' decodes to a width or height "
                              "that is not finite and positive")
    row, col = np.divmod(cells, width)
    return Boxes(
        cx=(col + 0.5) + dx,
        cy=(row + 0.5) + dy,
        w=w,
        h=h,
        score=scores.astype(np.float64),
    )


def _check_cells(cells, count: int) -> np.ndarray:
    """cells as an intp array, if they ascend strictly within [0, count)."""
    cells = np.asarray(cells)
    if cells.size == 0:
        return np.zeros(0, dtype=np.intp)
    if cells.ndim != 1 or cells.dtype.kind not in "iu":
        raise ValueError(f"cells must be a 1-d integer array, got {cells.dtype} {cells.shape}")
    cells = cells.astype(np.intp, copy=False)
    if cells[0] < 0 or cells[-1] >= count or (cells[1:] <= cells[:-1]).any():
        raise ValueError(f"cells must ascend strictly within [0, {count})")
    return cells


def _edge_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IOU matrix of a (5, n) and a (5, m) array of x1, y1, x2, y2, area.

    Pairs without a positive-width, positive-height overlap, or with a
    union <= 0, read 0; the rest are clamped to [0, 1]. The x and y edges
    go through each broadcast max and min together, as two planes.
    """
    iwh = np.minimum(a[2:4, :, None], b[2:4, None, :])
    iwh -= np.maximum(a[:2, :, None], b[:2, None, :])
    iw, ih = iwh
    inter = iw * ih
    union = a[4][:, None] + b[4]
    union -= inter
    # A NaN union (from infinite sizes) is not "<= 0": it stays NaN.
    overlap = iw > 0.0
    overlap &= ih > 0.0
    overlap &= ~(union <= 0.0)
    out = np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)
    # Where overlap holds, inter > 0 and union > 0 (or NaN), so no value
    # lies below 0; only the top needs the clamp.
    return np.minimum(out, 1.0, out=out)


def _edges(boxes: Boxes) -> np.ndarray:
    hw, hh = boxes.w / 2.0, boxes.h / 2.0
    edges = np.empty((5, len(boxes)))
    np.subtract(boxes.cx, hw, out=edges[0])
    np.subtract(boxes.cy, hh, out=edges[1])
    np.add(boxes.cx, hw, out=edges[2])
    np.add(boxes.cy, hh, out=edges[3])
    np.multiply(boxes.w, boxes.h, out=edges[4])
    return edges


def iou(a: Boxes, b: Boxes) -> np.ndarray:
    """(len(a), len(b)) matrix of intersection over union, each in [0, 1].

    Pairs without a positive-width, positive-height overlap, or with a
    union <= 0, read 0. iou(a, a) computes a's edges once.
    """
    edges = _edges(a)
    return _edge_iou(edges, edges if b is a else _edges(b))


def greedy_nms(
    boxes: Boxes,
    score_thr: float = DEFAULT_SCORE_THR,
    iou_thr: float = DEFAULT_IOU_THR,
    overlap: np.ndarray | None = None,
) -> np.ndarray:
    """Threshold by score, then greedily keep maxima and drop overlaps.

    Returns the indices into boxes of the kept boxes, score-descending, as
    torchvision.ops.nms does. Boxes scoring below score_thr are discarded;
    the survivor set is built by repeatedly keeping the highest-scoring
    candidate and suppressing every remaining box whose IOU with it exceeds
    iou_thr. Ties in score resolve in input order.

    overlap is iou(boxes, boxes) when the caller already holds it (a
    cache, not an option): the loop then reads its entries, which are the
    values it would compute. Without it, the candidates go in blocks of
    NMS_BLOCK: one IOU matrix against the boxes kept from earlier blocks,
    and one within the block, which a loop over the block reads in order.
    """
    score = boxes.score
    above = np.flatnonzero(score >= score_thr)
    order = above[np.argsort(-score[above], kind="stable")]
    if overlap is None:
        edges = _edges(boxes[order])

        def pair_iou(rows, cols):
            return _edge_iou(edges[:, rows], edges[:, cols])
    else:
        def pair_iou(rows, cols):
            return overlap.take(order[rows], axis=0).take(order[cols], axis=1)

    kept: list[int] = []
    for start in range(0, len(order), NMS_BLOCK):
        block = slice(start, min(start + NMS_BLOCK, len(order)))
        alive = np.ones(block.stop - start, dtype=bool)
        if kept:
            alive &= (pair_iou(kept, block) <= iou_thr).all(axis=0)
        ok = pair_iou(block, block) <= iou_thr
        for i in range(len(alive)):
            if alive[i]:
                kept.append(start + i)
                alive[i + 1:] &= ok[i, i + 1:]
    return order[kept]
