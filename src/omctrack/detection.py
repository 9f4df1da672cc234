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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import sigmoid

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
# above the score threshold) fit in one; a whole grid's boxes take one
# (kept, NMS_BLOCK) and one (NMS_BLOCK, NMS_BLOCK) IOU matrix per block,
# not one (n, n) matrix.
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
        for name in _FIELDS[:-1]:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.restored is None:
            self.restored = np.zeros(self.cx.shape, dtype=bool)
        self.restored = np.asarray(self.restored, dtype=bool)
        if self.cx.ndim != 1 or any(a.shape != self.cx.shape for a in self._columns()):
            raise ValueError("box fields must be 1-d arrays of one length")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.cx, self.cy, self.w, self.h, self.score, self.restored)

    def __len__(self) -> int:
        return len(self.cx)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Box(*[a.item(key) for a in self._columns()])
        return Boxes(*(a[key] for a in self._columns()))

    def __iter__(self):
        for values in zip(*(a.tolist() for a in self._columns())):
            yield Box(*values)

    @classmethod
    def of(cls, boxes: list[Box]) -> "Boxes":
        """Pack a list of Box records into arrays."""
        return cls(*([getattr(b, name) for b in boxes] for name in _FIELDS))

    def concat(self, other: "Boxes") -> "Boxes":
        return Boxes(*map(np.concatenate, zip(self._columns(), other._columns())))


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
    and heights come from exponentiating the raw values so they stay
    positive. NaN anywhere in the maps, decoded cells or not, rejects the
    frame.
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
    if np.isnan(prob).any() or np.isnan(raw).any():
        raise ValueError("frame rejected: NaN in detection maps")
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
    row, col = np.divmod(cells, width)
    return Boxes(
        cx=(col + 0.5) + dx,
        cy=(row + 0.5) + dy,
        w=np.exp(raw64[:, 2]),
        h=np.exp(raw64[:, 3]),
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
    if cells[0] < 0 or cells[-1] >= count or (np.diff(cells) <= 0).any():
        raise ValueError(f"cells must ascend strictly within [0, {count})")
    return cells


def _edge_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IOU matrix of a (5, n) and a (5, m) array of x1, y1, x2, y2, area.

    Pairs without a positive-width, positive-height overlap, or with a
    union <= 0, read 0; the rest are clamped to [0, 1].
    """
    ax1, ay1, ax2, ay2, a_area = (v[:, None] for v in a)
    bx1, by1, bx2, by2, b_area = b
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = a_area + b_area - inter
    # A NaN union (from infinite sizes) is not "<= 0": it stays NaN.
    overlap = (iw > 0.0) & (ih > 0.0) & ~(union <= 0.0)
    out = np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)
    return np.minimum(np.maximum(out, 0.0), 1.0)


def _edges(boxes: Boxes) -> np.ndarray:
    hw, hh = boxes.w / 2.0, boxes.h / 2.0
    return np.stack([boxes.cx - hw, boxes.cy - hh, boxes.cx + hw, boxes.cy + hh,
                     boxes.w * boxes.h])


def iou(a: Boxes, b: Boxes) -> np.ndarray:
    """(len(a), len(b)) matrix of intersection over union, each in [0, 1].

    Pairs without a positive-width, positive-height overlap, or with a
    union <= 0, read 0.
    """
    return _edge_iou(_edges(a), _edges(b))


def greedy_nms(
    boxes: Boxes,
    score_thr: float = DEFAULT_SCORE_THR,
    iou_thr: float = DEFAULT_IOU_THR,
) -> Boxes:
    """Threshold by score, then greedily keep maxima and drop overlaps.

    Boxes scoring below score_thr are discarded; the survivor set is built
    by repeatedly keeping the highest-scoring candidate and suppressing
    every remaining box whose IOU with it exceeds iou_thr. Ties in score
    resolve in input order. Output is score-descending. The candidates go
    in blocks of NMS_BLOCK: one IOU matrix against the boxes kept from
    earlier blocks, and one within the block, which a loop over the block
    reads in order.
    """
    above = np.flatnonzero(boxes.score >= score_thr)
    candidates = boxes[above[np.argsort(-boxes.score[above], kind="stable")]]
    edges = _edges(candidates)
    kept: list[int] = []
    for start in range(0, len(candidates), NMS_BLOCK):
        block = edges[:, start:start + NMS_BLOCK]
        alive = np.ones(block.shape[1], dtype=bool)
        if kept:
            alive &= (_edge_iou(edges[:, kept], block) <= iou_thr).all(axis=0)
        ok = _edge_iou(block, block) <= iou_thr
        for i in range(len(alive)):
            if alive[i]:
                kept.append(start + i)
                alive[i + 1:] &= ok[i, i + 1:]
    return candidates[kept]
