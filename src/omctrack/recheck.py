"""Tracklet propagation by global embedding search.

Every active tracklet embedding is dotted against every cell of the current
identity-embedding grid, one float64 matrix multiply per block of grid
rows, each block normalized on its way in, which yields one response map
per tracklet. Each map is shrunk to a window around its peak (look-alike
objects elsewhere produce spurious highs), the masked maps are summed into
one aggregate, and an optional learned refinement mixes the visual feature
back in to filter false positives. Swapping the refined map in as the
score array of the decoded `Boxes` and running NMS produces the
transductive detections that can restore targets the detector scored as
background.

`cross_correlate` normalizes the grid cells; templates must be unit-length
or zero. So all responses are cosine similarities and the shrink threshold
is scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .detection import Boxes, greedy_nms
from .frame_io import read_omcf
from .numerics import (
    as_grid,
    conv3x3_forward,
    ensure_grid,
    grid_row_blocks,
    normalize_cells,
    sigmoid,
)

__all__ = [
    "EmbeddingSet",
    "RefineWeights",
    "cross_correlate",
    "shrink_mask",
    "aggregate",
    "refine",
    "transductive_detections",
]

DEFAULT_SHRINK_RADIUS = 3

_WEIGHT_NAMES = (
    "conv1.w", "conv1.b", "conv2.w", "conv2.b",
    "head1.w", "head1.b", "head2.w", "head2.b",
)


@dataclass
class EmbeddingSet:
    """Ordered identity vectors plus the tracklet id each one came from.

    Vectors are rows of an (n, C) float32 array, each unit-length or all
    zero. source_ids is -1 for vectors not tied to a tracklet (embeddings
    freshly read out of a frame).
    """

    vectors: np.ndarray
    source_ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError(
                f"vectors must have shape (n, C), got {self.vectors.shape}"
            )
        if not self.source_ids:
            self.source_ids = [-1] * len(self.vectors)
        if len(self.source_ids) != len(self.vectors):
            raise ValueError("source_ids length must match vector count")
        norms = np.linalg.norm(self.vectors.astype(np.float64), axis=1)
        bad = ~((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-5))
        if bad.any():
            raise ValueError(
                f"embedding norms must be 0 or 1, got {norms[bad][:4]}"
            )

    def __len__(self) -> int:
        return len(self.vectors)

    @classmethod
    def empty(cls, dim: int) -> "EmbeddingSet":
        return cls(np.zeros((0, dim), dtype=np.float32), [])


def cross_correlate(e_set: EmbeddingSet, embed: np.ndarray) -> np.ndarray:
    """Cosine response maps of every template against every grid cell.

    Each row block of the raw grid is normalized (`normalize_cells`, which
    raises ValueError on a non-finite value) and multiplied as an
    (n, C) x (C, cells) float64 product, which is equivalent to looping dot
    products per target and unit cell. With no templates the values are not
    read. Returns an (n, H, W) float32 stack.
    """
    grid = as_grid(embed, name="embed")
    h, w, c = grid.shape
    n = len(e_set)
    if n == 0:
        return np.zeros((0, h, w), dtype=np.float32)
    if e_set.vectors.shape[1] != c:
        raise ValueError(
            f"embedding dim {e_set.vectors.shape[1]} != grid channels {c}"
        )
    templates = e_set.vectors.astype(np.float64)
    responses = np.empty((n, h, w), dtype=np.float32)
    for rows in grid_row_blocks(grid):
        cells = normalize_cells(grid[rows]).reshape(-1, c).astype(np.float64)
        responses[:, rows] = (templates @ cells.T).reshape(n, -1, w)
    return responses


def shrink_mask(m: np.ndarray, r: float) -> np.ndarray:
    """Binary window of half-width r around the peak of a response map.

    The peak is the first row-major occurrence of the maximum. r may be
    math.inf, which keeps the whole map (shrinking disabled).
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"response map must be 2-d, got shape {m.shape}")
    if math.isinf(r):
        return np.ones(m.shape, dtype=np.float32)
    if r < 0:
        raise ValueError(f"shrink radius must be >= 0, got {r}")
    h, w = m.shape
    cy, cx = divmod(int(np.argmax(m)), w)
    ys = np.abs(np.arange(h) - cy) <= r
    xs = np.abs(np.arange(w) - cx) <= r
    return (ys[:, None] & xs[None, :]).astype(np.float32)


def aggregate(stack: np.ndarray, r: float) -> np.ndarray:
    """Sum of per-target response maps, each masked around its own peak."""
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError(f"stack must have shape (n, H, W), got {stack.shape}")
    out = np.zeros(stack.shape[1:], dtype=np.float64)
    for i in range(stack.shape[0]):
        out += shrink_mask(stack[i], r).astype(np.float64) * stack[i].astype(np.float64)
    return out.astype(np.float32)


@dataclass
class RefineWeights:
    """Weights of the refinement head, or bypass mode when none are loaded.

    Learned mode encodes the aggregated map through an inverted bottleneck
    (1 -> wide -> 1 channels), multiplies the result into the visual
    feature, and squashes two further 3x3 convolutions into a probability
    map. Bypass mode clamps the aggregate to [0, 1] directly, which keeps
    the pipeline runnable without any trained weights.
    """

    mode: str = "bypass"
    conv1_w: np.ndarray | None = None
    conv1_b: np.ndarray | None = None
    conv2_w: np.ndarray | None = None
    conv2_b: np.ndarray | None = None
    head1_w: np.ndarray | None = None
    head1_b: np.ndarray | None = None
    head2_w: np.ndarray | None = None
    head2_b: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("bypass", "learned"):
            raise ValueError(f"unknown refine mode {self.mode!r}")
        if self.mode == "learned":
            self._validate_chain()

    def _validate_chain(self):
        arrays = {
            "conv1.w": self.conv1_w, "conv1.b": self.conv1_b,
            "conv2.w": self.conv2_w, "conv2.b": self.conv2_b,
            "head1.w": self.head1_w, "head1.b": self.head1_b,
            "head2.w": self.head2_w, "head2.b": self.head2_b,
        }
        for name, arr in arrays.items():
            if arr is None:
                raise ValueError(f"learned mode requires weight {name!r}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"weight {name!r} contains non-finite values")
        for name in ("conv1.w", "conv2.w", "head1.w", "head2.w"):
            arr = arrays[name]
            if arr.ndim != 4 or arr.shape[2:] != (3, 3):
                raise ValueError(
                    f"weight {name!r} must have shape (Cout, Cin, 3, 3), "
                    f"got {arr.shape}"
                )
        if self.conv1_w.shape[1] != 1:
            raise ValueError("conv1 must take 1 input channel")
        if self.conv2_w.shape[1] != self.conv1_w.shape[0]:
            raise ValueError("conv2 input channels must match conv1 output")
        if self.conv2_w.shape[0] != 1:
            raise ValueError("conv2 must produce 1 output channel")
        if self.head2_w.shape[1] != self.head1_w.shape[0]:
            raise ValueError("head2 input channels must match head1 output")
        if self.head2_w.shape[0] != 1:
            raise ValueError("head2 must produce 1 output channel")

    @classmethod
    def bypass(cls) -> "RefineWeights":
        return cls(mode="bypass")

    @classmethod
    def load(cls, path) -> "RefineWeights":
        """Load learned weights from an OMCF tensor file (one frame)."""
        frames = read_omcf(path)
        if len(frames) != 1:
            raise ValueError(
                f"weight file must hold exactly one frame, got {len(frames)}"
            )
        tensors = frames[0]
        missing = [n for n in _WEIGHT_NAMES if n not in tensors]
        if missing:
            raise ValueError(f"weight file missing tensors: {missing}")
        kwargs = {n.replace(".", "_"): tensors[n] for n in _WEIGHT_NAMES}
        return cls(mode="learned", **kwargs)


def refine(m_s: np.ndarray, f_t: np.ndarray, weights: RefineWeights) -> np.ndarray:
    """Turn the aggregated response map into a foreground probability map.

    Returns an (H, W) float32 map. In bypass mode this is clamp(m_s, 0, 1);
    in learned mode the bottleneck/head convolutions described on
    RefineWeights are applied and the result passes through a sigmoid, so
    values always land in (0, 1).
    """
    m_s = np.asarray(m_s, dtype=np.float32)
    if m_s.ndim != 2:
        raise ValueError(f"aggregated map must be 2-d, got shape {m_s.shape}")
    if weights.mode == "bypass":
        return np.clip(m_s, 0.0, 1.0)

    f_t = ensure_grid(f_t, name="f_t").astype(np.float32)
    if f_t.shape[:2] != m_s.shape:
        raise ValueError(
            f"visual feature size {f_t.shape[:2]} != map size {m_s.shape}"
        )
    if f_t.shape[2] != weights.head1_w.shape[1]:
        raise ValueError(
            f"head1 expects {weights.head1_w.shape[1]} channels, "
            f"visual feature has {f_t.shape[2]}"
        )
    x = conv3x3_forward(m_s[:, :, None], weights.conv1_w, weights.conv1_b)
    x = np.maximum(x, 0.0)
    ms_prime = conv3x3_forward(x, weights.conv2_w, weights.conv2_b)
    enhanced = f_t * ms_prime
    y = conv3x3_forward(enhanced, weights.head1_w, weights.head1_b)
    y = np.maximum(y, 0.0)
    y = conv3x3_forward(y, weights.head2_w, weights.head2_b)[:, :, 0]
    return sigmoid(y)


def transductive_detections(
    m_p: np.ndarray,
    boxes: Boxes,
    score_thr: float,
    iou_thr: float,
) -> Boxes:
    """Re-score grid-aligned boxes with the propagated map and run NMS.

    boxes must be the full row-major cell-aligned set produced by
    decode_boxes for the same frame: geometry is kept, only the score array
    is replaced by the map values at each source cell.
    """
    m_p = np.asarray(m_p)
    if m_p.ndim != 2:
        raise ValueError(f"m_p must be 2-d, got shape {m_p.shape}")
    if len(boxes) != m_p.size:
        raise ValueError(
            f"box count {len(boxes)} != grid cell count {m_p.size}"
        )
    return greedy_nms(replace(boxes, score=m_p.ravel()), score_thr, iou_thr)
