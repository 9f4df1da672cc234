"""Tracklet propagation by global embedding search.

Every active tracklet embedding is dotted against every cell of the current
identity-embedding grid in float32 matrix multiplies over near-equal,
cache-sized blocks of the raw grid's cells. Each block is multiplied
cells-major, (cells, C) x (C, n), each cell's row of the product scaled by
its 1/norm, and the block is written transposed into one contiguous
response map per tracklet. A grid of more than one block (paper scale) is
searched on two CPUs: each block is cut in half, the calling thread walks
the first halves and a helper thread started for the call the second.
Each map is shrunk to a window around its peak (look-alike objects
elsewhere produce spurious highs), the masked maps are summed into one
aggregate, and an optional learned refinement mixes the visual feature
back in to filter false positives. Ranking the boxes decoded at the cells
where the refined map reaches the score threshold by that map, and running
NMS over them, picks the transductive detections (as indices into the
decoded boxes, read against the frame's one IOU table when the tracker
holds it) that can restore targets the detector scored as background.

`cross_correlate` normalizes the grid cells; templates must be unit-length
or zero. So all responses are cosine similarities and the shrink threshold
is scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from threading import Thread
from typing import Iterator

import numpy as np

from .detection import Boxes, greedy_nms
from .frame_io import Payload, read_omcf
from .numerics import (
    NORM_EPS,
    check_finite,
    conv3x3_forward,
    normalize_cells,
    sigmoid,
)

__all__ = [
    "EmbeddingSet",
    "RefineWeights",
    "cross_correlate",
    "aggregate",
    "refine",
    "transductive_detections",
]

# Values (cells x channels) in one block of the embedding search: 4 MiB of
# float32, 2048 cells at C = 512, so a block read from a container is still
# in cache when its norms and product use it. On 152x272x512 grids, near-
# equal blocks of 1024 to 4096 cells gave the whole-grid product's bits for
# 3, 5 and 20 templates; one template (gemv), or a last block much smaller
# than the others, can make OpenBLAS pick another kernel and move the last
# bits, which is why the blocks are near-equal rather than full-then-tail.
# The product is cells-major, block @ templates.T into a (cells, n) buffer:
# one 1968x512 block against 20 templates, 21 times (a frame's blocks),
# took 15.3 ms where templates @ block.T took 19.8 ms, and it gives the
# same bits for 1, 3, 5 and 20 templates. Each block's scaled product is
# written back transposed into the C-contiguous (n, H*W) output (1.1 ms a
# frame, against 0.6 ms for scaling the old output in place), because a
# transposed view of a (H*W, n) output makes aggregate's per-map argmax
# walk strided memory: 2.5 ms against 0.4 ms for 20 maps.
# A grid of more than one block is searched on two threads: each block is
# cut in half, and the calling thread and a helper thread each walk one half
# of every block with their own half-size buffers (about 2 MiB of cells, one
# core's L2). The two halves add up to one block's 4 MiB, so mot17's peak
# RSS grows by only 0.5-0.7 MiB, and there is one hand-off a frame with
# equal work on each side, so neither thread waits long on the other. The
# helper is started and joined by each call: 91-140 us against 35-53 us to
# hand the half to a kept executor thread (2-vCPU box), about 0.3% of a
# mot17 step, for no thread, lock or fork hook that outlives the call. A
# read-ahead thread tried before (the next block read on a second thread
# into a second whole buffer) cost 3.7 MiB more RSS and handed off every
# block, the reader and the product waiting on each other; it took the search from 40 to 24 ms a frame, but
# tracking ran at 23-38 frames/s against a steady 29-32 single-threaded.
# The split search takes 25 ms a frame against 37 on one thread (mot17
# seed-0 payload, 20 templates), and mot17 tracking rises from 24 to 38
# frames/s. Both numbers hold with one BLAS thread, as the benchmark runs;
# with OpenBLAS's default of one thread per CPU, each search thread asks
# for two, and the split search is no faster (43-66 ms against 45-51).
# With one BLAS thread the halves (984 or 985 cells) give their blocks'
# bits for 1, 2, 3, 5 and 20 templates; with two, one template (gemv)
# moves 20-26 of 41344 cells by at most 1.5e-8. Much smaller halves can
# move more, within the tests' cosine tolerance.
# Tried on 152x272x512 grids and left out (one BLAS thread, 2-vCPU box):
# - blocks of 256 to 4096 cells gave no gain over 2048 (34.0 ms at 2048,
#   36.8-38.8 ms at the others) and moved the one-template bits at every
#   size but 2048;
# - np.vecdot norms are faster than the einsum (about 1 ms a frame inside
#   the search) but move the bits of the squared norms.
# A template count that is not a multiple of 4 (4 < n, n % 4 != 0) is slow
# in sgemm's edge kernel: a 400x512 block (desk) against 6 templates took
# 104-105 us, against the same 6 padded with zero rows to 8, 76-80 us
# (5 and 7: 100 and 131 us, both 75 padded; one BLAS thread). So `_search`
# multiplies a block by templates padded to a multiple of 4 and scales and
# writes only the n real columns, which keep their bits: the blocked
# kernel sums each output over C in the same order at any width. Scanned
# at C of 16 to 512, n of 5 to 18 (and 21 to 203 at six block sizes) and
# blocks of 1 to 2100 cells, with one and two BLAS threads, the real
# columns kept every bit whenever the unpadded product held more than
# SMALL_PRODUCT_VALUES values. A product of that many or fewer goes
# through OpenBLAS's small-matrix kernel, which sums in another order, so
# padding it across that line moves bits (seen on a 15x15 world-scan grid
# against 5 templates, and on split halves of 108 cells); such a block is
# not padded. The overflow fallback takes the real templates, and one
# test of a block's squared norms (their float64 sum) replaces a per-cell
# mask on every block that has no overflowing cell (see `_search`).
SEARCH_BLOCK_VALUES = 1 << 20

# Values (cells x n) of a block's product up to which OpenBLAS (0.3.31,
# AVX-512 build) takes its small-matrix sgemm kernel; only a larger
# product is padded (see SEARCH_BLOCK_VALUES).
SMALL_PRODUCT_VALUES = 1200

_WEIGHT_NAMES = (
    "conv1.w", "conv1.b", "conv2.w", "conv2.b",
    "head1.w", "head1.b", "head2.w", "head2.b",
)


@dataclass
class EmbeddingSet:
    """Identity vectors: rows of an (n, C) float32 array, each unit or all zero."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError(
                f"vectors must have shape (n, C), got {self.vectors.shape}"
            )
        rows = self.vectors.astype(np.float64)
        norms = np.sqrt(np.vecdot(rows, rows))
        bad = ~((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-5))
        if bad.any():
            raise ValueError(
                f"embedding norms must be 0 or 1, got {norms[bad][:4]}"
            )

    def __len__(self) -> int:
        return len(self.vectors)

    @classmethod
    def empty(cls, dim: int) -> "EmbeddingSet":
        return cls(np.zeros((0, dim), dtype=np.float32))


def _search_blocks(cells: int, channels: int) -> Iterator[tuple[int, int]]:
    """Near-equal (start, stop) cell ranges, each at most SEARCH_BLOCK_VALUES values.

    The split depends only on the cell and channel counts, so a grid in
    memory and the same grid read from a container share their blocks.
    """
    count = max(1, -(-cells * channels // SEARCH_BLOCK_VALUES))
    for k in range(count):
        yield cells * k // count, cells * (k + 1) // count


def cross_correlate(e_set: EmbeddingSet, embed: np.ndarray | Payload) -> np.ndarray:
    """Cosine response maps of every template against every grid cell.

    embed is an (H, W, C) array or a container frame's unread `embed`
    Payload. The H*W cells are walked in near-equal blocks of at most
    SEARCH_BLOCK_VALUES values (`_search_blocks`): a view of an array, or a
    payload's cells read into a buffer that every block reuses, so a
    payload of more than one block is never held whole. Each block is one
    float32 pass (`_search`): per-cell squared norms from one `einsum`, one
    cells-major (cells, C) x (C, n) `sgemm` of the raw cells against the
    templates into a reused buffer, and that buffer's n real columns, each
    cell's row scaled by its 1/norm, written transposed into the block's
    columns of the (n, H*W) output. Against more than 4 templates whose
    count is not a multiple of 4, a block whose product holds more than
    SMALL_PRODUCT_VALUES values is multiplied by the templates padded with
    zero rows to a multiple of 4, which sgemm runs faster and which leaves
    the real columns' bits alone. The output stays C-contiguous, so each
    response map is one contiguous (H, W) array for the per-map reductions
    downstream (see SEARCH_BLOCK_VALUES).

    A grid of one block is searched on the calling thread. A grid of more
    blocks is searched on two: each block is cut in half, the calling
    thread walks the first halves and a helper thread (`omctrack-search`),
    started for this call, the second halves, each with its own half-size
    buffers and its own columns of the output. Every stage releases the
    GIL, so the halves run on two CPUs at once. A half is a serial walk's
    arithmetic on a smaller product; on 152x272x512 grids with one BLAS
    thread it keeps every bit (see SEARCH_BLOCK_VALUES). The calling
    thread joins the helper before it returns or raises, so no thread
    outlives the call; an error from either half propagates as it was
    raised, the calling thread's when both halves fail. Concurrent calls
    are safe: each starts its own helper.

    Cells with norm <= NORM_EPS keep scale 1, so all-zero cells respond
    exactly 0. A block whose squared norms have a finite float64 sum holds
    no value that is not finite, and is checked by that one test. In any
    other block, a cell whose squared norm is not finite goes through
    `normalize_cells` (float64), which raises FrameValueError when one of
    its values is not finite and otherwise gives the cosines, against the
    real templates, of cells whose float32 squares overflow. This is where
    embed's values are checked;
    with no templates they are not read. A payload cut short raises
    ContainerFormatError naming the tensor. Returns an (n, H, W) stack,
    float32 for a float32 grid. The templates' dimension must be the
    grid's channel count, which `Tracker._match` checks.
    """
    unread = isinstance(embed, Payload)
    grid = embed if unread else np.asarray(embed)
    h, w, c = grid.shape
    n = len(e_set)
    if n == 0:
        return np.zeros((0, h, w), dtype=np.float32)
    source = grid if unread else grid.reshape(-1, c)
    blocks = list(_search_blocks(h * w, c))
    responses = np.empty((n, h * w), np.result_type(e_set.vectors, grid.dtype))
    if len(blocks) == 1:
        _search(e_set.vectors, source, blocks, responses)
    else:
        cuts = [start + (stop - start) // 2 for start, stop in blocks]
        failed = []

        def second_halves():
            try:
                _search(e_set.vectors, source,
                        [(cut, stop) for cut, (_, stop) in zip(cuts, blocks)], responses)
            except BaseException as exc:
                failed.append(exc)

        helper = Thread(target=second_halves, name="omctrack-search")
        helper.start()
        try:
            _search(e_set.vectors, source,
                    [(start, cut) for cut, (start, _) in zip(cuts, blocks)], responses)
        finally:
            helper.join()  # even if our half raised, which then wins
        if failed:
            raise failed[0]
    return responses.reshape(n, h, w)


def _search(vectors: np.ndarray, source: np.ndarray | Payload,
            ranges: list[tuple[int, int]], responses: np.ndarray) -> None:
    """Search the cells start..stop of each range into responses[:, start:stop].

    One thread's walk: source is an (H*W, C) array or an unread payload,
    and the walk has its own read buffer and product buffer, sized for its
    largest range. A block's product is taken against the templates padded
    to a multiple of 4 when it holds more than SMALL_PRODUCT_VALUES values
    and 4 < n, n % 4 != 0; it depends only on the block's cells, so the
    serial walk, the split halves and the tests' walks pad alike. The
    float64 sum of a block's float32 squared norms cannot overflow, so it
    is finite exactly when every squared norm is; only a block whose sum
    is not builds the per-cell mask for the overflow fallback.
    """
    n, c = vectors.shape
    most = max(stop - start for start, stop in ranges)
    unread = isinstance(source, Payload)
    if unread:
        buf = np.empty((most, c), source.dtype)
    padded = vectors
    if n > 4 and n % 4:
        padded = np.zeros((n + 4 - n % 4, c), vectors.dtype)
        padded[:n] = vectors
    products = np.empty(most * len(padded), responses.dtype)
    for start, stop in ranges:
        block = source.read_cells(start, buf[:stop - start]) if unread else source[start:stop]
        out = responses[:, start:stop]
        sq = np.einsum("ij,ij->i", block, block)
        finite = math.isfinite(sq.sum(dtype=np.float64))
        if not finite:
            overflow = ~np.isfinite(sq)
            unit = normalize_cells(block[overflow])
            sq[overflow] = 0.0  # scale 1; these columns are replaced below
        norms = np.sqrt(sq)
        scale = 1.0 / np.where(norms > NORM_EPS, norms, 1.0)
        templates = padded if (stop - start) * n > SMALL_PRODUCT_VALUES else vectors
        product = products[:(stop - start) * len(templates)].reshape(-1, len(templates))
        np.matmul(block, templates.T, out=product)
        np.multiply(product[:, :n].T, scale, out=out)
        if not finite:
            out[:, overflow] = vectors @ unit.T


def _peak_windows(stack: np.ndarray, r: float) -> list[tuple[slice, slice]]:
    """Rows and columns within r cells of the peak of each map of an (n, H, W) stack.

    A map's peak is the first row-major occurrence of its maximum; one
    argmax finds every map's. r may be math.inf, which keeps whole maps;
    a negative r, -inf and NaN raise ValueError.
    """
    n, h, w = stack.shape
    if not r >= 0:
        raise ValueError(f"shrink radius must be >= 0, got {r}")
    if r == math.inf:
        return [(slice(None), slice(None))] * n
    k = math.floor(r)
    windows = []
    for peak in stack.reshape(n, h * w).argmax(axis=1).tolist():
        cy, cx = divmod(peak, w)
        windows.append((slice(max(cy - k, 0), cy + k + 1), slice(max(cx - k, 0), cx + k + 1)))
    return windows


def aggregate(stack: np.ndarray, r: float) -> np.ndarray:
    """Sum of an (n, H, W) stack's response maps, each masked around its own peak.

    Each map's window (`_peak_windows`) is added straight into one float64
    sum; for finite maps this equals adding the masked maps.
    """
    out = np.zeros(stack.shape[1:], dtype=np.float64)
    for m, window in zip(stack, _peak_windows(stack, r)):
        held = out[window]  # a view; out[window] += would also copy it back
        held += m[window]
    return out.astype(np.float32)


@dataclass
class RefineWeights:
    """The eight weights of the learned refinement head, all required.

    The head encodes the aggregated map through an inverted bottleneck
    (1 -> wide -> 1 channels), multiplies the result into the visual
    feature, and squashes two further 3x3 convolutions into a probability
    map. "No learned head" is no weights at all (`refine(m_s, f_t, None)`),
    not an instance of this class. A weight that is not finite, or whose
    shape does not fit the chain (a bias holds one value per output
    channel of its kernel), raises ValueError naming it.
    """

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    head1_w: np.ndarray
    head1_b: np.ndarray
    head2_w: np.ndarray
    head2_b: np.ndarray

    def __post_init__(self):
        arrays = {name: getattr(self, name.replace(".", "_")) for name in _WEIGHT_NAMES}
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"weight {name!r} contains non-finite values")
        for name in ("conv1.w", "conv2.w", "head1.w", "head2.w"):
            arr = arrays[name]
            if arr.ndim != 4 or arr.shape[2:] != (3, 3):
                raise ValueError(
                    f"weight {name!r} must have shape (Cout, Cin, 3, 3), "
                    f"got {arr.shape}"
                )
        for name in ("conv1", "conv2", "head1", "head2"):
            cout, shape = arrays[f"{name}.w"].shape[0], np.shape(arrays[f"{name}.b"])
            if shape != (cout,):
                raise ValueError(f"weight '{name}.b' must have shape ({cout},) "
                                 f"to match {name}.w, got {shape}")
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
        return cls(**{n.replace(".", "_"): tensors[n] for n in _WEIGHT_NAMES})


def refine(m_s: np.ndarray, f_t: np.ndarray | None,
           weights: RefineWeights | None) -> np.ndarray:
    """Turn the aggregated response map into a foreground probability map.

    Returns an (H, W) float32 map. With weights None this is
    clamp(m_s, 0, 1) and f_t is not read (it may be None); with weights
    the bottleneck/head convolutions described on RefineWeights are
    applied to f_t and the result passes through a sigmoid, so values
    always land in (0, 1). A non-finite value in f_t, or a finite f_t that
    overflows the head to a non-finite value before the sigmoid, raises
    FrameValueError. m_s and f_t share one frame's grid size, which
    `FrameContainer.validate` checks.
    """
    m_s = np.asarray(m_s, dtype=np.float32)
    if weights is None:
        # np.clip's bits, in fewer calls, but for -0.0, which comes out
        # +0.0 and which aggregate never makes.
        return np.minimum(np.maximum(m_s, 0.0), 1.0)

    f_t = np.asarray(f_t, dtype=np.float32)
    if f_t.shape[2] != weights.head1_w.shape[1]:
        raise ValueError(
            f"head1 expects {weights.head1_w.shape[1]} channels, "
            f"visual feature has {f_t.shape[2]}"
        )
    check_finite(f_t, "feat")
    # Finite values can overflow float32 here; the head output is checked.
    with np.errstate(over="ignore", invalid="ignore"):
        x = conv3x3_forward(m_s[:, :, None], weights.conv1_w, weights.conv1_b)
        x = np.maximum(x, 0.0)
        ms_prime = conv3x3_forward(x, weights.conv2_w, weights.conv2_b)
        enhanced = f_t * ms_prime
        y = conv3x3_forward(enhanced, weights.head1_w, weights.head1_b)
        y = np.maximum(y, 0.0)
        y = conv3x3_forward(y, weights.head2_w, weights.head2_b)[:, :, 0]
    check_finite(y, "refine head output")
    return sigmoid(y)


def transductive_detections(
    m_p: np.ndarray,
    boxes: Boxes,
    cells: np.ndarray,
    score_thr: float,
    iou_thr: float,
    overlap: np.ndarray | None = None,
) -> np.ndarray:
    """Re-score decoded grid boxes with the propagated map and run NMS.

    boxes is decode_boxes(..., cells) for the same frame: the box of each
    cell in cells, ascending row-major indices into m_p. Geometry is kept,
    only the scores are replaced by the map values at those cells.
    Returns the indices into boxes of the transductive detections,
    score-descending by those map values, as greedy_nms does; overlap is
    iou(boxes, boxes) when the caller holds it. Only cells whose m_p value
    is at or above score_thr can give a detection, so the tracker decodes
    no cell below it; any cell left out of cells gives none. m_p, boxes
    and cells are not checked against each other: `Tracker._match` builds
    all three from one frame.
    """
    rescored = Boxes(boxes.cx, boxes.cy, boxes.w, boxes.h, m_p.reshape(-1)[cells],
                     boxes.restored)
    return greedy_nms(rescored, score_thr, iou_thr, overlap)
