"""Dense numeric kernels shared by the tracking pipeline.

Conventions used throughout the package:

* a *grid* is a float32 ndarray of shape (H, W, C), row-major, channel-last;
* the kernels here accumulate in float64 and round once to float32, with a
  fixed reduction order, so repeated runs produce identical bits.

The one float32-accumulated kernel is the embedding search,
`recheck.cross_correlate`. It reads the whole grid against every live
tracklet on every frame, and at paper scale (152x272x512, 20 tracklets)
its float64 passes (norm, scaling, round trip, `dgemm`) took about 136 ms
a frame, against about 47 ms for per-cell squared norms from one float32
`einsum`, one `sgemm` of the templates against the raw cells, and each
output column scaled by its cell's 1/norm (one BLAS thread, 2-vCPU Xeon).
The product is now cells-major, (cells, C) x (C, n) into a small
(cells, n) buffer whose rows are scaled and written transposed into the
contiguous (n, H*W) output; with the same bits, that search took about
37 to 50 ms a frame on one thread. A grid of more than one block is now
searched on two threads, each block cut in half between the calling
thread and one worker thread (see `recheck.cross_correlate`); each thread
has its own buffers and writes its own columns of the output, so
concurrent searches stay safe (their second halves take turns on the
worker), and on 152x272x512 grids the search takes about 25 ms a frame
against 37 on one thread (one BLAS thread each).
The detector and re-check networks it stands in for are float32 too.
Finite cells whose float32 squares overflow go through `normalize_cells`.

The search walks the grid's H*W cells in near-equal blocks of at most
`recheck.SEARCH_BLOCK_VALUES` values (2048 cells at C = 512), each a view
of an array or a read from a container's unread payload, so a container
grid of more than one block is never held whole. The split depends only
on (H*W, C), so a grid in memory and the same grid in a container give
the same bits, and a grid that fits in one block (the 20x20 desk and
12x12 clutter worlds) gets one whole-grid `sgemm`. OpenBLAS chooses its kernel by matrix size: on
152x272x512 grids, near-equal blocks of 1024 to 4096 cells gave the
whole-grid product's bits with 3, 5 and 20 templates, while one template
(`gemv`), or a last block much smaller than the others, can move the last
bits; that is why the blocks are near-equal, not full blocks and a tail.
The two halves of a 152x272x512 block (984 or 985 cells) gave the whole
block's bits for 1, 2, 3, 5 and 20 templates with one BLAS thread; much
smaller halves, or more BLAS threads, can move the last bits of a few
cells, within the same tolerance.
The responses agree with the float64 cosines within (2*C + 6) * 2**-24,
the tolerance the tests derive. Measured against the float64 search it
replaced: MOT rows are byte-identical on the 152x272 worlds (seeds 0 and
7); on the 20x20 desk worlds (seeds 0, 7 and 8), the 12x12 clutter worlds
(seeds 0 and 7) and the golden worlds, every frame, id and box field is
identical and the printed `conf` differs by 1e-6 on 0 to 61 rows a world,
which `tests/test_row_contract.py` keeps as the contract. The blocks left
the 152x272 rows byte-identical to the whole-grid search.

`l2_normalize_grid` walks the grid in blocks of whole rows, about
`BLOCK_CELLS` cells each (`grid_row_blocks`), so its float64 temporaries
stay cache-sized; `check_finite`'s fallback scan uses the same blocks.
`l2_normalize_grid`, the per-cell readout in
`association.extract_embeddings` and the search's overflow fallback take
their unit cells from `normalize_cells`. A cell's result depends only on that cell, and each
element keeps its reduction order over the channels, so the block size
does not change the output; the tests compare it bit for bit with the
whole-grid computation.

The kernels that read a frame's values raise `FrameValueError` on a value
they cannot use: `normalize_cells` (and so the search and the embedding
readout) on a non-finite embedding, `check_finite` on any tensor. A frame's
values are checked where they are read, so a value that no kernel reads is
never checked.

All functions are pure; concurrent calls are safe.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "BLOCK_CELLS",
    "FrameValueError",
    "check_finite",
    "as_grid",
    "grid_row_blocks",
    "conv3x3_forward",
    "sigmoid",
    "l2_normalize",
    "normalize_cells",
    "l2_normalize_grid",
]

# Norms at or below this are treated as zero vectors.
NORM_EPS = 1e-12

# Cells per block of a grid kernel; a block is whole rows, so at least one.
# 64 cells of 512 float64 channels is 256 KiB per temporary. On a 2-vCPU
# Xeon (4 MiB L2, glibc malloc), 64 to 2048 cells ran alike on 152x272x512
# grids. On 20x20x512 grids, one 400-cell block was slower than the old
# whole-grid pass: its freed temporaries were trimmed off the heap and
# page-faulted back in every frame (768 minor faults a frame, none with
# 60-cell blocks).
BLOCK_CELLS = 64


class FrameValueError(ValueError):
    """A frame tensor holds a value the pipeline cannot use.

    Raised where a frame's values are read: a non-finite value, or a prob
    outside [0, 1]. Tracker.step counts such a frame as all-miss and lets
    every other exception propagate.
    """


def as_grid(g, name: str = "grid") -> np.ndarray:
    """Return an (H, W, C) array as an ndarray; its values are not read."""
    g = np.asarray(g)
    if g.ndim != 3:
        raise ValueError(f"{name} must have shape (H, W, C), got {g.shape}")
    return g


def grid_row_blocks(g: np.ndarray) -> Iterator[slice]:
    """Slices of consecutive rows of g, about BLOCK_CELLS cells (>= 1 row) each."""
    h, w = g.shape[:2]
    step = max(1, BLOCK_CELLS // max(w, 1))
    for start in range(0, h, step):
        yield slice(start, min(start + step, h))


def check_finite(arr: np.ndarray, name: str) -> None:
    """Raise FrameValueError, naming the tensor, unless every value is finite.

    A C-contiguous array is first summed as one BLAS dot product with
    itself, which is finite exactly when every value is, unless finite
    float32 squares overflow (values above about 1.8e19). Any other array,
    and any non-finite sum, is checked one row block at a time, so no bool
    array the size of the whole tensor is allocated.
    """
    if arr.flags.c_contiguous:
        flat = arr.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(np.dot(flat, flat)):
                return
    for rows in grid_row_blocks(arr):
        if not np.isfinite(arr[rows]).all():
            raise FrameValueError(f"tensor {name!r} contains non-finite values")


def conv3x3_forward(x, kernel, bias) -> np.ndarray:
    """3x3 convolution with zero padding 1 and stride 1.

    Parameters
    ----------
    x : (H, W, Cin) grid
    kernel : (Cout, Cin, 3, 3) weights
    bias : (Cout,) per-channel bias

    Returns an (H, W, Cout) float32 grid with the same spatial size.
    """
    x = as_grid(x, name="input")
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if kernel.ndim != 4 or kernel.shape[2:] != (3, 3):
        raise ValueError(
            f"kernel must have shape (Cout, Cin, 3, 3), got {kernel.shape}"
        )
    cout, cin = kernel.shape[:2]
    if cin != x.shape[2]:
        raise ValueError(
            f"kernel expects {cin} input channels, grid has {x.shape[2]}"
        )
    if bias.shape != (cout,):
        raise ValueError(f"bias must have shape ({cout},), got {bias.shape}")

    h, w = x.shape[:2]
    padded = np.zeros((h + 2, w + 2, cin), dtype=np.float64)
    padded[1:-1, 1:-1] = x
    out = np.zeros((h, w, cout), dtype=np.float64)
    # Fixed (ky, kx) order keeps the accumulation deterministic.
    for ky in range(3):
        for kx in range(3):
            out += padded[ky:ky + h, kx:kx + w] @ kernel[:, :, ky, kx].T
    out += bias
    return out.astype(np.float32)


def sigmoid(x):
    """Elementwise logistic 1 / (1 + exp(-x)).

    Accepts scalars or arrays. Scalars come back as Python floats; float32
    arrays come back as float32, everything else as float64. Computation is
    done in float64 through the numerically stable split, so large-magnitude
    inputs saturate without overflowing: with e = exp(-|x|), 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere. One exp over every element
    serves both sides; -|x| is taken as min(x, -x), which keeps a NaN's
    sign, so each value has the bits of the split taken one side at a time.
    """
    arr = np.asarray(x)
    work = arr.astype(np.float64)
    ex = np.exp(np.minimum(work, -work))
    out = np.where(work >= 0, 1.0, ex)
    out /= 1.0 + ex
    if arr.ndim == 0:
        return float(out)
    if arr.dtype == np.float32:
        return out.astype(np.float32)
    return out


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit L2 norm; vectors with norm <= NORM_EPS pass through."""
    v = np.asarray(v, dtype=np.float32)
    v64 = v.astype(np.float64)
    norm = float(np.linalg.norm(v64))
    if norm <= NORM_EPS:
        return v.copy()
    return (v64 / norm).astype(np.float32)


def normalize_cells(cells) -> np.ndarray:
    """Scale every vector along the last axis to unit length, as float32.

    Norms and scaling are float64; vectors with norm <= NORM_EPS stay as they
    are, so all-zero cells stay zero and downstream dot products treat them
    as "no information" rather than NaN. Raises FrameValueError when a
    value is not finite.
    """
    c64 = np.asarray(cells).astype(np.float64)
    norms = np.linalg.norm(c64, axis=-1, keepdims=True)
    # A norm is finite exactly when its cell's values are, unless the sum
    # of squares overflows, which float32 input cannot make happen.
    if not np.isfinite(norms).all() and not np.isfinite(c64).all():
        raise FrameValueError("grid contains non-finite values")
    scale = np.where(norms > NORM_EPS, 1.0 / np.where(norms > NORM_EPS, norms, 1.0), 1.0)
    return np.multiply(c64, scale, out=c64).astype(np.float32)


def l2_normalize_grid(g) -> np.ndarray:
    """Normalize every (H, W) cell vector of a grid to unit length.

    Works one row block at a time (`normalize_cells`) into a single float32
    output. Raises FrameValueError when a value is not finite.
    """
    g = as_grid(g)
    out = np.empty(g.shape, dtype=np.float32)
    for rows in grid_row_blocks(g):
        out[rows] = normalize_cells(g[rows])
    return out
