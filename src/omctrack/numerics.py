"""Dense numeric kernels shared by the tracking pipeline.

Conventions used throughout the package:

* a *grid* is a float32 ndarray of shape (H, W, C), row-major, channel-last;
* the kernels here accumulate in float64 and round once to float32, with a
  fixed reduction order, so repeated runs produce identical bits.

The one float32-accumulated kernel is the embedding search,
`recheck.cross_correlate`, whose docstring and `SEARCH_BLOCK_VALUES` note
give its blocks, threads, bits and timings. Its responses agree with the
float64 cosines within (2*C + 6) * 2**-24, the tolerance the tests derive;
`tests/test_row_contract.py` keeps the rows whose printed `conf` it moved.

`l2_normalize_grid` walks the grid in blocks of whole rows, about
`BLOCK_CELLS` cells each (`grid_row_blocks`), so its float64 temporaries
stay cache-sized; `check_finite`'s fallback scan uses the same blocks.
Outside the search's float32 scaling, `normalize_cells` is the tracker's
one unit normalization: `l2_normalize_grid`, the per-cell readout in
`association.extract_embeddings`, the momentum update of tracklet
embeddings in `association.update_tracklets` and the search's overflow
fallback take their unit vectors from it. A cell's result depends only on
that cell, and each element keeps its reduction order over the channels,
so the block size does not change the output; the tests compare it bit
for bit with the whole-grid computation.

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
    "grid_row_blocks",
    "conv3x3_forward",
    "sigmoid",
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

    Returns an (H, W, Cout) float32 grid with the same spatial size. The
    shapes are not checked: `RefineWeights` checks that its kernels and
    biases chain, and `refine` that head1 takes the visual feature's
    channels.
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    cout, cin = kernel.shape[:2]
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


def normalize_cells(cells) -> np.ndarray:
    """Scale every vector along the last axis to unit length, as float32.

    Norms and scaling are float64; vectors with norm <= NORM_EPS stay as they
    are, so all-zero cells stay zero and downstream dot products treat them
    as "no information" rather than NaN. Raises FrameValueError when a
    value is not finite.
    """
    c64 = np.array(cells, dtype=np.float64)
    # np.linalg.norm's arithmetic, without its wrapper.
    norms = np.sqrt(np.add.reduce(c64 * c64, axis=-1, keepdims=True))
    # A norm is finite exactly when its cell's values are, unless the sum
    # of squares overflows, which float32 input cannot make happen.
    if not np.isfinite(norms).all() and not np.isfinite(c64).all():
        raise FrameValueError("grid contains non-finite values")
    scale = 1.0 / np.where(norms > NORM_EPS, norms, 1.0)
    return np.multiply(c64, scale, out=c64).astype(np.float32)


def l2_normalize_grid(g) -> np.ndarray:
    """Normalize every (H, W) cell vector of a grid to unit length.

    Works one row block at a time (`normalize_cells`) into a single float32
    output. Raises FrameValueError when a value is not finite.
    """
    g = np.asarray(g)
    out = np.empty(g.shape, dtype=np.float32)
    for rows in grid_row_blocks(g):
        out[rows] = normalize_cells(g[rows])
    return out
