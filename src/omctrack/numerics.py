"""Dense numeric kernels shared by the tracking pipeline.

Conventions used throughout the package:

* a *grid* is a float32 ndarray of shape (H, W, C), row-major, channel-last;
* a *matrix* is a float32 ndarray of shape (rows, cols);
* every kernel accumulates in float64 and rounds once to float32, with a
  fixed reduction order, so repeated runs produce identical bits.

Grid kernels walk the grid in blocks of whole rows, about `BLOCK_CELLS`
cells each (`grid_row_blocks`), so their float64 temporaries stay
cache-sized instead of copying the whole grid:

* `l2_normalize_grid` writes a float32 normalized copy of a grid;
* `recheck.cross_correlate` normalizes each block of the raw grid on its
  way into the float64 tracklet-by-cell product, so no normalized copy of
  the grid is ever built.

Both, and the per-cell readout in `association.extract_embeddings`, take
their unit cells from `normalize_cells`, so the normalization arithmetic
exists once. A cell's result depends only on that cell, and each element
keeps its reduction order over the channels, so the block size does not
change the output; the tests compare it bit for bit with the whole-grid
computation.

The tracklet-by-cell product stays in float64 as well, on cells rounded
to float32 first. On a synthetic 152x272x512 frame with 20 tracklets,
float32 BLAS (`sgemm`) on the same inputs changed 99% of the response
bits, and correlating the raw grid and dividing by per-cell norms
afterwards changed 3.6% of them. Either could move MOT rows, so both were
rejected.

All functions are pure; concurrent calls are safe.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "BLOCK_CELLS",
    "as_grid",
    "ensure_grid",
    "grid_row_blocks",
    "ensure_matrix",
    "matmul",
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


def ensure_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a 2-d finite array and return it as an ndarray."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")
    return a


def as_grid(g, channels: int | None = None, name: str = "grid") -> np.ndarray:
    """Return an (H, W, C) array as an ndarray; its values are not read."""
    g = np.asarray(g)
    if g.ndim != 3:
        raise ValueError(f"{name} must have shape (H, W, C), got {g.shape}")
    if channels is not None and g.shape[2] != channels:
        raise ValueError(
            f"{name} must have {channels} channels, got {g.shape[2]}"
        )
    return g


def ensure_grid(g, channels: int | None = None, name: str = "grid") -> np.ndarray:
    """Validate an (H, W, C) finite array and return it as an ndarray."""
    g = as_grid(g, channels, name)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} contains non-finite values")
    return g


def grid_row_blocks(g: np.ndarray) -> Iterator[slice]:
    """Slices of consecutive rows of g, about BLOCK_CELLS cells (>= 1 row) each."""
    h, w = g.shape[:2]
    step = max(1, BLOCK_CELLS // max(w, 1))
    for start in range(0, h, step):
        yield slice(start, min(start + step, h))


def matmul(a, b) -> np.ndarray:
    """Matrix product a @ b, accumulated in float64, rounded to float32."""
    a = ensure_matrix(a, "a")
    b = ensure_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {a.shape} x {b.shape}"
        )
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


def conv3x3_forward(x, kernel, bias) -> np.ndarray:
    """3x3 convolution with zero padding 1 and stride 1.

    Parameters
    ----------
    x : (H, W, Cin) grid
    kernel : (Cout, Cin, 3, 3) weights
    bias : (Cout,) per-channel bias

    Returns an (H, W, Cout) float32 grid with the same spatial size.
    """
    x = ensure_grid(x, name="input")
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
    done in float64 through the numerically stable split so large-magnitude
    inputs saturate without overflowing.
    """
    arr = np.asarray(x)
    work = arr.astype(np.float64)
    out = np.empty_like(work)
    pos = work >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-work[pos]))
    ex = np.exp(work[~pos])
    out[~pos] = ex / (1.0 + ex)
    if arr.ndim == 0:
        return float(out)
    if arr.dtype == np.float32:
        return out.astype(np.float32)
    return out


def l2_normalize(v, eps: float = NORM_EPS) -> np.ndarray:
    """Scale a vector to unit L2 norm; vectors with norm <= eps pass through."""
    v = np.asarray(v, dtype=np.float32)
    norm = float(np.linalg.norm(v.astype(np.float64)))
    if norm <= eps:
        return v.copy()
    return (v.astype(np.float64) / norm).astype(np.float32)


def normalize_cells(cells, eps: float = NORM_EPS) -> np.ndarray:
    """Scale every vector along the last axis to unit length, as float32.

    Norms and scaling are float64; vectors with norm <= eps stay as they
    are, so all-zero cells stay zero and downstream dot products treat them
    as "no information" rather than NaN. Raises ValueError when a value is
    not finite.
    """
    c64 = np.asarray(cells).astype(np.float64)
    norms = np.linalg.norm(c64, axis=-1, keepdims=True)
    # A norm is finite exactly when its cell's values are, unless the sum
    # of squares overflows, which float32 input cannot make happen.
    if not np.isfinite(norms).all() and not np.isfinite(c64).all():
        raise ValueError("grid contains non-finite values")
    scale = np.where(norms > eps, 1.0 / np.where(norms > eps, norms, 1.0), 1.0)
    return np.multiply(c64, scale, out=c64).astype(np.float32)


def l2_normalize_grid(g, eps: float = NORM_EPS) -> np.ndarray:
    """Normalize every (H, W) cell vector of a grid to unit length.

    Works one row block at a time (`normalize_cells`) into a single float32
    output. Raises ValueError when a value is not finite.
    """
    g = as_grid(g)
    out = np.empty(g.shape, dtype=np.float32)
    for rows in grid_row_blocks(g):
        out[rows] = normalize_cells(g[rows], eps)
    return out
