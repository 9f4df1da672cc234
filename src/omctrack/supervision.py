"""Supervision targets and the logistic-MSE loss for the propagation map.

The target for the propagated-response map is a sum of per-object Gaussian
bumps with size-adaptive spread, clamped to [0, 1]. The loss treats exact-1
cells as foreground and everything else as weighted background:

    L = -(1/n) * sum_xy { (1 - m) * log(m)            where T == 1
                          (1 - T) * m * log(1 - m)    otherwise }

with m clamped to [eps, 1 - eps] before the logarithms. The analytic
gradient is provided for finite-difference verification; actually training
a network is out of scope here. The arguments are not checked: the one
caller, `omctrack gradcheck`, builds each of them (equal-length target
lists with centers inside the grid, maps of the target's shape, n >= 0).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "size_adaptive_sigma",
    "gaussian_target",
    "logistic_mse_loss",
    "loss_gradient",
]

LOSS_EPS = 1e-7


def size_adaptive_sigma(w: float, h: float) -> float:
    """Spread grows with the smaller box side, floored at 0.1, capped at 1.

    The cap keeps neighbouring targets' masks from overlapping into each
    other's foreground cells.
    """
    return min(1.0, max(0.1, min(w, h) / 6.0))


def gaussian_target(
    centers: list[tuple[float, float]],
    sizes: list[tuple[float, float]],
    height: int,
    width: int,
) -> np.ndarray:
    """The (H, W) float32 supervision grid of a set of targets, in [0, 1].

    The grid is the clamped sum of one Gaussian per target, of spread
    `size_adaptive_sigma` of its size. centers are (cx, cy) in cell units
    and round down to the cell that contains them (cell k spans [k, k+1));
    each rounded center cell carries an exact 1, so every center must lie
    inside the grid. An empty target list yields the all-zero grid.
    """
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    total = np.zeros((height, width), dtype=np.float64)
    for (cx, cy), (w, h) in zip(centers, sizes):
        col = int(math.floor(cx))
        row = int(math.floor(cy))
        sigma = size_adaptive_sigma(w, h)
        d2 = (xs - col)[None, :] ** 2 + (ys - row)[:, None] ** 2
        total += np.exp(-d2 / (2.0 * sigma * sigma))
    return np.clip(total, 0.0, 1.0).astype(np.float32)


def logistic_mse_loss(m_p, target, n: int, eps: float = LOSS_EPS) -> float:
    """Non-negative scalar loss, normalized by target count n (0 for n=0)."""
    if n == 0:
        return 0.0
    m = np.clip(np.asarray(m_p, dtype=np.float64), eps, 1.0 - eps)
    t = np.asarray(target, dtype=np.float64)
    pos = t == 1.0
    terms = np.where(pos, (1.0 - m) * np.log(m), (1.0 - t) * m * np.log1p(-m))
    return float(-terms.sum() / n)


def loss_gradient(m_p, target, n: int, eps: float = LOSS_EPS) -> np.ndarray:
    """Per-cell dL/dm_p of logistic_mse_loss, as a float64 grid.

    Cells whose raw prediction sits outside the clamp interval contribute
    nothing to the loss under perturbation, so their gradient is zero.
    """
    raw = np.asarray(m_p, dtype=np.float64)
    if n == 0:
        return np.zeros_like(raw)
    t = np.asarray(target, dtype=np.float64)
    m = np.clip(raw, eps, 1.0 - eps)
    pos = t == 1.0
    grad_pos = (np.log(m) - (1.0 - m) / m) / n
    grad_neg = (1.0 - t) * (m / (1.0 - m) - np.log1p(-m)) / n
    grad = np.where(pos, grad_pos, grad_neg)
    grad[(raw < eps) | (raw > 1.0 - eps)] = 0.0
    return grad
