"""Why box-center offsets need more reach than one cell.

A target half outside the image has its true center beyond the edge, often
several cells away from the nearest anchor. The plain sigmoid decoder caps
offsets at one cell, so such boxes are unrepresentable no matter what the
network outputs. The boundary-aware decoder rescales the sigmoid to
(-h/2, h/2) and recovers them from the analytically inverted raw value, to
the float32 precision of a frame's raw values. The bar column below decodes
through the tracker's own `decode_boxes`, on a one-cell grid.
"""

import math

import numpy as np

from omctrack.detection import DEFAULT_H_SCALE, decode_boxes
from omctrack.numerics import sigmoid


def decode_offset_sigmoid(raw):
    """The plain decoder: sigmoid squashes each offset into (0, 1) cells."""
    return sigmoid(raw[0]), sigmoid(raw[1])


def decode_offset_bar(raw_dx, h_scale):
    """The tracker's decoder on a one-cell grid: the x offset from its anchor, 0.5."""
    raw = np.array([[[raw_dx, 0.0, 0.0, 0.0]]], dtype=np.float32)
    return decode_boxes(np.ones((1, 1, 1), dtype=np.float32), raw, h_scale).cx[0] - 0.5


h_scale = DEFAULT_H_SCALE
raw_sweep = np.linspace(-50, 50, 4001)

print(f"{'true offset':>12} {'bar decode':>11} {'bar err':>9} {'best sigmoid err':>17}")
for offset in (0.25, 0.75, 1.5, 2.0, 2.5, 3.0, 4.0):
    u = offset / h_scale + 0.5
    exact_raw = math.log(u) - math.log1p(-u)
    decoded = decode_offset_bar(exact_raw, h_scale)
    sigmoid_best = min(
        abs(offset - decode_offset_sigmoid((raw, 0.0))[0]) for raw in raw_sweep
    )
    print(f"{offset:>12.2f} {decoded:>11.4f} {abs(decoded-offset):>9.2e} "
          f"{sigmoid_best:>17.4f}")

print("\nAnything past one cell is out of reach for the sigmoid decoder;")
print("its best error grows as offset - 1 while the rescaled decoder's stays at float32 rounding.")
