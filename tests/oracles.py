"""Reference computations that only the tests use.

The tracker never builds a shrink mask, decodes one offset pair at a
time or decodes offsets with a plain sigmoid; the tests read these to
check `recheck.aggregate`'s windows and `detection.decode_boxes`'s
offsets, and to show what the boundary-aware decoder reaches that a
sigmoid cannot.
"""

import numpy as np

from omctrack.numerics import sigmoid
from omctrack.recheck import _peak_windows


def shrink_mask(m: np.ndarray, r: float) -> np.ndarray:
    """Binary window of half-width r around the peak of a 2-d response map.

    The peak is the first row-major occurrence of the maximum. r may be
    math.inf, which keeps the whole map (shrinking disabled); a negative
    r, -inf and NaN raise ValueError. The window is the one
    `recheck.aggregate` sums the map over.
    """
    mask = np.zeros(m.shape, dtype=np.float32)
    mask[_peak_windows(m[None], r)[0]] = 1.0
    return mask


def decode_offset_bar(raw, h_scale: float):
    """Boundary-aware offset decode, one (dx, dy) pair at a time.

    (sigmoid(raw) - 0.5) * h_scale per axis: the offsets `decode_boxes`
    adds to each cell's anchor. raw is a (dx, dy) pair of scalars or of
    arrays; so is the result.
    """
    return (
        (sigmoid(raw[0]) - 0.5) * h_scale,
        (sigmoid(raw[1]) - 0.5) * h_scale,
    )


def decode_offset_sigmoid(raw):
    """Plain offset decode: sigmoid squashes each component into (0, 1).

    raw is a (dx, dy) pair of scalars or of arrays; so is the result.
    """
    return (sigmoid(raw[0]), sigmoid(raw[1]))
