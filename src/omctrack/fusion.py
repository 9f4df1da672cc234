"""IOU-vote fusion of transductive detections into the detector's output.

A transductive box earns a targetness score of 1 minus its best IOU against
the basic detections, read off one `iou` matrix; scores at or above the
threshold mean "the detector has nothing here", so the box is kept as a
restored complement. The fused set therefore always contains every basic
detection, and every restored box overlaps the basic set by at most
1 - epsilon.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .detection import Boxes, iou

__all__ = ["targetness_score", "fuse"]


def targetness_score(boxes: Boxes, d_base: Boxes) -> np.ndarray:
    """Per box, 1 - max IOU against the basic detections; 1.0 when there are none."""
    if not len(d_base):
        return np.ones(len(boxes))
    return 1.0 - iou(boxes, d_base).max(axis=1)


def fuse(d_trans: Boxes, d_base: Boxes, epsilon: float) -> Boxes:
    """Basic detections plus transductive boxes voted in by targetness.

    A tie at exactly epsilon counts as restored. Restored boxes carry the
    restored flag so downstream consumers can count them.
    """
    voted = d_trans[targetness_score(d_trans, d_base) >= epsilon]
    return d_base.concat(replace(voted, restored=np.ones(len(voted), dtype=bool)))
