"""IOU-vote fusion of transductive detections into the detector's output.

A transductive box earns a targetness score of 1 minus its best IOU against
the basic detections, read off one IOU matrix: the trans x base slice of
the tracker's per-frame table when it holds one, else one `iou` call.
Scores at or above the threshold mean "the detector has nothing here", so
the box is kept as a restored complement. The fused set therefore always
contains every basic detection, and every restored box overlaps the basic
set by at most 1 - epsilon.
"""

from __future__ import annotations

import numpy as np

from .detection import Boxes, iou

__all__ = ["targetness_score", "fuse"]


def targetness_score(
    boxes: Boxes, d_base: Boxes, overlap: np.ndarray | None = None
) -> np.ndarray:
    """Per box, 1 - max IOU against the basic detections; 1.0 when there are none.

    overlap is iou(boxes, d_base) when the caller already holds it.
    """
    if not len(d_base):
        return np.ones(len(boxes))
    if overlap is None:
        overlap = iou(boxes, d_base)
    return 1.0 - overlap.max(axis=1)


def fuse(
    d_trans: Boxes, d_base: Boxes, epsilon: float, overlap: np.ndarray | None = None
) -> Boxes:
    """Basic detections plus transductive boxes voted in by targetness.

    A tie at exactly epsilon counts as restored. Restored boxes carry the
    restored flag so downstream consumers can count them. overlap is
    iou(d_trans, d_base) when the caller already holds it. The fused set
    is built in one `Boxes`: the basic boxes, then the voted ones.
    """
    voted = np.flatnonzero(targetness_score(d_trans, d_base, overlap) >= epsilon)
    restored = np.ones(len(d_base) + len(voted), dtype=bool)
    restored[:len(d_base)] = d_base.restored
    fields = zip(d_base._columns()[:-1], d_trans._columns()[:-1])
    return Boxes(*(np.concatenate((base, trans[voted])) for base, trans in fields),
                 restored=restored)
