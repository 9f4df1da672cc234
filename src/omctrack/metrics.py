"""CLEAR MOT metrics (MOTA, FP, FN, IDSW), IDF1 and MT/ML.

The per-frame correspondence protocol: matches surviving from earlier
frames are kept whenever their pair still overlaps at or above the IOU
gate, then the remaining boxes are matched by exact optimal assignment
(maximizing matches first, then total IOU). An identity switch is counted
whenever a ground-truth track forms a correspondence with a different
prediction id than its last known one. IDF1 is computed over a globally
optimal one-to-one identity correspondence instead.

All metrics are invariant under consistent relabeling of prediction ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .frame_io import MotBox

__all__ = [
    "EvalReport",
    "mot_iou",
    "clear_mot",
    "idf1",
    "mt_ml",
    "evaluate",
]

DEFAULT_GATE_IOU = 0.5

# Cost assigned to sub-gate pairs so the assignment prefers any number of
# valid matches over one forced invalid pair.
_DISALLOWED = 1e6


@dataclass
class EvalReport:
    """Aggregate tracking quality for one (gt, prediction) pair."""

    mota: float
    idf1: float
    mt_ratio: float
    ml_ratio: float
    fp: int
    fn: int
    idsw: int
    gt_count: int
    restored_count: int = 0

    CSV_HEADER = "mota,idf1,mt,ml,fp,fn,idsw,gt,restored"

    def csv_row(self) -> str:
        return (
            f"{self.mota:.6f},{self.idf1:.6f},{self.mt_ratio:.6f},"
            f"{self.ml_ratio:.6f},{self.fp},{self.fn},{self.idsw},"
            f"{self.gt_count},{self.restored_count}"
        )

    def pretty(self) -> str:
        lines = [
            ("MOTA", f"{self.mota:8.4f}"),
            ("IDF1", f"{self.idf1:8.4f}"),
            ("MT", f"{self.mt_ratio:8.4f}"),
            ("ML", f"{self.ml_ratio:8.4f}"),
            ("FP", f"{self.fp:8d}"),
            ("FN", f"{self.fn:8d}"),
            ("IDSW", f"{self.idsw:8d}"),
            ("GT", f"{self.gt_count:8d}"),
            ("Restored", f"{self.restored_count:8d}"),
        ]
        return "\n".join(f"{name:<9}{value}" for name, value in lines)


def mot_iou(a: MotBox, b: MotBox) -> float:
    """IOU of two top-left/size pixel boxes, in [0, 1]."""
    ix1 = max(a.x, b.x)
    iy1 = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _by_frame(boxes: Iterable[MotBox]) -> dict[int, list[MotBox]]:
    frames: dict[int, list[MotBox]] = {}
    for b in boxes:
        frames.setdefault(b.frame, []).append(b)
    return frames


def _protocol(gt: list[MotBox], pred: list[MotBox], iou_thr: float):
    """Run the frame-by-frame correspondence protocol.

    Returns (fp, fn, idsw, gt_total, matched_frames) where matched_frames
    maps each gt id to the number of frames it held a correspondence.
    """
    if not gt:
        raise ValueError("ground truth is empty; MOTA is undefined")
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))

    last_match: dict[int, int] = {}
    fp = fn = idsw = gt_total = 0
    matched_frames: dict[int, int] = {}

    for f in frames:
        g_boxes = gt_frames.get(f, [])
        p_boxes = pred_frames.get(f, [])
        gid_box = {b.id: b for b in g_boxes}
        pid_box = {b.id: b for b in p_boxes}

        corr: dict[int, int] = {}
        used_pids: set[int] = set()
        # Keep surviving correspondences first.
        for gid in sorted(gid_box):
            pid = last_match.get(gid)
            if pid is None or pid in used_pids or pid not in pid_box:
                continue
            if mot_iou(gid_box[gid], pid_box[pid]) >= iou_thr:
                corr[gid] = pid
                used_pids.add(pid)

        # Optimal assignment for whatever is left.
        rest_g = [gid for gid in sorted(gid_box) if gid not in corr]
        rest_p = [pid for pid in sorted(pid_box) if pid not in used_pids]
        if rest_g and rest_p:
            cost = np.full((len(rest_g), len(rest_p)), _DISALLOWED)
            for i, gid in enumerate(rest_g):
                for j, pid in enumerate(rest_p):
                    ov = mot_iou(gid_box[gid], pid_box[pid])
                    if ov >= iou_thr:
                        cost[i, j] = 1.0 - ov
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if cost[i, j] >= _DISALLOWED:
                    continue
                gid, pid = rest_g[i], rest_p[j]
                prev = last_match.get(gid)
                if prev is not None and prev != pid:
                    idsw += 1
                corr[gid] = pid
                used_pids.add(pid)

        last_match.update(corr)
        for gid in corr:
            matched_frames[gid] = matched_frames.get(gid, 0) + 1
        fp += len(p_boxes) - len(corr)
        fn += len(g_boxes) - len(corr)
        gt_total += len(g_boxes)

    return fp, fn, idsw, gt_total, matched_frames


def clear_mot(
    gt: list[MotBox],
    pred: list[MotBox],
    iou_thr: float = DEFAULT_GATE_IOU,
) -> tuple[int, int, int, float]:
    """Return (fp, fn, idsw, mota) for a sequence."""
    fp, fn, idsw, gt_total, _ = _protocol(gt, pred, iou_thr)
    mota = 1.0 - (fp + fn + idsw) / gt_total
    return fp, fn, idsw, mota


def idf1(
    gt: list[MotBox],
    pred: list[MotBox],
    iou_thr: float = DEFAULT_GATE_IOU,
) -> float:
    """Identity F1 over the optimal global gt-id/pred-id correspondence.

    The co-occurrence matrix counts, per id pair, the frames in which their
    boxes overlap at or above the gate; an exact assignment maximizes the
    total (IDTP) and the score is 2*IDTP / (2*IDTP + IDFP + IDFN).
    """
    if not gt:
        raise ValueError("ground truth is empty; IDF1 is undefined")
    if not pred:
        return 0.0
    gt_ids = sorted({b.id for b in gt})
    pred_ids = sorted({b.id for b in pred})
    g_index = {gid: i for i, gid in enumerate(gt_ids)}
    p_index = {pid: j for j, pid in enumerate(pred_ids)}

    cooc = np.zeros((len(gt_ids), len(pred_ids)))
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    for f, g_boxes in gt_frames.items():
        for gb in g_boxes:
            for pb in pred_frames.get(f, []):
                if mot_iou(gb, pb) >= iou_thr:
                    cooc[g_index[gb.id], p_index[pb.id]] += 1

    rows, cols = linear_sum_assignment(-cooc)
    idtp = float(cooc[rows, cols].sum())
    idfp = len(pred) - idtp
    idfn = len(gt) - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


def _mt_ml_ratios(gt: list[MotBox], matched_frames: dict[int, int]) -> tuple[float, float]:
    """(mostly-tracked, mostly-lost) ratios from _protocol's matched frames."""
    lifespan: dict[int, int] = {}
    for b in gt:
        lifespan[b.id] = lifespan.get(b.id, 0) + 1
    coverage = [matched_frames.get(gid, 0) / n for gid, n in lifespan.items()]
    mt = sum(1 for c in coverage if c >= 0.8)
    ml = sum(1 for c in coverage if c <= 0.2)
    return mt / len(lifespan), ml / len(lifespan)


def mt_ml(
    gt: list[MotBox],
    pred: list[MotBox],
    iou_thr: float = DEFAULT_GATE_IOU,
) -> tuple[float, float]:
    """(mostly-tracked ratio, mostly-lost ratio) over ground-truth ids.

    Coverage of an id is the fraction of its frames holding a
    correspondence; >= 0.8 counts as mostly tracked, <= 0.2 as mostly lost.
    """
    _, _, _, _, matched_frames = _protocol(gt, pred, iou_thr)
    return _mt_ml_ratios(gt, matched_frames)


def evaluate(
    gt: list[MotBox],
    pred: list[MotBox],
    iou_thr: float = DEFAULT_GATE_IOU,
    restored_count: int = 0,
) -> EvalReport:
    """Full report over one sequence pair."""
    fp, fn, idsw, gt_total, matched_frames = _protocol(gt, pred, iou_thr)
    mota = 1.0 - (fp + fn + idsw) / gt_total
    mt_ratio, ml_ratio = _mt_ml_ratios(gt, matched_frames)
    return EvalReport(
        mota=mota,
        idf1=idf1(gt, pred, iou_thr),
        mt_ratio=mt_ratio,
        ml_ratio=ml_ratio,
        fp=fp,
        fn=fn,
        idsw=idsw,
        gt_count=gt_total,
        restored_count=restored_count,
    )
