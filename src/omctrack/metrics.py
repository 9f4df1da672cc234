"""CLEAR MOT metrics (MOTA, FP, FN, IDSW), IDF1 and MT/ML.

The per-frame correspondence protocol: matches surviving from earlier
frames are kept whenever their pair still overlaps at or above the IOU
gate, then the remaining boxes are matched by exact optimal assignment
(maximizing matches first, then total IOU). An identity switch is counted
whenever a ground-truth track forms a correspondence with a different
prediction id than its last known one. IDF1 is computed over a globally
optimal one-to-one identity correspondence instead.

Each frame is scored on one `row_iou` matrix of its ground-truth boxes
against its predictions, read off the tracker's IOU kernel in `detection`.

Every metric takes an IOU gate in (0, 1] and raises ValueError for any
other (NaN included): a gate of 0 would match boxes that do not overlap.
All metrics are invariant under consistent relabeling of prediction ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .detection import _edge_iou
from .frame_io import MotBox

__all__ = [
    "EvalReport",
    "row_iou",
    "clear_mot",
    "idf1",
    "mt_ml",
    "evaluate",
]

DEFAULT_GATE_IOU = 0.5

# Cost assigned to sub-gate pairs so the assignment prefers any number of
# valid matches over one forced invalid pair.
_DISALLOWED = 1e6


def _assign(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a minimum-cost assignment over a cost matrix.

    scipy is imported here, on first use, so that importing omctrack (and
    tracking) does not load it; only evaluation does.
    """
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)


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


def row_iou(a: list[MotBox], b: list[MotBox]) -> np.ndarray:
    """(len(a), len(b)) IOU matrix of top-left/size pixel rows, in [0, 1]."""
    return _edge_iou(_row_edges(a), _row_edges(b))


def _row_edges(rows: list[MotBox]) -> np.ndarray:
    x, y, w, h = np.array([(r.x, r.y, r.w, r.h) for r in rows],
                          dtype=np.float64).reshape(-1, 4).T
    return np.stack([x, y, x + w, y + h, w * h])


def _by_frame(boxes: Iterable[MotBox]) -> dict[int, list[MotBox]]:
    frames: dict[int, list[MotBox]] = {}
    for b in boxes:
        frames.setdefault(b.frame, []).append(b)
    return frames


def _check_gate(iou_thr: float) -> float:
    """iou_thr, or ValueError unless 0 < iou_thr <= 1 (NaN too).

    A gate of 0 or below matches every pair of boxes, however far apart.
    """
    if not 0.0 < iou_thr <= 1.0:
        raise ValueError(f"IOU gate must lie in (0, 1], got {iou_thr}")
    return iou_thr


def _protocol(gt: list[MotBox], pred: list[MotBox], iou_thr: float):
    """Run the frame-by-frame correspondence protocol.

    Returns (fp, fn, idsw, gt_total, matched_frames) where matched_frames
    maps each gt id to the number of frames it held a correspondence.
    """
    _check_gate(iou_thr)
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
        gids, pids = sorted(gid_box), sorted(pid_box)
        col = {pid: j for j, pid in enumerate(pids)}
        overlap = row_iou([gid_box[g] for g in gids], [pid_box[p] for p in pids])

        corr: dict[int, int] = {}
        used_pids: set[int] = set()
        # Keep surviving correspondences first.
        for i, gid in enumerate(gids):
            pid = last_match.get(gid)
            if pid is None or pid in used_pids or pid not in col:
                continue
            if overlap[i, col[pid]] >= iou_thr:
                corr[gid] = pid
                used_pids.add(pid)

        # Optimal assignment for whatever is left.
        rest_i = [i for i, gid in enumerate(gids) if gid not in corr]
        rest_j = [j for j, pid in enumerate(pids) if pid not in used_pids]
        if rest_i and rest_j:
            ov = overlap[np.ix_(rest_i, rest_j)]
            cost = np.where(ov >= iou_thr, 1.0 - ov, _DISALLOWED)
            rows, cols = _assign(cost)
            for i, j in zip(rows, cols):
                if cost[i, j] >= _DISALLOWED:
                    continue
                gid, pid = gids[rest_i[i]], pids[rest_j[j]]
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
    _check_gate(iou_thr)
    if not gt:
        raise ValueError("ground truth is empty; IDF1 is undefined")
    if not pred:
        return 0.0
    gt_ids = sorted({b.id for b in gt})
    pred_ids = sorted({b.id for b in pred})
    g_index = {gid: i for i, gid in enumerate(gt_ids)}
    p_index = {pid: j for j, pid in enumerate(pred_ids)}

    cooc = np.zeros((len(gt_ids), len(pred_ids)))
    pred_frames = _by_frame(pred)
    for f, g_boxes in _by_frame(gt).items():
        p_boxes = pred_frames.get(f, [])
        hit_g, hit_p = np.nonzero(row_iou(g_boxes, p_boxes) >= iou_thr)
        g_cols = np.array([g_index[b.id] for b in g_boxes], dtype=np.intp)
        p_cols = np.array([p_index[b.id] for b in p_boxes], dtype=np.intp)
        np.add.at(cooc, (g_cols[hit_g], p_cols[hit_p]), 1)

    rows, cols = _assign(-cooc)
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
