"""CLEAR MOT metrics (MOTA, FP, FN, IDSW), IDF1 and MT/ML.

The per-frame correspondence protocol: matches surviving from earlier
frames are kept whenever their pair still overlaps at or above the IOU
gate, then the remaining boxes are matched by exact optimal assignment
(maximizing matches first, then total IOU). An identity switch is counted
whenever a ground-truth track forms a correspondence with a different
prediction id than its last known one. IDF1 is computed over a globally
optimal one-to-one identity correspondence instead.

The protocol is the one walk over a sequence. Each frame is scored on one
`row_iou` matrix of its ground-truth boxes against its predictions, read
off the tracker's IOU kernel in `detection`, and IDF1 is scored in the same
walk, from the same per-frame overlaps at the same gate: the walk counts
the frames in which each (gt id, pred id) pair overlaps.

`evaluate` is the one scorer: one walk gives every figure of its report.
It takes an IOU gate in (0, 1] and raises ValueError for any other (NaN
included): a gate of 0 would match boxes that do not overlap. It also
raises ValueError when the ground truth is empty, or when the ground truth
or the predictions hold one (frame, id) pair twice, naming the input, the
frame and the id. Every figure is invariant under consistent relabeling of
prediction ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .detection import _edge_iou
from .frame_io import MotBox

__all__ = [
    "EvalReport",
    "row_iou",
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


def _check_inputs(gt: list[MotBox], pred: list[MotBox], iou_thr: float) -> None:
    """ValueError unless the gate holds, gt has rows and no (frame, id) repeats.

    Each frame's rows are scored by id, so a repeated pair would be scored
    as one box but counted as two, and the score would hang on row order.
    The error names the input, the frame and the id of the first repeat.
    """
    _check_gate(iou_thr)
    if not gt:
        raise ValueError("ground truth is empty; the metrics are undefined")
    for rows, what in ((gt, "ground truth"), (pred, "predictions")):
        seen: set[tuple[int, int]] = set()
        for r in rows:
            if (r.frame, r.id) in seen:
                raise ValueError(f"{what}: frame {r.frame} holds id {r.id} more than once")
            seen.add((r.frame, r.id))


def _protocol(gt: list[MotBox], pred: list[MotBox], iou_thr: float):
    """Run the frame-by-frame correspondence protocol, the one walk over a sequence.

    Returns (fp, fn, idsw, gt_total, matched_frames, pair_frames) where
    matched_frames maps each gt id to the number of frames it held a
    correspondence, and pair_frames each (gt id, pred id) pair to the
    number of frames their boxes overlap at or above the gate, IDF1's
    co-occurrence counts. A (frame, id) pair repeated in gt or pred raises
    ValueError.
    """
    _check_inputs(gt, pred, iou_thr)
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))

    last_match: dict[int, int] = {}
    fp = fn = idsw = gt_total = 0
    matched_frames: dict[int, int] = {}
    pair_frames: Counter[tuple[int, int]] = Counter()

    for f in frames:
        g_boxes = gt_frames.get(f, [])
        p_boxes = pred_frames.get(f, [])
        gid_box = {b.id: b for b in g_boxes}
        pid_box = {b.id: b for b in p_boxes}
        gids, pids = sorted(gid_box), sorted(pid_box)
        col = {pid: j for j, pid in enumerate(pids)}
        overlap = row_iou([gid_box[g] for g in gids], [pid_box[p] for p in pids])
        gated = overlap >= iou_thr
        pair_frames.update((gids[i], pids[j]) for i, j in zip(*np.nonzero(gated)))

        corr: dict[int, int] = {}
        used_pids: set[int] = set()
        # Keep surviving correspondences first.
        for i, gid in enumerate(gids):
            pid = last_match.get(gid)
            if pid is None or pid in used_pids or pid not in col:
                continue
            if gated[i, col[pid]]:
                corr[gid] = pid
                used_pids.add(pid)

        # Optimal assignment for whatever is left.
        rest_i = [i for i, gid in enumerate(gids) if gid not in corr]
        rest_j = [j for j, pid in enumerate(pids) if pid not in used_pids]
        if rest_i and rest_j:
            rest = np.ix_(rest_i, rest_j)
            cost = np.where(gated[rest], 1.0 - overlap[rest], _DISALLOWED)
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

    return fp, fn, idsw, gt_total, matched_frames, pair_frames


def _idf1_score(pair_frames: Counter[tuple[int, int]], gt_rows: int, pred_rows: int) -> float:
    """IDF1 from _protocol's co-occurrence counts and the two row counts.

    Ids that overlap nothing would add only a zero row or column to the
    co-occurrence matrix, which leaves the optimal total unchanged, so the
    matrix holds only the ids of some counted pair. 2*IDTP + IDFP + IDFN
    is the row count of gt and pred together.
    """
    g_index = {gid: i for i, gid in enumerate({gid for gid, _ in pair_frames})}
    p_index = {pid: j for j, pid in enumerate({pid for _, pid in pair_frames})}
    cooc = np.zeros((len(g_index), len(p_index)))
    for (gid, pid), n in pair_frames.items():
        cooc[g_index[gid], p_index[pid]] = n
    rows, cols = _assign(-cooc)
    idtp = float(cooc[rows, cols].sum())
    return 2.0 * idtp / (gt_rows + pred_rows)


def _mt_ml_ratios(gt: list[MotBox], matched_frames: dict[int, int]) -> tuple[float, float]:
    """(mostly-tracked, mostly-lost) ratios from _protocol's matched frames."""
    lifespan: dict[int, int] = {}
    for b in gt:
        lifespan[b.id] = lifespan.get(b.id, 0) + 1
    coverage = [matched_frames.get(gid, 0) / n for gid, n in lifespan.items()]
    mt = sum(1 for c in coverage if c >= 0.8)
    ml = sum(1 for c in coverage if c <= 0.2)
    return mt / len(lifespan), ml / len(lifespan)


def evaluate(
    gt: list[MotBox],
    pred: list[MotBox],
    iou_thr: float = DEFAULT_GATE_IOU,
    restored_count: int = 0,
) -> EvalReport:
    """Full report over one sequence pair, from one `_protocol` walk.

    MOTA is 1 - (FP + FN + IDSW) / GT. IDF1 is 2*IDTP / (2*IDTP + IDFP +
    IDFN) over the exact gt-id/pred-id assignment that maximizes IDTP, the
    frames in which paired ids overlap at or above the gate
    (`_idf1_score`). An id's coverage is the fraction of its frames holding
    a correspondence; >= 0.8 counts as mostly tracked, <= 0.2 as mostly
    lost (`_mt_ml_ratios`).
    """
    fp, fn, idsw, gt_total, matched_frames, pair_frames = _protocol(gt, pred, iou_thr)
    mota = 1.0 - (fp + fn + idsw) / gt_total
    mt_ratio, ml_ratio = _mt_ml_ratios(gt, matched_frames)
    return EvalReport(
        mota=mota,
        idf1=_idf1_score(pair_frames, len(gt), len(pred)),
        mt_ratio=mt_ratio,
        ml_ratio=ml_ratio,
        fp=fp,
        fn=fn,
        idsw=idsw,
        gt_count=gt_total,
        restored_count=restored_count,
    )
