import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omctrack.frame_io import MotBox
from omctrack.metrics import clear_mot, evaluate, idf1, mot_iou, mt_ml


def row(frame, tid, x, y=0.0, w=10.0, h=10.0, conf=1.0):
    return MotBox(frame=frame, id=tid, x=float(x), y=float(y), w=w, h=h, conf=conf)


def toy_swap_sequence():
    """Two static targets over 5 frames; prediction ids swap at frame 3.

    Hand-walked protocol: frames 1-2 map gt1->p1, gt2->p2. At frame 3 both
    carried correspondences fail the gate (the boxes moved to the other
    identity), the optimal rematch pairs gt1->p2 and gt2->p1, and both
    differ from the last known mapping: 2 switches. Frames 4-5 keep the new
    mapping. FP = FN = 0, 10 gt boxes, so MOTA = 1 - 2/10 = 0.8.
    """
    gt, pred = [], []
    for f in range(1, 6):
        gt.append(row(f, 1, x=0))
        gt.append(row(f, 2, x=100))
        if f <= 2:
            pred.append(row(f, 1, x=0))
            pred.append(row(f, 2, x=100))
        else:
            pred.append(row(f, 2, x=0))
            pred.append(row(f, 1, x=100))
    return gt, pred


def idf1_bijection_oracle(gt, pred, iou_thr=0.5):
    """Exhaustive search over all one-to-one id correspondences."""
    gt_ids = sorted({b.id for b in gt})
    pred_ids = sorted({b.id for b in pred})
    frames = {}
    for b in gt:
        frames.setdefault(b.frame, ([], []))[0].append(b)
    for b in pred:
        frames.setdefault(b.frame, ([], []))[1].append(b)
    cooc = {}
    for g_boxes, p_boxes in frames.values():
        for g in g_boxes:
            for p in p_boxes:
                if mot_iou(g, p) >= iou_thr:
                    cooc[(g.id, p.id)] = cooc.get((g.id, p.id), 0) + 1
    best = 0
    k = min(len(gt_ids), len(pred_ids))
    for chosen_gt in itertools.permutations(gt_ids, k):
        for chosen_pred in itertools.permutations(pred_ids, k):
            total = sum(
                cooc.get((g, p), 0) for g, p in zip(chosen_gt, chosen_pred)
            )
            best = max(best, total)
    return 2.0 * best / (len(gt) + len(pred))


class TestClearMot:
    def test_perfect_tracking(self):
        gt, _ = toy_swap_sequence()
        fp, fn, idsw, mota = clear_mot(gt, list(gt))
        assert (fp, fn, idsw, mota) == (0, 0, 0, 1.0)

    def test_empty_predictions(self):
        gt, _ = toy_swap_sequence()
        fp, fn, idsw, mota = clear_mot(gt, [])
        assert (fp, fn, idsw) == (0, len(gt), 0)
        assert mota == 0.0

    def test_toy_swap_hand_values(self):
        gt, pred = toy_swap_sequence()
        fp, fn, idsw, mota = clear_mot(gt, pred)
        assert (fp, fn, idsw) == (0, 0, 2)
        assert abs(mota - 0.8) < 1e-12

    def test_pure_false_positives(self):
        gt, _ = toy_swap_sequence()
        pred = list(gt) + [row(f, 9, x=500) for f in range(1, 6)]
        fp, fn, idsw, mota = clear_mot(gt, pred)
        assert (fp, fn, idsw) == (5, 0, 0)
        assert abs(mota - 0.5) < 1e-12

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            clear_mot([], [row(1, 1, x=0)])

    def test_correspondence_inertia(self):
        # two predictions both overlap the single gt; the one matched first
        # is kept even when the other has slightly higher IOU later
        gt = [row(f, 1, x=0) for f in range(1, 4)]
        pred = [row(1, 7, x=1)]
        pred += [row(f, 7, x=2) for f in range(2, 4)]
        pred += [row(f, 8, x=0.5) for f in range(2, 4)]
        fp, fn, idsw, _ = clear_mot(gt, pred)
        assert idsw == 0
        assert fp == 2  # id 8 never acquires the target

    def test_reappearance_with_new_id_counts_switch(self):
        gt = [row(f, 1, x=0) for f in (1, 2, 5, 6)]
        pred = [row(f, 4, x=0) for f in (1, 2)] + [row(f, 5, x=0) for f in (5, 6)]
        _, _, idsw, _ = clear_mot(gt, pred)
        assert idsw == 1


class TestIdf1:
    def test_perfect(self):
        gt, _ = toy_swap_sequence()
        assert idf1(gt, list(gt)) == 1.0

    def test_empty_pred(self):
        gt, _ = toy_swap_sequence()
        assert idf1(gt, []) == 0.0

    def test_toy_swap_matches_bijection_oracle(self):
        gt, pred = toy_swap_sequence()
        value = idf1(gt, pred)
        assert abs(value - idf1_bijection_oracle(gt, pred)) < 1e-12
        assert abs(value - 0.6) < 1e-12

    def test_random_small_instances_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            gt, pred = [], []
            for f in range(1, 7):
                for gid in range(1, int(rng.integers(2, 5))):
                    gt.append(row(f, gid, x=40 * gid + rng.uniform(-1, 1)))
                for pid in range(1, int(rng.integers(2, 5))):
                    slot = int(rng.integers(1, 5))
                    pred.append(row(f, pid, x=40 * slot + rng.uniform(-1, 1)))
            got = idf1(gt, pred)
            want = idf1_bijection_oracle(gt, pred)
            assert abs(got - want) < 1e-12


class TestMtMl:
    def test_fully_tracked(self):
        gt, _ = toy_swap_sequence()
        assert mt_ml(gt, list(gt)) == (1.0, 0.0)

    def test_empty_pred(self):
        gt, _ = toy_swap_sequence()
        assert mt_ml(gt, []) == (0.0, 1.0)

    def test_half_coverage_counts_neither(self):
        gt = [row(f, 1, x=0) for f in range(1, 11)]
        pred = [row(f, 1, x=0) for f in range(1, 6)]
        mt, ml = mt_ml(gt, pred)
        assert (mt, ml) == (0.0, 0.0)

    def test_boundaries_inclusive(self):
        gt = [row(f, 1, x=0) for f in range(1, 11)]
        pred8 = [row(f, 1, x=0) for f in range(1, 9)]     # exactly 80%
        assert mt_ml(gt, pred8)[0] == 1.0
        pred2 = [row(f, 1, x=0) for f in range(1, 3)]     # exactly 20%
        assert mt_ml(gt, pred2)[1] == 1.0


# Small worlds: few frames, ids and positions, so boxes overlap, gate and
# switch often. Each (frame, id) appears at most once.
mot_rows = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 4), st.sampled_from([0.0, 4.0, 40.0])),
    max_size=24,
    unique_by=lambda r: r[:2],
).map(lambda rs: [row(f, tid, x) for f, tid, x in rs])


class TestReportMtMl:
    @given(mot_rows.filter(bool), mot_rows)
    def test_evaluate_ratios_equal_mt_ml(self, gt, pred):
        report = evaluate(gt, pred)
        assert (report.mt_ratio, report.ml_ratio) == mt_ml(gt, pred)


class TestRelabelingInvariance:
    def test_all_metrics_invariant(self):
        gt, pred = toy_swap_sequence()
        relabeled = [
            MotBox(frame=b.frame, id=b.id + 700, x=b.x, y=b.y, w=b.w, h=b.h,
                   conf=b.conf)
            for b in pred
        ]
        assert clear_mot(gt, pred) == clear_mot(gt, relabeled)
        assert idf1(gt, pred) == idf1(gt, relabeled)
        assert mt_ml(gt, pred) == mt_ml(gt, relabeled)

    def test_report_assembles_consistent_fields(self):
        gt, pred = toy_swap_sequence()
        report = evaluate(gt, pred, restored_count=4)
        fp, fn, idsw, mota = clear_mot(gt, pred)
        assert (report.fp, report.fn, report.idsw) == (fp, fn, idsw)
        assert report.mota == mota
        assert report.gt_count == len(gt)
        assert report.restored_count == 4
        assert abs(report.mota - (1 - (fp + fn + idsw) / len(gt))) < 1e-12
