import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.optimize import linear_sum_assignment

import omctrack
from omctrack import metrics
from omctrack.association import track_sequence
from omctrack.frame_io import (
    MotBox,
    iter_container,
    read_mot_boxes,
    write_container,
    write_mot_results,
)
from omctrack.metrics import EvalReport, clear_mot, evaluate, idf1, mt_ml, row_iou
from omctrack.synth import ScenarioConfig, generate


def mot_iou(a, b):
    """Reference IOU of two top-left/size pixel rows, one pair at a time."""
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


def protocol_oracle(gt, pred, iou_thr):
    """The correspondence protocol with one mot_iou call per pair."""
    gt_frames = metrics._by_frame(gt)
    pred_frames = metrics._by_frame(pred)
    last_match = {}
    fp = fn = idsw = gt_total = 0
    matched_frames = {}
    for f in sorted(set(gt_frames) | set(pred_frames)):
        g_boxes = gt_frames.get(f, [])
        p_boxes = pred_frames.get(f, [])
        gid_box = {b.id: b for b in g_boxes}
        pid_box = {b.id: b for b in p_boxes}
        corr, used_pids = {}, set()
        for gid in sorted(gid_box):
            pid = last_match.get(gid)
            if pid is None or pid in used_pids or pid not in pid_box:
                continue
            if mot_iou(gid_box[gid], pid_box[pid]) >= iou_thr:
                corr[gid] = pid
                used_pids.add(pid)
        rest_g = [gid for gid in sorted(gid_box) if gid not in corr]
        rest_p = [pid for pid in sorted(pid_box) if pid not in used_pids]
        if rest_g and rest_p:
            cost = np.full((len(rest_g), len(rest_p)), metrics._DISALLOWED)
            for i, gid in enumerate(rest_g):
                for j, pid in enumerate(rest_p):
                    ov = mot_iou(gid_box[gid], pid_box[pid])
                    if ov >= iou_thr:
                        cost[i, j] = 1.0 - ov
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if cost[i, j] >= metrics._DISALLOWED:
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


def idf1_oracle(gt, pred, iou_thr):
    """IDF1 with the co-occurrence counted one mot_iou call per pair."""
    if not pred:
        return 0.0
    g_index = {gid: i for i, gid in enumerate(sorted({b.id for b in gt}))}
    p_index = {pid: j for j, pid in enumerate(sorted({b.id for b in pred}))}
    cooc = np.zeros((len(g_index), len(p_index)))
    pred_frames = metrics._by_frame(pred)
    for f, g_boxes in metrics._by_frame(gt).items():
        for gb in g_boxes:
            for pb in pred_frames.get(f, []):
                if mot_iou(gb, pb) >= iou_thr:
                    cooc[g_index[gb.id], p_index[pb.id]] += 1
    rows, cols = linear_sum_assignment(-cooc)
    idtp = float(cooc[rows, cols].sum())
    return 2.0 * idtp / (2.0 * idtp + (len(pred) - idtp) + (len(gt) - idtp))


def evaluate_oracle(gt, pred, iou_thr=metrics.DEFAULT_GATE_IOU, restored_count=0):
    """`evaluate` assembled from the per-pair loop oracles."""
    fp, fn, idsw, gt_total, matched_frames = protocol_oracle(gt, pred, iou_thr)
    mt_ratio, ml_ratio = metrics._mt_ml_ratios(gt, matched_frames)
    return EvalReport(
        mota=1.0 - (fp + fn + idsw) / gt_total,
        idf1=idf1_oracle(gt, pred, iou_thr),
        mt_ratio=mt_ratio, ml_ratio=ml_ratio, fp=fp, fn=fn, idsw=idsw,
        gt_count=gt_total, restored_count=restored_count,
    )


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

    @pytest.mark.parametrize("gate", [0.0, -5.0, 1.5, math.nan])
    @pytest.mark.parametrize("metric", [clear_mot, mt_ml, idf1, evaluate])
    def test_gate_outside_unit_interval_rejected(self, metric, gate):
        # A prediction 500 px from its only gt box, which a gate of 0 would match.
        with pytest.raises(ValueError, match=r"IOU gate must lie in \(0, 1\]"):
            metric([row(1, 1, x=0)], [row(1, 1, x=500)], iou_thr=gate)

    def test_gate_of_one_matches_equal_boxes_only(self):
        gt = [row(1, 1, x=0)]
        assert clear_mot(gt, [row(1, 1, x=0)], iou_thr=1.0)[:3] == (0, 0, 0)
        assert clear_mot(gt, [row(1, 1, x=1)], iou_thr=1.0)[:3] == (1, 1, 0)

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


# Rows whose boxes coincide, touch, or nest at an IOU of exactly 0.5 (a
# 5x10 box inside a 10x10 one). Each (frame, id) appears at most once: the
# metrics refuse a repeated one (TestRepeatedKeys).
loose_rows = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4),
              st.sampled_from([0.0, 2.5, 5.0, 40.0]), st.sampled_from([0.0, 5.0]),
              st.sampled_from([5.0, 10.0])),
    max_size=16,
    unique_by=lambda r: r[:2],
).map(lambda rs: [MotBox(f, tid, x, y, w, 10.0, 1.0) for f, tid, x, y, w in rs])

pixel = st.floats(min_value=-2e3, max_value=2e3, allow_nan=False)
extent = st.floats(min_value=0.0, max_value=2e3, allow_nan=False)
pixel_row = st.builds(MotBox, frame=st.just(1), id=st.just(1), x=pixel, y=pixel,
                      w=extent, h=extent, conf=st.just(1.0))


class TestRowIou:
    @given(st.lists(pixel_row, max_size=6), st.lists(pixel_row, max_size=6))
    def test_bit_identical_to_scalar_oracle(self, a, b):
        got = row_iou(a, b)
        want = np.array([[mot_iou(x, y) for y in b] for x in a],
                        dtype=np.float64).reshape(len(a), len(b))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(st.lists(pixel_row, min_size=1, max_size=6))
    def test_touching_and_nested_rows(self, rows):
        variants = []
        for r in rows:
            variants += [MotBox(1, 1, r.x, r.y, r.w / 2.0, r.h, 1.0),
                         MotBox(1, 1, r.x + r.w, r.y, r.w, r.h, 1.0)]
        got = row_iou(rows, variants)
        want = np.array([[mot_iou(x, y) for y in variants] for x in rows])
        assert got.tobytes() == want.tobytes()


class TestAgainstLoopOracles:
    @settings(max_examples=300)
    @given(loose_rows.filter(bool), loose_rows, st.sampled_from([0.3, 0.5, 0.6]))
    # A kept correspondence at exactly the gate beats a better newcomer.
    @example([row(1, 1, x=0), row(2, 1, x=0)],
             [row(1, 1, x=0, w=5.0), row(2, 1, x=0, w=5.0), row(2, 2, x=0)], 0.5)
    def test_evaluate_equals_loop_oracle(self, gt, pred, iou_thr):
        assert evaluate(gt, pred, iou_thr, 3) == evaluate_oracle(gt, pred, iou_thr, 3)


class TestRepeatedKeys:
    """A (frame, id) pair given twice is refused, whatever the row order."""

    # One gt box; id 7 twice in frame 1, at the box and 300 px away. Scored
    # by id alone, one row order would give MOTA -2.0 and the other 0.0.
    GT = [row(1, 1, x=0)]
    PRED = [row(1, 7, x=0), row(1, 7, x=300)]

    @pytest.mark.parametrize("order", [1, -1], ids=["near_first", "far_first"])
    @pytest.mark.parametrize("metric", [clear_mot, mt_ml, idf1, evaluate])
    def test_repeated_prediction_raises(self, metric, order):
        with pytest.raises(ValueError, match="^predictions: frame 1 holds id 7 more than once$"):
            metric(self.GT, self.PRED[::order])

    @pytest.mark.parametrize("metric", [clear_mot, mt_ml, idf1, evaluate])
    def test_repeated_ground_truth_raises(self, metric):
        gt = [row(1, 1, x=0), row(2, 1, x=0), row(2, 1, x=300)]
        with pytest.raises(ValueError, match="^ground truth: frame 2 holds id 1 more than once$"):
            metric(gt, [row(1, 1, x=0)])


class TestOneWalk:
    """One metrics call walks the sequence once: one input check, one
    `row_iou` matrix a frame, whichever metrics it reports."""

    @pytest.mark.parametrize("metric", [clear_mot, mt_ml, idf1, evaluate])
    def test_one_protocol_one_check_one_matrix_a_frame(self, metric, monkeypatch):
        gt, pred = toy_swap_sequence()
        calls = {"_protocol": 0, "_check_inputs": 0, "row_iou": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(metrics, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(metrics, name, counted)
        metric(gt, pred)
        frames = len({b.frame for b in gt + pred})
        assert calls == {"_protocol": 1, "_check_inputs": 1, "row_iou": frames}

    @pytest.mark.parametrize("metric", [clear_mot, mt_ml, idf1, evaluate])
    def test_empty_ground_truth_names_no_single_metric(self, metric):
        with pytest.raises(ValueError, match="^ground truth is empty; the metrics are undefined$"):
            metric([], [row(1, 1, x=0)])


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


NO_SCIPY_WHILE_TRACKING = """
import sys
import omctrack, omctrack.cli
from omctrack.association import Tracker
from omctrack.frame_io import iter_container, read_mot_boxes
from omctrack.metrics import evaluate

container, gt = sys.argv[1:]
tracker = Tracker()
rows = [row for frame in iter_container(container) for row in tracker.step(frame)]
assert rows
assert "scipy" not in sys.modules, "tracking loaded scipy"
print(evaluate(read_mot_boxes(gt), rows).csv_row())
assert "scipy" in sys.modules
"""


def test_tracking_never_loads_scipy_and_evaluation_does(tmp_path):
    # In a fresh interpreter: this one has loaded scipy already.
    frames, gt, _ = generate(ScenarioConfig(num_targets=2, height=8, width=8,
                                            frames=12, dropout_prob=0.3, seed=0))
    container, gt_path = tmp_path / "tiny.omcf", tmp_path / "gt.txt"
    write_container(frames, container)
    write_mot_results(gt, gt_path)
    src = str(Path(omctrack.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_WHILE_TRACKING, str(container), str(gt_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    rows, _ = track_sequence(iter_container(container))
    assert done.stdout.strip() == evaluate(read_mot_boxes(gt_path), rows).csv_row()
