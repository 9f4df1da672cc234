import numpy as np

from omctrack.detection import Box, Boxes, iou
from omctrack.fusion import fuse, targetness_score


def box(cx, cy, w=2.0, h=2.0, score=1.0):
    return Box(cx=cx, cy=cy, w=w, h=h, score=score)


def score_one(b, base):
    (s,) = targetness_score(Boxes.of([b]), Boxes.of(base))
    return s


def fuse_lists(trans, base, epsilon):
    return list(fuse(Boxes.of(trans), Boxes.of(base), epsilon))


class TestTargetnessScore:
    def test_identical_box_scores_zero(self):
        b = box(3, 3)
        assert score_one(b, [b, box(10, 10)]) == 0.0

    def test_disjoint_scores_one(self):
        assert score_one(box(0, 0), [box(20, 20), box(30, 30)]) == 1.0

    def test_empty_base_scores_one(self):
        assert score_one(box(5, 5), []) == 1.0

    def test_hand_iou_value(self):
        # the 1/7 overlap geometry gives 6/7
        a = box(1.0, 1.0, 2.0, 2.0)
        b = box(2.0, 2.0, 2.0, 2.0)
        assert abs(score_one(a, [b]) - 6.0 / 7.0) < 1e-12


class TestFuse:
    def test_duplicates_excluded_at_default_epsilon(self):
        base = [box(3, 3), box(8, 8)]
        fused = fuse_lists(list(base), base, 0.5)
        assert fused == base

    def test_empty_base_keeps_all_transductive(self):
        trans = [box(1, 1), box(5, 5)]
        fused = fuse_lists(trans, [], 0.5)
        assert len(fused) == 2
        assert all(b.restored for b in fused)

    def test_epsilon_one_requires_strict_disjointness(self):
        base = [box(3.0, 3.0)]
        touching = box(5.0, 3.0)          # shares an edge, iou 0
        overlapping = box(4.0, 3.0)       # iou > 0
        fused = fuse_lists([touching, overlapping], base, 1.0)
        restored = [b for b in fused if b.restored]
        assert len(restored) == 1
        assert (restored[0].cx, restored[0].cy) == (5.0, 3.0)

    def test_superset_of_base(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            base = [box(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(4)]
            trans = [box(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(4)]
            fused = fuse_lists(trans, base, float(rng.uniform(0, 1)))
            for b in base:
                assert b in fused

    def test_restored_overlap_bounded_by_epsilon(self):
        rng = np.random.default_rng(1)
        eps = 0.6
        base = [box(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(5)]
        trans = [box(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(40)]
        fused = fuse_lists(trans, base, eps)
        for b in fused:
            if b.restored:
                assert iou(Boxes.of([b]), Boxes.of(base)).max() <= 1.0 - eps + 1e-12

    def test_tie_at_epsilon_counts_as_restored(self):
        base = [box(0.0, 0.0, 2.0, 2.0)]
        # overlap of exactly half the union: iou = 1/3 -> s = 2/3
        cand = box(1.0, 0.0, 2.0, 2.0)
        s = score_one(cand, base)
        fused = fuse_lists([cand], base, s)
        assert any(b.restored for b in fused)

    def test_size_non_increasing_in_epsilon(self):
        rng = np.random.default_rng(2)
        base = [box(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(4)]
        trans = [box(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(30)]
        sizes = [
            len(fuse_lists(trans, base, eps))
            for eps in np.linspace(0.0, 1.0, 11)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestGivenOverlap:
    """fuse and targetness_score read a caller's IOU matrix as they would compute it."""

    def test_same_arrays_as_computed(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            base = Boxes.of([box(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(4)])
            trans = Boxes.of([box(rng.uniform(0, 12), rng.uniform(0, 12), score=0.7)
                              for _ in range(12)])
            eps = float(rng.uniform(0, 1))
            want = fuse(trans, base, eps)
            got = fuse(trans, base, eps, iou(trans, base))
            for name in ("cx", "cy", "w", "h", "score", "restored"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert targetness_score(trans, base, iou(trans, base)).tobytes() == \
                targetness_score(trans, base).tobytes()

    def test_basic_boxes_keep_their_restored_flags(self):
        base = Boxes.of([Box(0.0, 0.0, 2.0, 2.0, 1.0, restored=True), box(9, 9)])
        fused = fuse(Boxes.of([box(4, 4)]), base, 0.5)
        assert fused.restored.tolist() == [True, False, True]
