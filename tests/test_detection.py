import math
import struct

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings, strategies as st

from omctrack import association, detection
from omctrack.association import Tracker
from omctrack.detection import (
    Box,
    Boxes,
    decode_boxes,
    decode_offset_bar,
    greedy_nms,
    iou,
)
from omctrack.frame_io import FrameContainer
from omctrack.numerics import FrameValueError

from oracles import decode_offset_sigmoid

LN3 = math.log(3.0)


def scalar_iou(a, b):
    """Reference IOU of two Box records, one pair at a time."""
    ax1, ay1 = a.cx - a.w / 2.0, a.cy - a.h / 2.0
    ax2, ay2 = a.cx + a.w / 2.0, a.cy + a.h / 2.0
    bx1, by1 = b.cx - b.w / 2.0, b.cy - b.h / 2.0
    bx2, by2 = b.cx + b.w / 2.0, b.cy + b.h / 2.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def pair_iou(a, b):
    return float(iou(Boxes.of([a]), Boxes.of([b]))[0, 0])


def nms_oracle(boxes, score_thr, iou_thr):
    """Mark-and-sweep reference NMS, quadratic and order-explicit."""
    order = sorted(
        (k for k, b in enumerate(boxes) if b.score >= score_thr),
        key=lambda k: (-boxes[k].score, k),
    )
    suppressed = set()
    keep = []
    for pos, k in enumerate(order):
        if k in suppressed:
            continue
        keep.append(boxes[k])
        for other in order[pos + 1:]:
            if other not in suppressed and scalar_iou(boxes[k], boxes[other]) > iou_thr:
                suppressed.add(other)
    return keep


def random_boxes(rng, n):
    return [
        Box(
            cx=float(rng.uniform(0, 20)),
            cy=float(rng.uniform(0, 20)),
            w=float(rng.uniform(0.5, 6)),
            h=float(rng.uniform(0.5, 6)),
            score=float(rng.uniform(0, 1)),
        )
        for _ in range(n)
    ]


coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
odd_size = st.one_of(st.sampled_from([0.0, -1.0, math.inf, 1.0, 2.0]),
                     st.floats(min_value=0.0, max_value=8.0))
tied_score = st.sampled_from([0.0, 0.3, 0.5, 0.5, 0.9, 0.9, 1.0])


class TestOffsetDecoders:
    def test_sigmoid_zero(self):
        assert decode_offset_sigmoid((0.0, 0.0)) == (0.5, 0.5)

    def test_sigmoid_saturation_never_exceeds_one(self):
        dx, dy = decode_offset_sigmoid((80.0, 80.0))
        assert dx <= 1.0 and dy <= 1.0
        assert dx > 0.999999

    def test_sigmoid_log3(self):
        dx, dy = decode_offset_sigmoid((LN3, 0.0))
        assert abs(dx - 0.75) < 1e-12 and dy == 0.5

    def test_sigmoid_strictly_inside_for_moderate_raw(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = tuple(rng.uniform(-12, 12, size=2))
            dx, dy = decode_offset_sigmoid(raw)
            assert 0.0 < dx < 1.0 and 0.0 < dy < 1.0

    def test_bar_zero_is_exact(self):
        assert decode_offset_bar((0.0, 0.0), 10.0) == (0.0, 0.0)

    def test_bar_range_bound(self):
        h_scale = 10.0
        rng = np.random.default_rng(1)
        for _ in range(200):
            raw = tuple(rng.uniform(-30, 30, size=2))
            dx, dy = decode_offset_bar(raw, h_scale)
            assert abs(dx) < 5.0 and abs(dy) < 5.0
        # extreme raws saturate at the bound but never cross it
        dx, dy = decode_offset_bar((1e4, -1e4), h_scale)
        assert abs(dx) <= 5.0 and abs(dy) <= 5.0

    def test_bar_log3(self):
        dx, dy = decode_offset_bar((LN3, LN3), 10.0)
        assert abs(dx - 2.5) < 1e-9 and abs(dy - 2.5) < 1e-9


class TestRepresentableRange:
    def test_bar_inverts_analytically(self):
        # Any offset below h/2 decodes back with tiny error from its
        # analytic raw value.
        h_scale = 10.0
        for d in np.linspace(-4.9, 4.9, 23):
            u = d / h_scale + 0.5
            raw = math.log(u) - math.log1p(-u)
            dx, _ = decode_offset_bar((raw, 0.0), h_scale)
            assert abs(dx - d) < 1e-3

    def test_sigmoid_irreducible_error_beyond_one_cell(self):
        # Whatever raw value is used, a true offset d > 1 keeps at least
        # d - 1 of error in sigmoid mode.
        for d in (1.5, 2.0, 3.0):
            best = min(
                abs(d - decode_offset_sigmoid((raw, 0.0))[0])
                for raw in np.linspace(-50, 50, 2001)
            )
            assert best >= d - 1.0 - 1e-9


class TestDecodeBoxes:
    def test_zero_raw_bar_mode(self):
        h, w = 4, 5
        prob = np.zeros((h, w, 1), dtype=np.float32)
        prob[2, 3, 0] = 0.7
        raw = np.zeros((h, w, 4), dtype=np.float32)
        boxes = decode_boxes(prob, raw)
        box = boxes[2 * w + 3]
        assert (box.cx, box.cy) == (3.5, 2.5)
        assert (box.w, box.h) == (1.0, 1.0)
        assert abs(box.score - 0.7) < 1e-6

    def test_log_width(self):
        prob = np.ones((1, 1, 1), dtype=np.float32)
        raw = np.zeros((1, 1, 4), dtype=np.float32)
        raw[0, 0, 2] = math.log(4.0)
        (box,) = decode_boxes(prob, raw)
        assert abs(box.w - 4.0) < 1e-5

    def test_bar_mode_reaches_past_anchor_cell(self):
        prob = np.ones((1, 1, 1), dtype=np.float32)
        raw = np.zeros((1, 1, 4), dtype=np.float32)
        raw[0, 0, 0] = 2.0
        (box,) = decode_boxes(prob, raw, 10.0)
        assert box.cx - 0.5 > 1.0

    @pytest.mark.parametrize("tensor", ["prob", "boxes"])
    def test_nan_rejected(self, tensor, caplog):
        prob = np.ones((2, 2, 1), dtype=np.float32)
        raw = np.zeros((2, 2, 4), dtype=np.float32)
        {"prob": prob, "boxes": raw}[tensor][0, 0, 0] = np.nan
        assert_frame_rejected(prob, raw, tensor, caplog)

    def test_row_major_order(self):
        prob = np.zeros((2, 3, 1), dtype=np.float32)
        raw = np.zeros((2, 3, 4), dtype=np.float32)
        boxes = decode_boxes(prob, raw)
        centers = [(b.cx, b.cy) for b in boxes]
        assert centers == [
            (0.5, 0.5), (1.5, 0.5), (2.5, 0.5),
            (0.5, 1.5), (1.5, 1.5), (2.5, 1.5),
        ]


class TestIou:
    def test_self(self):
        b = Box(cx=3, cy=4, w=2, h=5, score=1.0)
        assert pair_iou(b, b) == 1.0

    def test_disjoint(self):
        a = Box(cx=0, cy=0, w=2, h=2, score=1.0)
        b = Box(cx=10, cy=0, w=2, h=2, score=1.0)
        assert pair_iou(a, b) == 0.0

    def test_hand_geometry(self):
        # corners (0,0,2,2) vs (1,1,2,2) in x,y,w,h
        a = Box(cx=1.0, cy=1.0, w=2.0, h=2.0, score=1.0)
        b = Box(cx=2.0, cy=2.0, w=2.0, h=2.0, score=1.0)
        assert abs(pair_iou(a, b) - 1.0 / 7.0) < 1e-12

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_boxes(rng, 2)
            assert pair_iou(a, b) == pair_iou(b, a)
            assert 0.0 <= pair_iou(a, b) <= 1.0


def kept_boxes(boxes, score_thr, iou_thr, **kwargs):
    """greedy_nms's kept boxes as Box records, in the order it returns them."""
    packed = Boxes.of(boxes)
    return list(packed[greedy_nms(packed, score_thr, iou_thr, **kwargs)])


class TestGreedyNms:
    def test_single_box(self):
        b = Box(cx=1, cy=1, w=1, h=1, score=0.9)
        assert kept_boxes([b], 0.5, 0.45) == [b]

    def test_empty(self):
        assert kept_boxes([], 0.5, 0.45) == []

    def test_below_threshold_dropped(self):
        b = Box(cx=1, cy=1, w=1, h=1, score=0.4)
        assert kept_boxes([b], 0.5, 0.45) == []

    @pytest.mark.parametrize("block", [1, 7, detection.NMS_BLOCK])
    def test_matches_oracle_on_random_instances(self, monkeypatch, block):
        monkeypatch.setattr(detection, "NMS_BLOCK", block)
        rng = np.random.default_rng(4)
        for _ in range(20):
            boxes = random_boxes(rng, 50)
            got = kept_boxes(boxes, 0.3, 0.45)
            want = nms_oracle(boxes, 0.3, 0.45)
            assert got == want

    def test_output_properties(self):
        rng = np.random.default_rng(5)
        boxes = random_boxes(rng, 80)
        kept = kept_boxes(boxes, 0.2, 0.4)
        scores = [b.score for b in kept]
        assert scores == sorted(scores, reverse=True)
        for b in kept:
            assert b in boxes
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert pair_iou(a, b) <= 0.4


class TestNmsIndices:
    """greedy_nms returns indices into its input, and reads a caller's table."""

    def test_indices_are_intp_and_score_descending(self):
        boxes = Boxes.of(random_boxes(np.random.default_rng(7), 40))
        kept = greedy_nms(boxes, 0.3, 0.45)
        assert kept.dtype == np.intp
        assert len(set(kept.tolist())) == len(kept)
        assert (np.diff(boxes.score[kept]) <= 0).all()
        assert greedy_nms(Boxes.of([]), 0.5, 0.45).dtype == np.intp

    @pytest.mark.parametrize("block", [1, 7, detection.NMS_BLOCK])
    @settings(max_examples=60)
    @given(st.lists(st.builds(Box, cx=coord, cy=coord, w=odd_size, h=odd_size,
                              score=tied_score), max_size=24),
           st.sampled_from([0.0, 0.3, 0.5]), st.sampled_from([0.0, 0.45, 1.0]))
    def test_table_gives_the_computed_result(self, block, records, score_thr, iou_thr):
        # Zero, negative and infinite sizes make the IOU read 0 or NaN.
        boxes = Boxes.of(records)
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(detection, "NMS_BLOCK", block):
            table = iou(boxes, boxes)
            got = greedy_nms(boxes, score_thr, iou_thr, table)
            want = greedy_nms(boxes, score_thr, iou_thr)
        assert got.tolist() == want.tolist()


F32_MAX = float(np.finfo(np.float32).max)


def assert_frame_rejected(prob, raw, tensor, caplog):
    """A frame holding these maps fails its one value check, so it is never decoded.

    decode_boxes checks no value but the sizes it decodes:
    FrameContainer.validate checks prob and boxes once, and Tracker.step
    counts a frame that fails it as all-miss, emitting no rows.
    """
    h, w = prob.shape[:2]
    embed = np.zeros((h, w, 4), np.float32)
    embed[..., 0] = 1.0
    frame = FrameContainer(1, prob, raw, embed, np.zeros((h, w, 2), np.float32))
    with pytest.raises(FrameValueError, match=f"tensor '{tensor}' contains non-finite"):
        frame.validate(("prob", "boxes"))
    with mock.patch.object(association, "decode_boxes") as decode:
        assert Tracker().step(frame) == []
    decode.assert_not_called()
    assert "failed validation" in caplog.text


@st.composite
def decode_inputs(draw):
    """A small grid's maps, an ascending cell index and one cell."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = h * w
    raw = draw(st.lists(st.floats(-F32_MAX, F32_MAX, width=32), min_size=4 * n, max_size=4 * n))
    prob = draw(st.lists(st.floats(0.0, 1.0, width=32), min_size=n, max_size=n))
    cells = sorted(draw(st.sets(st.integers(0, n - 1))))
    return (np.array(prob, np.float32).reshape(h, w, 1),
            np.array(raw, np.float32).reshape(h, w, 4),
            np.array(cells, np.intp), draw(st.integers(0, n - 1)),
            draw(st.floats(0.1, 100.0)))


class TestSubsetDecode:
    @given(decode_inputs())
    def test_subset_has_whole_grid_bits(self, inputs):
        # A cell whose raw log-size exponentiates to inf or 0 fails any
        # decode that takes it; every other cell has the bits of a whole
        # grid decode in which the failing cells' sizes are set to 0.
        prob, raw, cells, one, h_scale = inputs
        with np.errstate(over="ignore"):  # exp of raw sizes near float32 max
            sizes = np.exp(raw[..., 2:].astype(np.float64)).reshape(-1, 2)
        good = ((sizes > 0) & (sizes < np.inf)).all(axis=1)
        tamed = raw.copy()
        tamed.reshape(-1, 4)[~good, 2:] = 0.0
        whole = decode_boxes(prob, tamed, h_scale)
        for index in (None, cells, np.zeros(0, np.intp), np.array([one])):
            if not good[index].all():
                with pytest.raises(FrameValueError, match="tensor 'boxes' decodes"):
                    decode_boxes(prob, raw, h_scale, index)
                continue
            got = decode_boxes(prob, raw, h_scale, index)
            for name in ("cx", "cy", "w", "h", "score", "restored"):
                want = getattr(whole, name)
                assert getattr(got, name).tobytes() == (
                    want if index is None else want[index]).tobytes()

    @pytest.mark.parametrize("channel", [2, 3])
    @pytest.mark.parametrize("log_size", [800.0, -800.0, 1e3, -1e3, 1e30, -1e30])
    def test_size_that_is_not_finite_and_positive_is_a_frame_value_error(
            self, channel, log_size):
        # exp(800) overflows to inf and exp(-800) underflows to 0, though
        # both raw values are finite, so the frame check passes them. Only
        # one size of the cell is bad, so each side of the one check over
        # both size columns refuses it alone.
        prob = np.ones((2, 3, 1), dtype=np.float32)
        raw = np.zeros((2, 3, 4), dtype=np.float32)
        raw[1, 2, channel] = log_size
        with pytest.raises(FrameValueError, match="tensor 'boxes' decodes"):
            decode_boxes(prob, raw, cells=np.array([0, 5]))
        assert len(decode_boxes(prob, raw, cells=np.arange(5))) == 5

    @pytest.mark.parametrize("tensor", ["prob", "boxes"])
    def test_nan_outside_index_rejected(self, tensor, caplog):
        # Cell 3 scores below the threshold, so the tracker would not decode it.
        prob = np.array([1.0, 1.0, 1.0, 0.0], dtype=np.float32).reshape(2, 2, 1)
        raw = np.zeros((2, 2, 4), dtype=np.float32)
        {"prob": prob, "boxes": raw}[tensor][1, 1, -1] = np.nan
        assert_frame_rejected(prob, raw, tensor, caplog)


size = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
box_strategy = st.builds(Box, cx=coord, cy=coord, w=size, h=size,
                         score=st.just(1.0))


class TestIouMatrix:
    @given(st.lists(box_strategy, max_size=6), st.lists(box_strategy, max_size=6))
    def test_bit_identical_to_scalar_formula(self, a, b):
        got = iou(Boxes.of(a), Boxes.of(b))
        want = np.array([[scalar_iou(x, y) for y in b] for x in a],
                        dtype=np.float64).reshape(len(a), len(b))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(st.lists(box_strategy, min_size=1, max_size=6))
    def test_touching_and_nested_boxes(self, boxes):
        # Nested copies and edge-sharing neighbours sit exactly on the
        # thresholds the scalar formula branches on.
        variants = []
        for b in boxes:
            variants += [Box(b.cx, b.cy, b.w / 2.0, b.h, 1.0),
                         Box(b.cx + b.w, b.cy, b.w, b.h, 1.0)]
        got = iou(Boxes.of(boxes), Boxes.of(variants))
        want = np.array([[scalar_iou(x, y) for y in variants] for x in boxes])
        assert got.tobytes() == want.tobytes()


def broadcast_edge_iou(a, b):
    """Reference: the IOU table with one broadcast op per edge, clamped both ways."""
    ax1, ay1, ax2, ay2, a_area = (v[:, None] for v in a)
    bx1, by1, bx2, by2, b_area = b
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = a_area + b_area - inter
    overlap = (iw > 0.0) & (ih > 0.0) & ~(union <= 0.0)
    out = np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)
    return np.minimum(np.maximum(out, 0.0), 1.0)


any_float = st.one_of(st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]),
                      st.floats(-1e3, 1e3), st.floats())
any_box = st.builds(Box, cx=any_float, cy=any_float, w=any_float, h=any_float,
                    score=any_float, restored=st.booleans())


def box_bits(box):
    return struct.pack("<5d?", box.cx, box.cy, box.w, box.h, box.score, box.restored)


class TestIouOracle:
    @given(st.lists(any_box, max_size=7), st.lists(any_box, max_size=7))
    def test_bits_match_the_per_edge_broadcasts(self, a, b):
        a, b = Boxes.of(a), Boxes.of(b)
        with np.errstate(all="ignore"):
            want = broadcast_edge_iou(detection._edges(a), detection._edges(b))
            assert iou(a, b).tobytes() == want.tobytes()
            assert iou(a, a).tobytes() == broadcast_edge_iou(
                detection._edges(a), detection._edges(a)).tobytes()


class TestBoxes:
    @given(st.lists(any_box, min_size=1, max_size=5), st.data())
    def test_int_index_reads_each_column(self, records, data):
        boxes = Boxes.of(records)
        k = data.draw(st.integers(-len(records), len(records) - 1))
        columns = (boxes.cx, boxes.cy, boxes.w, boxes.h, boxes.score, boxes.restored)
        for key in (k, np.intp(k)):
            assert box_bits(boxes[key]) == box_bits(Box(*[a.item(key) for a in columns]))

    def test_int_index_and_iteration_give_records(self):
        records = [Box(cx=1.0, cy=2.0, w=3.0, h=4.0, score=0.5),
                   Box(cx=5.0, cy=6.0, w=7.0, h=8.0, score=0.25, restored=True)]
        boxes = Boxes.of(records)
        assert len(boxes) == 2
        assert boxes[1] == records[1]
        assert boxes[-1] == records[1]
        assert list(boxes) == records

    def test_mask_and_index_array_give_boxes(self):
        records = [Box(cx=float(k), cy=0.0, w=1.0, h=1.0, score=k / 4) for k in range(4)]
        boxes = Boxes.of(records)
        picked = boxes[boxes.score >= 0.5]
        assert isinstance(picked, Boxes)
        assert list(picked) == records[2:]
        assert list(boxes[np.array([3, 0])]) == [records[3], records[0]]

    def test_mismatched_field_lengths_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            Boxes(cx=[0.0, 1.0], cy=[0.0], w=[1.0], h=[1.0], score=[1.0])

    @pytest.mark.parametrize("field", ["cx", "cy", "w", "h", "score", "restored"])
    @pytest.mark.parametrize("bad", [[1.0], [[1.0, 1.0]], 1.0], ids=["short", "2-d", "scalar"])
    def test_each_field_checked(self, field, bad):
        fields = dict(cx=[0.0, 1.0], cy=[0.0, 1.0], w=[1.0, 1.0], h=[1.0, 1.0],
                      score=[1.0, 1.0], restored=[False, True])
        fields[field] = bad
        with pytest.raises(ValueError, match="one length"):
            Boxes(**fields)

    @pytest.mark.parametrize("field", ["cx", "cy", "w", "h", "score"])
    def test_non_numeric_field_rejected(self, field):
        fields = dict(cx=[0.0], cy=[0.0], w=[1.0], h=[1.0], score=[1.0])
        fields[field] = ["wide"]
        with pytest.raises(ValueError):
            Boxes(**fields)

    def test_all_2d_fields_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            Boxes(*([[1.0]] for _ in range(5)))

    def test_fields_cast(self):
        boxes = Boxes(cx=[1], cy=np.float32([2]), w=[3], h=[4], score=[1], restored=[1])
        assert [getattr(boxes, f).dtype for f in ("cx", "cy", "w", "h", "score")] == \
            [np.float64] * 5
        assert boxes.restored.dtype == bool and boxes.restored.tolist() == [True]
        assert Boxes.of([]).restored.dtype == bool

    def test_decode_matches_scalar_offset_helpers(self):
        rng = np.random.default_rng(6)
        prob = rng.uniform(0, 1, size=(3, 4, 1)).astype(np.float32)
        raw = rng.normal(size=(3, 4, 4)).astype(np.float32)
        h_scale = 10.0
        boxes = decode_boxes(prob, raw, h_scale)
        for k, box in enumerate(boxes):
            r, c = divmod(k, 4)
            dx, dy = decode_offset_bar((float(raw[r, c, 0]), float(raw[r, c, 1])), h_scale)
            assert (box.cx, box.cy) == (c + 0.5 + dx, r + 0.5 + dy)
