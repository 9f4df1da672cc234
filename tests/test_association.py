import logging
import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omctrack import association, detection
from omctrack.association import (
    PipelineConfig,
    Tracker,
    TrackletTable,
    associate,
    extract_embeddings,
    track_sequence,
    update_tracklets,
)
from omctrack.detection import Box, Boxes, iou
from omctrack.frame_io import MotBox
from omctrack.numerics import normalize_cells
from omctrack.recheck import RefineWeights
from omctrack.synth import ScenarioConfig, generate

from test_numerics import whole_grid_normalize
from test_recheck import tiny_weights


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


def basis_vec(i, dim=8):
    v = np.zeros(dim, dtype=np.float32)
    v[i] = 1.0
    return v


@dataclass
class Tracklet:
    """One identity as one object: the tracker's state before its table.

    With `reference_update`, the oracle of the table and `update_tracklets`.
    """

    id: int
    embedding: np.ndarray
    last_box: Box
    miss_count: int = 0
    state: str = "active"                              # active | removed


def reference_update(tracklets, matches, boxes, embeddings, cfg, next_id, born):
    """The per-object update that `update_tracklets` replaced.

    Returns (surviving tracklets, new tracklets, next_id) and changes the
    tracklets it is given.
    """
    matched = dict(matches)
    hits = [t for t in tracklets if t.id in matched]
    cols = [matched[t.id] for t in hits]
    for t, j in zip(hits, cols):
        t.miss_count = 0
        t.last_box = boxes[j]
        t.embedding = per_tracklet_update(t.embedding, embeddings[j], cfg)
    for t in tracklets:
        if t.id not in matched:
            t.miss_count += 1
            if t.miss_count >= cfg.retention_frames:
                t.state = "removed"
    survivors = [t for t in tracklets if t.state == "active"]
    new_tracklets = [
        Tracklet(id=next_id + k, embedding=embeddings[j].copy(), last_box=boxes[j])
        for k, j in enumerate(born)
    ]
    return survivors, new_tracklets, next_id + len(born)


def tracklet(tid, emb, cx=1.0, cy=1.0, w=2.0, h=2.0):
    return Tracklet(
        id=tid,
        embedding=np.asarray(emb, dtype=np.float32),
        last_box=Box(cx=cx, cy=cy, w=w, h=h, score=1.0),
    )


def table(tracklets):
    """A TrackletTable holding the records' values, one row each, in list order.

    Its rows are copies, so updating the table leaves the records as they
    are. The blend tests hold rows of any magnitude, which a tracker's
    table never holds.
    """
    dim = len(tracklets[0].embedding) if tracklets else 0
    return TrackletTable(
        ids=np.array([t.id for t in tracklets], dtype=np.int64),
        emb=np.array([t.embedding for t in tracklets], np.float32).reshape(len(tracklets), dim),
        last=Boxes.of([t.last_box for t in tracklets]),
        misses=np.array([t.miss_count for t in tracklets], dtype=np.int64),
    )


def row_records(live):
    """Each row of a table as (id, embedding bytes, last box bits, misses)."""
    return [(tid, emb.tobytes(), box_bits(box), misses) for tid, emb, box, misses
            in zip(live.ids.tolist(), live.emb, live.last, live.misses.tolist())]


def box_bits(box):
    """A Box record's fields, each float as its exact bits."""
    return (*(float(getattr(box, f)).hex() for f in ("cx", "cy", "w", "h", "score")),
            bool(box.restored))


def per_tracklet_update(embedding, new_emb, cfg):
    """One matched tracklet's new embedding, one vector at a time.

    The reference for update_tracklets, which updates every matched row in
    one pass.
    """
    a = cfg.embedding_momentum
    blend = a * embedding.astype(np.float64) + (1.0 - a) * new_emb.astype(np.float64)
    return normalize_cells(blend.astype(np.float32)[None])[0]


def associate_on(trk, boxes, embeddings, cfg):
    """associate on the float64 cosines of the records' embeddings against these rows.

    The matrix is the product `Tracker._match` builds.
    """
    live = table(trk)
    sims = live.emb.astype(np.float64) @ embeddings.astype(np.float64).T
    return associate(live, boxes, sims, cfg)


def to_mot_row(frame_index, track_id, box, stride):
    """One emitted row from one Box record: the reference for Tracker.step's rows."""
    return MotBox(
        frame=frame_index,
        id=track_id,
        x=(box.cx - box.w / 2.0) * stride,
        y=(box.cy - box.h / 2.0) * stride,
        w=box.w * stride,
        h=box.h * stride,
        conf=min(max(box.score, 0.0), 1.0),
    )


def row_bits(row):
    """A row's fields with each float as its exact bits (-0.0 and 0.0 differ)."""
    floats = (row.x, row.y, row.w, row.h, row.conf)
    assert all(type(v) is float for v in floats)
    return (row.frame, row.id, *(v.hex() for v in floats))


def greedy_oracle(matrix, thr):
    """Sort all pairs, sweep them once; expected matching for the greedy."""
    pairs = sorted(
        ((matrix[i, j], i, j)
         for i in range(matrix.shape[0])
         for j in range(matrix.shape[1])),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    used_r, used_c, out = set(), set(), []
    for value, i, j in pairs:
        if value < thr or i in used_r or j in used_c:
            continue
        out.append((i, j))
        used_r.add(i)
        used_c.add(j)
    return sorted(out)


class TestExtractEmbeddings:
    def test_reads_center_cell(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(6, 6, 8)).astype(np.float32)
        boxes = Boxes.of([Box(cx=3.4, cy=2.8, w=1, h=1, score=1.0)])
        es = extract_embeddings(boxes, grid)
        assert np.allclose(es[0], unit(grid[2, 3]), atol=1e-6)

    def test_empty_list(self):
        grid = np.zeros((4, 4, 8), dtype=np.float32)
        es = extract_embeddings(Boxes.of([]), grid)
        assert len(es) == 0

    def test_center_outside_clamped(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(4, 4, 8)).astype(np.float32)
        boxes = Boxes.of([Box(cx=-0.4, cy=4.4, w=1, h=1, score=1.0)])
        es = extract_embeddings(boxes, grid)
        assert np.allclose(es[0], unit(grid[3, 0]), atol=1e-6)

    def test_non_finite_read_cell_raises(self):
        grid = np.ones((4, 4, 8), dtype=np.float32)
        grid[2, 3, 5] = np.nan
        boxes = Boxes.of([Box(cx=0.5, cy=0.5, w=1, h=1, score=1.0),
                          Box(cx=3.4, cy=2.8, w=1, h=1, score=1.0)])
        with pytest.raises(ValueError, match="non-finite"):
            extract_embeddings(boxes, grid)

    def test_only_read_cells_are_checked(self):
        grid = np.ones((4, 4, 8), dtype=np.float32)
        grid[0, 0, 0] = np.inf
        boxes = Boxes.of([Box(cx=3.4, cy=2.8, w=1, h=1, score=1.0)])
        es = extract_embeddings(boxes, grid)
        assert np.array_equal(es[0], normalize_cells(grid[2, 3]))

    def test_raw_grid_same_bits_as_reading_a_normalized_grid(self):
        rng = np.random.default_rng(2)
        grid = (rng.normal(size=(9, 13, 32))
                * rng.choice([1e-3, 1.0, 1e4], size=(9, 13, 1))).astype(np.float32)
        grid[::2, ::3] = 0.0
        boxes = Boxes.of([Box(cx=x, cy=y, w=1, h=1, score=1.0)
                          for x, y in rng.uniform(-2.0, 15.0, size=(40, 2))])
        # The readout of an already normalized grid: clamp, read, normalize.
        f_id = whole_grid_normalize(grid)
        cols = np.clip(np.floor(boxes.cx), 0, 12).astype(int)
        rows = np.clip(np.floor(boxes.cy), 0, 8).astype(int)
        expected = np.stack([normalize_cells(f_id[r, c]) for r, c in zip(rows, cols)])
        assert np.array_equal(extract_embeddings(boxes, grid), expected)

    @given(st.lists(st.tuples(*[st.one_of(st.sampled_from([np.inf, -np.inf, 0.0, -0.0]),
                                          st.floats(-1e300, 1e300))] * 2),
                    min_size=1, max_size=8))
    def test_center_cells_match_the_clip_formula(self, centers):
        grid = np.random.default_rng(3).normal(size=(5, 7, 4)).astype(np.float32)
        boxes = Boxes.of([Box(cx=x, cy=y, w=1, h=1, score=1.0) for x, y in centers])
        cols = np.clip(np.floor(boxes.cx), 0, 6).astype(np.intp)
        rows = np.clip(np.floor(boxes.cy), 0, 4).astype(np.intp)
        expected = normalize_cells(grid[rows, cols])
        assert extract_embeddings(boxes, grid).tobytes() == expected.tobytes()


class TestAssociate:
    def test_identical_embedding_matches(self):
        e = basis_vec(0)
        trk = [tracklet(7, e)]
        boxes = Boxes.of([Box(cx=9, cy=9, w=2, h=2, score=1.0)])
        es = np.stack([e])
        matches, un_t, un_b = associate_on(trk, boxes, es, PipelineConfig())
        assert matches == [(7, 0)]
        assert un_t == [] and un_b == []

    def test_orthogonal_embedding_falls_back_to_iou(self):
        trk = [tracklet(3, basis_vec(0), cx=5, cy=5)]
        boxes = Boxes.of([Box(cx=5.1, cy=5.0, w=2, h=2, score=1.0)])
        es = np.stack([basis_vec(1)])
        matches, un_t, un_b = associate_on(trk, boxes, es, PipelineConfig())
        assert matches == [(3, 0)]

    def test_below_both_thresholds_unmatched(self):
        trk = [tracklet(3, basis_vec(0), cx=0, cy=0)]
        boxes = Boxes.of([Box(cx=30, cy=30, w=2, h=2, score=1.0)])
        es = np.stack([basis_vec(1)])
        matches, un_t, un_b = associate_on(trk, boxes, es, PipelineConfig())
        assert matches == []
        assert un_t == [3] and un_b == [0]

    def test_matches_sorted_pairs_oracle(self):
        rng = np.random.default_rng(2)
        # tracklet boxes are far from candidate boxes, so stage 2 never fires
        cfg = PipelineConfig(emb_match_thr=0.3, iou_match_thr=1.0)
        for trial in range(30):
            n = 5 if trial % 2 else 6
            sims = rng.uniform(-1, 1, size=(n, n))
            # build tracklets/boxes whose cosine matrix equals sims via
            # block construction: embeddings live in 2n dims
            trk_vecs = np.zeros((n, 2 * n), dtype=np.float64)
            box_vecs = np.zeros((n, 2 * n), dtype=np.float64)
            for i in range(n):
                trk_vecs[i, i] = 1.0
            for j in range(n):
                col = sims[:, j]
                residual = np.sqrt(max(1.0 - np.dot(col, col), 1e-9))
                box_vecs[j, :n] = col
                box_vecs[j, n + j] = residual
                box_vecs[j] /= np.linalg.norm(box_vecs[j])
            scale = np.linalg.norm(box_vecs, axis=1)
            trk = [tracklet(i + 1, trk_vecs[i].astype(np.float32), cx=100 * i)
                   for i in range(n)]
            boxes = Boxes.of([Box(cx=1000 + 100 * j, cy=0, w=1, h=1, score=1.0)
                              for j in range(n)])
            es = box_vecs.astype(np.float32)
            actual_sims = trk_vecs @ box_vecs.T
            matches, _, _ = associate_on(trk, boxes, es, cfg)
            got = sorted((tid - 1, j) for tid, j in matches)
            assert got == greedy_oracle(actual_sims, 0.3)

    def test_partial_matching_no_duplicates(self):
        rng = np.random.default_rng(3)
        dim = 16
        vecs = rng.normal(size=(6, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        trk = [tracklet(i + 1, vecs[i].astype(np.float32),
                        cx=rng.uniform(0, 10), cy=rng.uniform(0, 10))
               for i in range(4)]
        boxes = Boxes.of([Box(cx=rng.uniform(0, 10), cy=rng.uniform(0, 10),
                              w=2, h=2, score=1.0) for _ in range(5)])
        es = vecs[[0, 0, 1, 2, 5]].astype(np.float32)
        matches, un_t, un_b = associate_on(trk, boxes, es, PipelineConfig())
        tids = [t for t, _ in matches]
        cols = [j for _, j in matches]
        assert len(set(tids)) == len(tids)
        assert len(set(cols)) == len(cols)
        assert set(tids + un_t) == {1, 2, 3, 4}
        assert sorted(cols + un_b) == [0, 1, 2, 3, 4]


class TestLazyIouFallback:
    """associate computes the IOU matrix only when a tracklet and a box stay open."""

    @pytest.fixture
    def iou_calls(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((len(a), len(b)))
            return detection.iou(a, b)

        monkeypatch.setattr(association, "iou", counted)
        return calls

    def test_every_tracklet_matched_by_embedding_makes_no_iou_call(self, iou_calls):
        trk = [tracklet(1, basis_vec(0)), tracklet(2, basis_vec(1))]
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)] * 3)
        es = np.stack([basis_vec(1), basis_vec(2), basis_vec(0)])
        matches, un_t, un_b = associate_on(trk, boxes, es, PipelineConfig())
        assert sorted(matches) == [(1, 2), (2, 0)]
        assert un_t == [] and un_b == [1]
        assert iou_calls == []

    def test_every_box_matched_by_embedding_makes_no_iou_call(self, iou_calls):
        trk = [tracklet(i + 1, basis_vec(i)) for i in range(3)]
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)] * 2)
        es = np.stack([basis_vec(2), basis_vec(0)])
        matches, un_t, un_b = associate_on(trk, boxes, es, PipelineConfig())
        assert sorted(matches) == [(1, 1), (3, 0)]
        assert un_t == [2] and un_b == []
        assert iou_calls == []

    def test_open_pairs_make_one_iou_call_and_match_the_oracle(self, iou_calls):
        rng = np.random.default_rng(5)
        cfg = PipelineConfig(emb_match_thr=0.6, iou_match_thr=0.1)
        fallbacks = 0
        for trial in range(60):
            n, m = rng.integers(1, 7, size=2)
            trk_vecs = np.stack([unit(v) for v in rng.normal(size=(n, 4))])
            box_vecs = np.stack([unit(v) for v in rng.normal(size=(m, 4))])
            trk = [tracklet(i + 1, trk_vecs[i], *rng.uniform(0, 4, size=2))
                   for i in range(n)]
            boxes = Boxes.of([Box(cx=x, cy=y, w=2, h=2, score=1.0)
                              for x, y in rng.uniform(0, 4, size=(m, 2))])
            iou_calls.clear()
            matches, _, _ = associate_on(trk, boxes, box_vecs, cfg)

            sims = trk_vecs.astype(np.float64) @ box_vecs.astype(np.float64).T
            expected = greedy_oracle(sims, cfg.emb_match_thr)
            rows = [i for i in range(n) if i not in {i for i, _ in expected}]
            cols = [j for j in range(m) if j not in {j for _, j in expected}]
            if rows and cols:
                fallbacks += 1
                ious = detection.iou(Boxes.of([t.last_box for t in trk]), boxes)
                expected += [(rows[a], cols[b]) for a, b in
                             greedy_oracle(ious[np.ix_(rows, cols)], cfg.iou_match_thr)]
            assert len(iou_calls) == (1 if rows and cols else 0)
            assert sorted((tid - 1, j) for tid, j in matches) == sorted(expected)
        assert 0 < fallbacks < 60


class TestUpdateTracklets:
    def test_removal_at_exactly_k_misses(self):
        cfg = PipelineConfig(retention_frames=30)
        live = table([tracklet(1, basis_vec(0))])
        for frame in range(2, 32):
            assert live.ids.tolist() == [1] and live.misses.tolist() == [frame - 2]
            active, new, _ = update_tracklets(
                live, [], Boxes.of([]), np.zeros((0, 8), np.float32), cfg, next_id=2, born=[]
            )
        # Dropped by the update that gave it its 30th miss.
        assert len(active) == 0 and len(new) == 0
        assert len(live) == 0 and live.emb.shape == (0, 8)

    def test_survives_through_k_minus_one(self):
        cfg = PipelineConfig(retention_frames=30)
        live = table([tracklet(1, basis_vec(0))])
        for frame in range(2, 31):
            active, _, _ = update_tracklets(
                live, [], Boxes.of([]), np.zeros((0, 8), np.float32), cfg, next_id=2, born=[]
            )
        assert active.tolist() == [1]
        assert live.misses.tolist() == [29]

    def test_blend_fixed_point(self):
        cfg = PipelineConfig(embedding_momentum=0.9)
        e = unit(np.arange(1, 9))
        live = table([tracklet(1, e)])
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
        update_tracklets(live, [(1, 0)], boxes, np.stack([e]), cfg,
                         next_id=2, born=[])
        assert np.allclose(live.emb[0], e, atol=1e-6)

    def test_alpha_one_keeps_the_birth_embedding(self):
        cfg = PipelineConfig(embedding_momentum=1.0)
        e0 = basis_vec(0)
        live = table([tracklet(1, e0)])
        for frame in range(2, 6):
            es = np.stack([basis_vec(frame % 8)])
            boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
            update_tracklets(live, [(1, 0)], boxes, es, cfg, next_id=2, born=[])
        assert np.array_equal(live.emb[0], e0)

    def test_alpha_zero_takes_the_match(self):
        cfg = PipelineConfig(embedding_momentum=0.0)
        live = table([tracklet(1, basis_vec(0))])
        es = np.stack([basis_vec(3)])
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
        update_tracklets(live, [(1, 0)], boxes, es, cfg, next_id=2, born=[])
        assert np.array_equal(live.emb[0], basis_vec(3))

    def test_blend_keeps_unit_norm(self):
        rng = np.random.default_rng(4)
        cfg = PipelineConfig(embedding_momentum=0.7)
        live = table([tracklet(1, unit(rng.normal(size=8)))])
        for frame in range(2, 12):
            es = np.stack([unit(rng.normal(size=8))])
            boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
            update_tracklets(live, [(1, 0)], boxes, es, cfg, next_id=2, born=[])
            assert abs(np.linalg.norm(live.emb[0].astype(np.float64)) - 1.0) < 1e-6

    def test_blend_that_cancels_stays_a_zero_row(self):
        # Opposite rows blended half and half sum to zero, a row of norm at
        # most NORM_EPS that normalize_cells leaves as it is.
        cfg = PipelineConfig(embedding_momentum=0.5)
        e = unit(np.arange(1, 9))
        live = table([tracklet(1, e)])
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
        update_tracklets(live, [(1, 0)], boxes, np.stack([-e]), cfg, next_id=2, born=[])
        assert live.emb.dtype == np.float32
        assert not live.emb.any()

    def test_unmatched_boxes_spawn_with_monotone_ids(self):
        cfg = PipelineConfig()
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0),
                          Box(cx=8, cy=8, w=2, h=2, score=1.0)])
        es = np.stack([basis_vec(0), basis_vec(1)])
        active, new, next_id = update_tracklets(table([]), [], boxes, es, cfg, next_id=5,
                                                born=[0, 1])
        assert new.tolist() == [5, 6]
        assert next_id == 7

    def test_founds_exactly_the_given_indices_in_order(self):
        cfg = PipelineConfig()
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0),
                          Box(cx=8, cy=8, w=2, h=2, score=1.0),
                          Box(cx=4, cy=4, w=2, h=2, score=1.0)])
        es = np.stack([basis_vec(0), basis_vec(1), basis_vec(2)])
        live = table([])
        _, new, _ = update_tracklets(live, [], boxes, es, cfg, next_id=1, born=[2, 1])
        assert new.tolist() == [1, 2]
        assert live.last.cx.tolist() == [4, 8]


@st.composite
def update_inputs(draw):
    """Tracklets, matched to unit or zero rows, and the config to update them with.

    Tracklet embeddings span magnitudes 1e-30 to 1e30, and some are set to
    cancel their row's blend, to zero or nearly so.
    """
    momentum = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    k = draw(st.integers(1, 20))
    unmatched = draw(st.integers(0, 3))
    dim = draw(st.sampled_from([1, 2, 5, 12, 64, 512]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    new = np.stack([unit(v) for v in rng.normal(size=(k, dim))])
    new[draw(st.lists(st.integers(0, k - 1), max_size=3))] = 0.0
    old = rng.normal(size=(k + unmatched, dim))
    old *= 10.0 ** rng.uniform(-30, 30, size=(k + unmatched, 1))
    old = old.astype(np.float32)
    order = rng.permutation(k)                 # tracklet i matches box order[i]
    for i in draw(st.lists(st.integers(0, k - 1), max_size=5)):
        old[i] = -new[order[i]] * ((1.0 - momentum) / momentum if momentum else 1.0)
    cfg = PipelineConfig(embedding_momentum=momentum)
    return cfg, old, new, order


class TestOnePassUpdate:
    @settings(max_examples=300, deadline=None)
    @given(update_inputs())
    def test_matches_the_per_tracklet_update_bit_for_bit(self, inputs):
        cfg, old, new, order = inputs
        live = table([tracklet(i + 1, old[i]) for i in range(len(old))])
        boxes = Boxes.of([Box(cx=j, cy=1, w=2, h=2, score=1.0) for j in range(len(new))])
        matches = [(i + 1, int(j)) for i, j in enumerate(order)]
        expected = [per_tracklet_update(old[i], new[j], cfg) for i, j in enumerate(order)]
        update_tracklets(live, matches, boxes, new,
                         cfg, next_id=len(old) + 1, born=[])
        assert live.emb.dtype == np.float32
        for row, want in zip(live.emb, expected):
            assert row.tobytes() == want.tobytes()
        for tid, row, misses in zip(live.ids[len(order):], live.emb[len(order):],
                                    live.misses[len(order):]):
            assert row.tobytes() == old[tid - 1].tobytes()
            assert misses == 1


@st.composite
def unit_row_pairs(draw):
    """Old and new (k, C) rows as the tracker holds them: unit, or zero.

    The rows come from `normalize_cells`, as the readout's do.
    """
    k = draw(st.integers(1, 20))
    dim = draw(st.sampled_from([1, 2, 3, 5, 8, 12, 64, 512]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    old, new = normalize_cells(rng.normal(size=(2, k, dim)))
    old[draw(st.lists(st.integers(0, k - 1), max_size=2))] = 0.0
    new[draw(st.lists(st.integers(0, k - 1), max_size=2))] = 0.0
    return old, new


class TestAlphaEndpoints:
    """alpha = 1 keeps each row and alpha = 0 takes each match's, to one ulp.

    Both still renormalize a row that is already unit, by `normalize_cells`.
    That moves no component by more than one float32 ulp of it: measured on
    20,000 random rows a C (three seeds), 0.4-1.4% of rows move at C = 2 to
    12 and none at C = 1, 64 or 512, the worlds' channel count. Repeated at
    alpha = 1, 9 to 38 of the 20,000 rows still move by an ulp at the tenth
    update at C = 3 to 12; at C = 2 none move after the first.
    """

    @settings(max_examples=300, deadline=None)
    @given(unit_row_pairs(), st.sampled_from([1.0, 0.0]))
    def test_each_row_within_one_ulp_of_its_endpoint(self, rows, alpha):
        old, new = rows
        live = table([tracklet(i + 1, row) for i, row in enumerate(old)])
        boxes = Boxes.of([Box(cx=j, cy=1, w=2, h=2, score=1.0) for j in range(len(new))])
        update_tracklets(live, [(i + 1, i) for i in range(len(new))], boxes,
                         new, PipelineConfig(embedding_momentum=alpha),
                         next_id=len(old) + 1, born=[])
        want = old if alpha == 1.0 else new
        got = live.emb
        assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()


@st.composite
def table_updates(draw):
    """A population of live tracklets, one frame's assignment and the config.

    Ids ascend with gaps; embeddings are unit or zero rows; each row's miss
    count is below the retention window, so any unmatched one may be at its
    last frame. Boxes carry restored flags, and the boxes that found
    tracklets are any of the unmatched ones, in any order.
    """
    retention = draw(st.integers(1, 3))
    cfg = PipelineConfig(retention_frames=retention,
                        embedding_momentum=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    dim = draw(st.sampled_from([1, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit_or_zero_rows(k):
        rows = np.array([unit(v) for v in rng.normal(size=(k, dim))],
                        np.float32).reshape(k, dim)
        rows[draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=2 if k else 0))] = 0.0
        return rows

    def random_boxes(k):
        return Boxes(*rng.uniform(0.5, 9.0, size=(5, k)), restored=rng.random(k) < 0.5)

    ids = draw(st.integers(1, 50)) + np.cumsum(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=np.int64)
    misses = draw(st.lists(st.integers(0, retention - 1), min_size=n, max_size=n))
    trk = [Tracklet(id=int(tid), embedding=emb, last_box=box, miss_count=miss)
           for tid, emb, box, miss in zip(ids, unit_or_zero_rows(n), random_boxes(n), misses)]
    k = draw(st.integers(0, min(n, m)))
    rows = draw(st.permutations(range(n)))[:k]
    cols = draw(st.permutations(range(m)))[:k]
    matches = [(trk[i].id, j) for i, j in zip(rows, cols)]
    unmatched = [j for j in range(m) if j not in cols]
    born = draw(st.permutations(unmatched))[:draw(st.integers(0, len(unmatched)))]
    next_id = int(ids[-1]) + 1 if n else draw(st.integers(1, 50))
    return (trk, matches, random_boxes(m), unit_or_zero_rows(m), cfg,
            next_id, born)


class TestTableUpdate:
    @settings(max_examples=400, deadline=None)
    @given(table_updates())
    def test_matches_the_per_object_update_bit_for_bit(self, inputs):
        trk, matches, boxes, embeddings, cfg, next_id, born = inputs
        live = table(trk)
        survivors, new, want_next = reference_update(trk, matches, boxes, embeddings, cfg,
                                                     next_id, born)
        kept, new_ids, got_next = update_tracklets(live, matches, boxes, embeddings, cfg,
                                                   next_id, born)
        assert got_next == want_next
        assert kept.tolist() == [t.id for t in survivors]
        assert new_ids.tolist() == [t.id for t in new]
        assert row_records(live) == [
            (t.id, t.embedding.tobytes(), box_bits(t.last_box), t.miss_count)
            for t in survivors + new
        ]
        assert live.ids.dtype == live.misses.dtype == np.int64
        assert live.emb.dtype == np.float32


class TestPipelineConfig:
    def test_h_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="h_scale"):
            PipelineConfig(h_scale=0.0)

    def test_fusion_epsilon_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError, match="fusion_epsilon"):
            PipelineConfig(fusion_epsilon=1.5)

    @pytest.mark.parametrize("field, value, message", [
        ("h_scale", 0.0, "h_scale must be finite and positive, got 0.0"),
        ("h_scale", -1.0, "h_scale must be finite and positive, got -1.0"),
        ("h_scale", math.inf, "h_scale must be finite and positive, got inf"),
        ("h_scale", math.nan, "h_scale must be finite and positive, got nan"),
        ("score_thr", -0.1, "score_thr must lie in [0, 1], got -0.1"),
        ("nms_iou_thr", math.nan, "nms_iou_thr must lie in [0, 1], got nan"),
        ("shrink_radius", -1.0, "shrink_radius must be >= 0 or inf"),
        ("shrink_radius", -math.inf, "shrink_radius must be >= 0 or inf"),
        ("shrink_radius", math.nan, "shrink_radius must be >= 0 or inf"),
        ("stride", 0, "stride must be finite and >= 1, got 0"),
        ("stride", math.nan, "stride must be finite and >= 1, got nan"),
        ("stride", math.inf, "stride must be finite and >= 1, got inf"),
        ("retention_frames", 0, "retention_frames must be >= 1"),
        ("retention_frames", math.nan, "retention_frames must be >= 1"),
        ("embedding_momentum", 1.5, "embedding_momentum must lie in [0, 1]"),
        ("embedding_momentum", math.nan, "embedding_momentum must lie in [0, 1]"),
        ("emb_match_thr", -0.5, "emb_match_thr must lie in [0, 1], got -0.5"),
        ("iou_match_thr", 2.0, "iou_match_thr must lie in [0, 1], got 2.0"),
    ])
    def test_refusals(self, field, value, message):
        with pytest.raises(ValueError) as err:
            PipelineConfig(**{field: value})
        assert str(err.value) == message


def small_scenario(**kw):
    defaults = dict(num_targets=3, height=14, width=14, frames=20,
                    dropout_prob=0.0, seed=11, embed_dim=32, feat_dim=8)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestTrackerStep:
    def test_first_frame_spawns_base_detections(self):
        frames, gt, _ = generate(small_scenario())
        tracker = Tracker()
        rows = tracker.step(frames[0])
        assert len(rows) == 3
        assert sorted(r.id for r in rows) == [1, 2, 3]
        assert tracker.restored_emitted == 0

    @staticmethod
    def _overlaps(row, gt_box):
        x1 = max(row.x, gt_box.x)
        y1 = max(row.y, gt_box.y)
        x2 = min(row.x + row.w, gt_box.x + gt_box.w)
        y2 = min(row.y + row.h, gt_box.y + gt_box.h)
        inter = max(x2 - x1, 0.0) * max(y2 - y1, 0.0)
        union = row.w * row.h + gt_box.w * gt_box.h - inter
        return inter / union >= 0.5

    def _force_drop(self, cfg, frames, gt, frame, gid):
        target_gt = [b for b in gt if b.frame == frame and b.id == gid][0]
        cy = int((target_gt.y + target_gt.h / 2) / cfg.stride)
        cx = int((target_gt.x + target_gt.w / 2) / cfg.stride)
        assert frames[frame - 1].prob[cy, cx, 0] == 1.0
        frames[frame - 1].prob[cy, cx, 0] = 0.01
        return target_gt

    def test_dropped_target_kept_with_prior_id(self):
        cfg = small_scenario(frames=8)
        frames, gt, _ = generate(cfg)
        target_gt = self._force_drop(cfg, frames, gt, frame=5, gid=2)

        tracker = Tracker()
        emitted = {}
        for f in frames:
            for row in tracker.step(f):
                emitted.setdefault(f.frame_index, []).append(row)

        # identify the tracker id this target held before the drop
        prior = [b for b in gt if b.frame == 4 and b.id == 2][0]
        (tid,) = [r.id for r in emitted[4] if self._overlaps(r, prior)]
        hits = [r for r in emitted[5] if r.id == tid]
        assert len(hits) == 1
        assert self._overlaps(hits[0], target_gt)
        assert tracker.restored_emitted >= 1

    def test_disable_recheck_drops_target(self):
        cfg = small_scenario(frames=8)
        frames, gt, _ = generate(cfg)
        target_gt = self._force_drop(cfg, frames, gt, frame=5, gid=2)

        tracker = Tracker(PipelineConfig(recheck_enabled=False))
        emitted = {}
        for f in frames:
            for row in tracker.step(f):
                emitted.setdefault(f.frame_index, []).append(row)
        assert not any(self._overlaps(r, target_gt) for r in emitted[5])
        assert tracker.restored_emitted == 0

    def test_invalid_frame_counts_as_all_miss(self):
        frames, _, _ = generate(small_scenario(frames=3))
        tracker = Tracker(PipelineConfig(retention_frames=2))
        tracker.step(frames[0])
        assert len(tracker.live) == 3
        bad = frames[1]
        bad.prob = np.full_like(bad.prob, 2.0)  # invalid: outside [0, 1]
        assert tracker.step(bad) == []
        assert all(misses == 1 for misses in tracker.live.misses)

    def test_public_mode_uses_supplied_detections(self):
        cfg = small_scenario(frames=6)
        frames, gt, _ = generate(cfg)
        public = [MotBox(frame=b.frame, id=-1, x=b.x, y=b.y, w=b.w, h=b.h,
                         conf=1.0) for b in gt]
        rows, tracker = track_sequence(frames, public_dets=public)
        assert tracker.rows_emitted == len(gt)
        # frames beyond the first track existing identities only
        assert tracker.next_id - 1 == 3

    def test_public_mode_empty_file_emits_only_propagated(self):
        cfg = small_scenario(frames=6)
        frames, gt, _ = generate(cfg)
        # prime one frame of public boxes so tracklets exist, then nothing
        public = [MotBox(frame=b.frame, id=-1, x=b.x, y=b.y, w=b.w, h=b.h,
                         conf=1.0) for b in gt if b.frame == 1]
        rows, tracker = track_sequence(frames, public_dets=public)
        later = [r for r in rows if r.frame > 1]
        assert later, "re-check propagation should keep tracks alive"
        assert {r.id for r in later} <= {1, 2, 3}
        assert tracker.next_id - 1 == 3  # nothing new without public boxes

    def test_public_mode_no_boxes_at_all(self):
        frames, _, _ = generate(small_scenario(frames=3))
        rows, tracker = track_sequence(frames, public_dets=[])
        assert rows == []

    def test_public_row_of_another_frame_is_refused(self):
        frames, gt, _ = generate(small_scenario(frames=3))
        tracker = Tracker()
        tracker.step(frames[0])
        live, next_id = row_records(tracker.live), tracker.next_id
        other = next(b for b in gt if b.frame == 3)
        with pytest.raises(ValueError, match="public detection of frame 3 given to frame 2"):
            tracker.step(frames[1], [MotBox(3, -1, other.x, other.y, other.w, other.h, 1.0)])
        assert row_records(tracker.live) == live
        assert tracker.next_id == next_id

    @pytest.mark.parametrize("field, value, fault", [
        ("w", math.inf, "w must be finite, got inf"),
        ("x", math.nan, "x must be finite, got nan"),
        ("w", -4.0, "box size must be positive, got w=-4.0"),
    ])
    def test_malformed_public_row_is_refused(self, field, value, fault):
        frames, gt, _ = generate(small_scenario(frames=3))
        tracker = Tracker()
        for frame in frames[:2]:
            tracker.step(frame)
        live, next_id = row_records(tracker.live), tracker.next_id
        public = [MotBox(3, -1, b.x, b.y, b.w, b.h, 1.0) for b in gt if b.frame == 3]
        public.append(replace(public[0], **{field: value}))
        with pytest.raises(ValueError, match=f"public detection of frame 3: {fault}"):
            tracker.step(frames[2], public)
        assert row_records(tracker.live) == live
        assert tracker.next_id == next_id

    def test_public_rows_of_a_frame_the_sequence_lacks_raise(self):
        frames, gt, _ = generate(small_scenario(frames=5))
        public = [MotBox(b.frame, -1, b.x, b.y, b.w, b.h, 1.0) for b in gt]
        extra = [replace(public[0], frame=f) for f in (99, 7, 6, 8, 9, 12, 10)]
        with pytest.raises(ValueError, match=r"does not hold: 6, 7, 8, 9, 10 and 2 more$"):
            track_sequence(frames, public_dets=public + extra)

    def test_determinism_identical_rows(self):
        cfg = small_scenario(frames=12, dropout_prob=0.25)
        frames, _, _ = generate(cfg)
        rows_a, _ = track_sequence(frames)
        rows_b, _ = track_sequence(frames)
        assert rows_a == rows_b

    def test_ids_never_reused(self):
        cfg = small_scenario(frames=25, dropout_prob=0.3, seed=5)
        frames, _, _ = generate(cfg)
        tracker = Tracker(PipelineConfig(retention_frames=3))
        born = []
        for f in frames:
            before = tracker.next_id
            tracker.step(f)
            born.extend(range(before, tracker.next_id))
        assert len(born) == len(set(born))
        assert born == sorted(born)

    def test_only_unmatched_novel_basic_boxes_found_tracklets(self):
        # A look-alike-heavy world: many restored boxes go unmatched.
        frames, _, _ = generate(ScenarioConfig(num_targets=4, height=12, width=12, frames=40,
                                               dropout_prob=0.2, clutter_similarity=0.6))
        tracker = Tracker()
        match = tracker._match
        seen = {}

        def spy(*args):
            seen["out"] = out = match(*args)
            return out

        tracker._match = spy
        unmatched_restored = 0
        for frame in frames:
            live = tracker.live.emb.copy()
            tracker.step(frame)
            d_final, embeddings, matches, born = seen["out"]
            matched = {j for _, j in matches}
            assert matched.isdisjoint(born) and born == sorted(born)
            assert not d_final.restored[born].any()
            if len(live):
                sims = live.astype(np.float64) @ embeddings[born].T
                assert (sims < tracker.pipeline.emb_match_thr).all()
            unmatched_restored += sum(bool(d_final.restored[j])
                                      for j in range(len(d_final)) if j not in matched)
        assert unmatched_restored > 0
        assert tracker.next_id - 1 <= 2 * 4

    # Under the default NMS no basic box of this desk-size world fails the
    # novelty test; with an NMS that suppresses nothing, twin boxes on one
    # target reach the birth rule and some are refused.
    @pytest.mark.parametrize("nms_iou_thr, min_refused", [(PipelineConfig().nms_iou_thr, 0),
                                                          (1.0, 1)])
    def test_association_and_births_read_one_cosine_matrix(self, monkeypatch, nms_iou_thr,
                                                           min_refused):
        frames, _, _ = generate(ScenarioConfig(num_targets=6, height=20, width=20, frames=60,
                                               dropout_prob=0.3, clutter_similarity=0.3,
                                               seed=1))
        tracker = Tracker(PipelineConfig(nms_iou_thr=nms_iou_thr))
        thr = tracker.pipeline.emb_match_thr
        seen = {}

        def spy_associate(live, boxes, sims, cfg):
            seen["rows"], seen["sims"] = live.emb.copy(), sims.copy()
            return associate(live, boxes, sims, cfg)

        monkeypatch.setattr(association, "associate", spy_associate)
        match = tracker._match

        def spy_match(*args):
            seen["out"] = out = match(*args)
            return out

        tracker._match = spy_match
        refused = live_frames = 0
        for frame in frames:
            tracker.step(frame)
            d_final, embeddings, matches, born = seen["out"]
            rows, sims = seen["rows"], seen["sims"]
            live_frames += bool(sims.size)
            if len(rows):
                want = rows.astype(np.float64) @ embeddings.astype(np.float64).T
            else:
                want = np.zeros((0, len(d_final)))
            assert sims.dtype == np.float64 and sims.shape == want.shape
            assert sims.tobytes() == want.tobytes()
            matched = {j for _, j in matches}
            open_basic = [j for j in range(len(d_final))
                          if j not in matched and not d_final.restored[j]]
            assert born == [j for j in open_basic
                            if all(sims[i, j] < thr for i in range(len(sims)))]
            refused += len(open_basic) - len(born)
        assert live_frames == len(frames) - 1
        assert refused >= min_refused


class TestEmbedChannelsAtTheBoundary:
    """The one shape no single frame proves: embed's channels against the tracklets'."""

    @pytest.mark.parametrize("recheck", [True, False])
    def test_other_channel_count_names_the_frame_and_embed(self, recheck):
        frames, _, _ = generate(small_scenario(frames=2, embed_dim=512))
        tracker = Tracker(PipelineConfig(recheck_enabled=recheck))
        assert tracker.step(frames[0])
        before = (tracker.live.ids.copy(), tracker.live.misses.copy(), tracker.next_id)
        frames[1].embed = frames[1].embed[:, :, :256].copy()
        with pytest.raises(ValueError) as err:
            tracker.step(frames[1])
        assert str(err.value) == ("frame 2: tensor 'embed' has 256 channels, but the live "
                                  "tracklets' embeddings have 512")
        assert np.array_equal(tracker.live.ids, before[0])
        assert np.array_equal(tracker.live.misses, before[1])
        assert tracker.next_id == before[2]


@st.composite
def emitted_boxes(draw):
    """Boxes, the distinct indices a frame emits and their ids, and a stride."""
    n = draw(st.integers(0, 8))
    coord = st.floats(-1e6, 1e6)
    size = st.floats(1e-6, 1e6)
    score = st.one_of(st.floats(-2.0, 3.0), st.sampled_from([-0.0, 0.0, 1.0, -1e-300]))
    boxes = Boxes(*(draw(st.lists(s, min_size=n, max_size=n))
                    for s in (coord, coord, size, size, score, st.booleans())))
    cells = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    ids = draw(st.lists(st.integers(1, 10**6), min_size=len(cells), max_size=len(cells)))
    return boxes, cells, ids, draw(st.sampled_from([1, 4, 8]))


class TestRowsFromArrays:
    @given(emitted_boxes(), st.integers(1, 10**6))
    def test_rows_match_the_per_box_rows_bit_for_bit(self, inputs, frame_index):
        boxes, cells, ids, stride = inputs
        rows = association._mot_rows(frame_index, ids, boxes,
                                     np.array(cells, dtype=np.intp), stride)
        expected = [to_mot_row(frame_index, tid, boxes[j], stride)
                    for tid, j in zip(ids, cells)]
        assert [row_bits(r) for r in rows] == [row_bits(r) for r in expected]

    @pytest.mark.parametrize("stride", [1, 4, 8])
    def test_step_rows_and_counters_match_the_per_box_rows(self, stride):
        frames, _, _ = generate(small_scenario(frames=25, dropout_prob=0.3, seed=5,
                                               stride=stride))
        tracker = Tracker(PipelineConfig(stride=stride))
        match = tracker._match
        seen = {}

        def spy(*args):
            seen["out"] = out = match(*args)
            return out

        tracker._match = spy
        rows_emitted = restored_emitted = 0
        for frame in frames:
            first_new_id = tracker.next_id
            rows = tracker.step(frame)
            d_final, _, matches, _ = seen["out"]
            emitted = [(tid, d_final[j]) for tid, j in matches]
            emitted += [(tid, box) for tid, box in zip(tracker.live.ids.tolist(),
                                                       tracker.live.last)
                        if tid >= first_new_id]
            expected = [to_mot_row(frame.frame_index, tid, box, stride) for tid, box in emitted]
            assert [row_bits(r) for r in rows] == [row_bits(r) for r in expected]
            rows_emitted += len(expected)
            restored_emitted += sum(box.restored for _, box in emitted)
            assert (tracker.rows_emitted, tracker.restored_emitted) == (
                rows_emitted, restored_emitted)
        assert restored_emitted > 0


class TestTrackerStepMemory:
    def test_peak_with_live_tracklets_below_the_embedding_grid(self, traced_peak_bytes):
        # No normalized copy of the grid and no whole-tensor bool array: the
        # step used to peak at about 1.57x the embedding grid's bytes.
        cfg = ScenarioConfig(num_targets=20, height=152, width=272, frames=2,
                             embed_dim=64, stride=4, seed=3)
        frames, _, _ = generate(cfg)
        tracker = Tracker(PipelineConfig(stride=cfg.stride))
        tracker.step(frames[0])
        assert len(tracker.live) == 20
        peak = traced_peak_bytes(tracker.step, frames[1])
        assert peak <= 0.75 * frames[1].embed.nbytes


def miss_counts(tracker):
    """Each live tracklet's miss count, by id."""
    return dict(zip(tracker.live.ids.tolist(), tracker.live.misses.tolist()))


def center_cells(rows, stride):
    return [(int((r.y + r.h / 2) // stride), int((r.x + r.w / 2) // stride)) for r in rows]


def far_cell(rows, stride, shape):
    """A grid cell more than two cells away from every row's center."""
    centers = center_cells(rows, stride)
    for y in range(shape[0]):
        for x in range(shape[1]):
            if all(max(abs(y - cy), abs(x - cx)) > 2 for cy, cx in centers):
                return y, x
    raise AssertionError("no cell far from every row")


def zero_refine_weights(feat_dim, mid=4, head=3):
    def z(*shape):
        return np.zeros(shape, dtype=np.float32)

    return RefineWeights(
        conv1_w=z(mid, 1, 3, 3), conv1_b=z(mid),
        conv2_w=z(1, mid, 3, 3), conv2_b=z(1),
        head1_w=z(head, feat_dim, 3, 3), head1_b=z(head),
        head2_w=z(1, head, 3, 3), head2_b=z(1),
    )


class TestFrameValuePolicy:
    """Frame values are checked where they are read, and only there."""

    CFG = small_scenario(frames=6)

    def frames(self):
        frames, _, _ = generate(self.CFG)
        return frames

    def primed(self, pipeline=None, weights=None):
        """A tracker that has stepped frame 1, and the clean frames."""
        frames = self.frames()
        tracker = Tracker(pipeline or PipelineConfig(stride=self.CFG.stride),
                          weights=weights)
        assert tracker.step(frames[0])
        return tracker, frames

    def assert_all_miss(self, tracker, frame, caplog):
        misses = miss_counts(tracker)
        assert misses
        with caplog.at_level(logging.WARNING, logger="omctrack"):
            assert tracker.step(frame) == []
        assert miss_counts(tracker) == {
            tid: m + 1 for tid, m in misses.items()
        }
        assert any(f"frame {frame.frame_index} failed validation" in r.getMessage()
                   for r in caplog.records)

    def test_nan_feat_under_bypass_changes_no_row(self):
        clean, _ = track_sequence(self.frames(), PipelineConfig(stride=self.CFG.stride))
        frames = self.frames()
        for f in frames[1:]:
            f.feat[...] = np.nan
        rows, _ = track_sequence(frames, PipelineConfig(stride=self.CFG.stride))
        assert rows == clean
        assert {r.frame for r in rows} == {f.frame_index for f in frames}

    def test_nan_in_unread_embed_cell_without_tracklets_emits_rows(self):
        frames = self.frames()
        clean = Tracker(PipelineConfig(stride=self.CFG.stride)).step(frames[0])
        assert clean
        y, x = far_cell(clean, self.CFG.stride, frames[0].prob.shape)
        frames[0].embed[y, x, 0] = np.nan
        rows = Tracker(PipelineConfig(stride=self.CFG.stride)).step(frames[0])
        assert rows == clean

    def test_nan_in_search_read_embed_cell_is_all_miss(self, caplog):
        tracker, frames = self.primed()
        ahead = Tracker(PipelineConfig(stride=self.CFG.stride))
        ahead.step(frames[0])
        rows = ahead.step(frames[1])
        y, x = far_cell(rows, self.CFG.stride, frames[1].prob.shape)
        frames[1].embed[y, x, -1] = np.nan
        self.assert_all_miss(tracker, frames[1], caplog)

    def test_nan_in_readout_cell_is_all_miss(self, caplog):
        # With the search off, only the readout reads embed.
        pipeline = PipelineConfig(stride=self.CFG.stride, recheck_enabled=False)
        tracker, frames = self.primed(pipeline)
        ahead = Tracker(pipeline)
        ahead.step(frames[0])
        rows = ahead.step(frames[1])
        assert rows
        for y, x in center_cells(rows, self.CFG.stride):
            frames[1].embed[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2, 0] = np.nan
        self.assert_all_miss(tracker, frames[1], caplog)

    @pytest.mark.parametrize("tensor, value", [("prob", 1.5), ("prob", np.nan),
                                               ("boxes", np.nan)])
    def test_bad_prob_or_boxes_is_all_miss(self, caplog, tensor, value):
        tracker, frames = self.primed()
        getattr(frames[1], tensor)[3, 4, 0] = value
        self.assert_all_miss(tracker, frames[1], caplog)

    @pytest.mark.parametrize("log_width", [800.0, -800.0])
    def test_size_decoding_to_inf_or_zero_is_all_miss(self, caplog, log_width):
        # Finite, so the frame check passes it, but exp(800) is inf and
        # exp(-800) is 0; unchecked, they made rows of x = -inf, w = inf
        # and of w = 0.
        tracker, frames = self.primed()
        prob = frames[1].prob[..., 0]
        y, x = np.unravel_index(np.argmax(prob), prob.shape)
        frames[1].boxes[y, x, 2] = log_width
        self.assert_all_miss(tracker, frames[1], caplog)
        assert "tensor 'boxes' decodes" in caplog.text
        assert all(tracker.step(frame) for frame in frames[2:])

    def test_nan_feat_under_learned_refine_is_all_miss(self, caplog):
        weights = zero_refine_weights(self.CFG.feat_dim)
        tracker, frames = self.primed(weights=weights)
        assert tracker.step(frames[1])
        frames[2].feat[-1, -1, -1] = np.nan
        self.assert_all_miss(tracker, frames[2], caplog)

    def test_overflowing_feat_under_learned_refine_is_all_miss(self, caplog):
        # 3e38 is finite, but the head's products and sums over it overflow
        # float32, and the head output turns non-finite. The whole channel
        # holds it, so the overflow does not hang on the response at any
        # one cell.
        cfg = small_scenario(num_targets=2, height=8, width=8, frames=6)
        weights = tiny_weights(np.random.default_rng(0), feat=cfg.feat_dim)
        pipeline = PipelineConfig(stride=cfg.stride)
        clean, _ = track_sequence(generate(cfg)[0], pipeline, weights=weights)
        frames, _, _ = generate(cfg)
        frames[2].feat[:, :, 0] = 3e38
        tracker = Tracker(pipeline, weights=weights)
        before = tracker.step(frames[0]) + tracker.step(frames[1])
        self.assert_all_miss(tracker, frames[2], caplog)
        assert all(tracker.step(frame) for frame in frames[3:])
        assert before == [r for r in clean if r.frame < 3]

    @pytest.mark.parametrize("kernel", ["decode_boxes", "cross_correlate",
                                        "extract_embeddings"])
    @pytest.mark.parametrize("exc", [ValueError, TypeError])
    def test_other_errors_propagate_and_leave_tracklets(self, monkeypatch, kernel, exc):
        tracker, frames = self.primed()
        before = row_records(tracker.live)

        def broken(*args, **kwargs):
            raise exc("kernel fault")

        monkeypatch.setattr(association, kernel, broken)
        with pytest.raises(exc, match="kernel fault"):
            tracker.step(frames[1])
        assert row_records(tracker.live) == before

    def test_near_zero_embed_cells_track_as_zero_cells(self):
        # Finite embed cells of norm far below NORM_EPS: normalize_cells
        # leaves them as they are, so their rows respond about 0, as zero
        # rows do, and the run gives the zeroed world's rows.
        def desk(scale):
            frames, _, _ = generate(ScenarioConfig(frames=30, dropout_prob=0.3, seed=0))
            for frame in frames[10:13]:
                frame.embed = frame.embed * scale
            return frames

        zeroed, _ = track_sequence(desk(np.float32(0.0)))
        near_zero, _ = track_sequence(desk(np.float32(1e-30)))
        assert near_zero == zeroed
        assert len(zeroed) == 170 and len({r.id for r in zeroed}) == 7


# The per-frame chain before the overlap table, kept as the oracle: each
# stage built its own edges, IOU matrices and Boxes.


def old_edges(boxes):
    hw, hh = boxes.w / 2.0, boxes.h / 2.0
    return np.stack([boxes.cx - hw, boxes.cy - hh, boxes.cx + hw, boxes.cy + hh,
                     boxes.w * boxes.h])


def old_greedy_nms(boxes, score_thr, iou_thr):
    """Boxes-level greedy NMS: the kept boxes, score-descending."""
    above = np.flatnonzero(boxes.score >= score_thr)
    candidates = boxes[above[np.argsort(-boxes.score[above], kind="stable")]]
    edges = old_edges(candidates)
    kept = []
    for start in range(0, len(candidates), detection.NMS_BLOCK):
        block = edges[:, start:start + detection.NMS_BLOCK]
        alive = np.ones(block.shape[1], dtype=bool)
        if kept:
            alive &= (detection._edge_iou(edges[:, kept], block) <= iou_thr).all(axis=0)
        ok = detection._edge_iou(block, block) <= iou_thr
        for i in range(len(alive)):
            if alive[i]:
                kept.append(start + i)
                alive[i + 1:] &= ok[i, i + 1:]
    return candidates[kept]


def old_fuse(d_trans, d_base, epsilon):
    if not len(d_base):
        targetness = np.ones(len(d_trans))
    else:
        targetness = 1.0 - detection._edge_iou(old_edges(d_trans), old_edges(d_base)).max(axis=1)
    voted = d_trans[targetness >= epsilon]
    voted = replace(voted, restored=np.ones(len(voted), dtype=bool))
    return Boxes(*map(np.concatenate, zip(d_base._columns(), voted._columns())))


def old_chain(decoded, cells, m_p, p, public=None):
    d_base = old_greedy_nms(decoded, p.score_thr, p.nms_iou_thr) if public is None else public
    if m_p is None:
        return d_base
    rescored = replace(decoded, score=m_p.reshape(-1)[cells])
    d_trans = old_greedy_nms(rescored, p.score_thr, p.nms_iou_thr)
    return old_fuse(d_trans, d_base, p.fusion_epsilon)


def same_boxes(a, b):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("cx", "cy", "w", "h", "score", "restored"))


GRID = 7
TIED = [0.0, 0.3, 0.5, 0.5, 0.7, 0.9, 0.9, 1.0]
# Zero, negative and infinite sizes make the IOU read 0 or NaN.
ODD_SIZE = st.one_of(st.sampled_from([0.0, -1.0, math.inf, 1.5, 2.0]),
                     st.floats(min_value=0.1, max_value=4.0))


@st.composite
def frame_candidates(draw, public=False):
    """Decoded boxes at ascending cells of a 7x7 map, a map, settings, public boxes."""
    cells = np.array(sorted(draw(st.sets(st.integers(0, GRID * GRID - 1), max_size=40))),
                     dtype=np.intp)
    n = len(cells)
    coord = st.floats(min_value=0.0, max_value=float(GRID))
    decoded = Boxes(*(draw(st.lists(field, min_size=n, max_size=n))
                      for field in (coord, coord, ODD_SIZE, ODD_SIZE, st.sampled_from(TIED))))
    m_p = draw(st.none() | st.lists(st.sampled_from(TIED), min_size=GRID * GRID,
                                    max_size=GRID * GRID))
    m_p = None if m_p is None else np.array(m_p, np.float32).reshape(GRID, GRID)
    # Thresholds on and one step either side of an IOU the frame holds, so
    # every comparison of a table entry meets its boundary cases.
    with np.errstate(invalid="ignore", over="ignore"):
        values = iou(decoded, decoded)[~np.eye(n, dtype=bool)]
    x = draw(st.sampled_from(sorted(set(values[np.isfinite(values)].tolist())) or [0.5]))
    near = [x, float(np.nextafter(x, -1.0)), float(np.nextafter(x, 2.0))]
    clip = [min(max(v, 0.0), 1.0) for v in near + [1.0 - v for v in near]]
    p = PipelineConfig(score_thr=draw(st.sampled_from([0.3, 0.5, 0.7])),
                       nms_iou_thr=draw(st.sampled_from([0.0, 0.45, 1.0] + clip[:3])),
                       fusion_epsilon=draw(st.sampled_from([0.0, 0.5, 1.0] + clip[3:])))
    boxes = None
    if public:
        records = draw(st.lists(st.builds(Box, cx=coord, cy=coord,
                                          w=st.floats(0.5, 4.0), h=st.floats(0.5, 4.0),
                                          score=st.sampled_from(TIED)), max_size=6))
        boxes = Boxes.of(records)
    return decoded, cells, m_p, p, boxes


class TestOverlapTableChain:
    """One IOU table a frame gives the fused boxes of the per-stage chain, bit for bit."""

    @pytest.mark.parametrize("block", [1, 7, detection.NMS_BLOCK])
    @settings(max_examples=150, deadline=None)
    @given(frame_candidates())
    def test_private_mode(self, block, inputs):
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(detection, "NMS_BLOCK", block):
            assert same_boxes(association._fused_detections(*inputs), old_chain(*inputs))

    @pytest.mark.parametrize("block", [1, 7, detection.NMS_BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(frame_candidates(public=True))
    def test_public_mode(self, block, inputs):
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(detection, "NMS_BLOCK", block):
            assert same_boxes(association._fused_detections(*inputs), old_chain(*inputs))

    def test_empty_base_set(self):
        # No detector score reaches the threshold: every propagated box is restored.
        cells = np.arange(6, dtype=np.intp)
        decoded = Boxes(cx=[0.5, 1.5, 2.5, 3.5, 4.5, 5.5], cy=[0.5] * 6, w=[1.5] * 6,
                        h=[1.0] * 6, score=[0.2] * 6)
        m_p = np.zeros((GRID, GRID), np.float32)
        m_p[0, :6] = [0.9, 0.9, 0.6, 0.8, 0.1, 0.7]
        p = PipelineConfig()
        got = association._fused_detections(decoded, cells, m_p, p)
        assert same_boxes(got, old_chain(decoded, cells, m_p, p))
        assert len(got) > 0 and got.restored.all()

    @pytest.mark.parametrize("step, restored", [(0, True), (1, False)])
    def test_vote_on_its_boundary(self, step, restored):
        # One basic box (cell 0) and one transductive box (cell 1) with IOU
        # 1/3: targetness 2/3 is restored at epsilon 2/3, not one step above.
        cells = np.array([0, 1], dtype=np.intp)
        decoded = Boxes(cx=[1.0, 2.0], cy=[1.0, 1.0], w=[2.0, 2.0], h=[2.0, 2.0],
                        score=[0.9, 0.1])
        m_p = np.zeros((GRID, GRID), np.float32)
        m_p[0, :2] = [0.1, 0.9]
        tie = 1.0 - float(iou(decoded[[0]], decoded[[1]])[0, 0])
        p = PipelineConfig(fusion_epsilon=float(np.nextafter(tie, 2.0)) if step else tie)
        got = association._fused_detections(decoded, cells, m_p, p)
        assert same_boxes(got, old_chain(decoded, cells, m_p, p))
        assert got.restored.tolist() == ([False, True] if restored else [False])

    @pytest.mark.parametrize("block", [1, 7])
    def test_tracker_rows_without_the_table(self, monkeypatch, block):
        # A small NMS_BLOCK makes every stage compute its own IOU per block.
        frames, _, _ = generate(ScenarioConfig(num_targets=3, height=12, width=12,
                                               frames=20, dropout_prob=0.4, seed=0))
        want, _ = track_sequence(frames)
        monkeypatch.setattr(detection, "NMS_BLOCK", block)
        got, tracker = track_sequence(frames)
        assert got == want
        assert tracker.restored_emitted > 0


def argmax_match_oracle(scores, thr, row_open, col_open):
    """The argmax-per-match loop that the sorted sweep replaced."""
    pairs = []
    if not row_open or not col_open:
        return pairs
    work = scores[np.ix_(row_open, col_open)].astype(np.float64)
    rmap = list(row_open)
    cmap = list(col_open)
    while work.size:
        flat = int(np.argmax(work))
        i, j = divmod(flat, work.shape[1])
        if work[i, j] < thr:
            break
        pairs.append((rmap[i], cmap[j]))
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    return pairs


# Ties, NaN (an IOU of infinite-size boxes), infinities and both zeros.
MATCH_VALUE = st.one_of(
    st.sampled_from([math.nan, -math.inf, math.inf, -0.0, 0.0, 0.5, 0.6, 0.6, 1.0]),
    st.floats(min_value=-1.0, max_value=1.0),
)


@st.composite
def match_problems(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    values = draw(st.lists(MATCH_VALUE, min_size=rows * cols, max_size=rows * cols))
    scores = np.array(values, dtype=np.float64).reshape(rows, cols)
    row_open = sorted(draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)))
    col_open = sorted(draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols)))
    return scores, draw(st.sampled_from([0.0, 0.5, 0.6, 1.0])), row_open, col_open


class TestSortedSweepMatch:
    @settings(max_examples=400)
    @given(match_problems())
    def test_same_pairs_as_the_argmax_loop(self, problem):
        assert association._greedy_matrix_match(*problem) == argmax_match_oracle(*problem)

    def test_nan_entries_first_in_row_major_order(self):
        scores = np.array([[0.9, math.nan], [math.nan, 1.0], [math.nan, 0.2]])
        got = association._greedy_matrix_match(scores, 0.5, [0, 1, 2], [0, 1])
        assert got == [(0, 1), (1, 0)] == argmax_match_oracle(scores, 0.5, [0, 1, 2], [0, 1])

    def test_ties_row_major(self):
        scores = np.full((3, 3), 0.7)
        got = association._greedy_matrix_match(scores, 0.6, [0, 1, 2], [0, 1, 2])
        assert got == [(0, 0), (1, 1), (2, 2)]
