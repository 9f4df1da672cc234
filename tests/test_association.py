import numpy as np
import pytest

from omctrack.association import (
    PipelineConfig,
    Tracker,
    TrackerConfig,
    Tracklet,
    associate,
    extract_embeddings,
    track_sequence,
    update_tracklets,
)
from omctrack.detection import Box, Boxes
from omctrack.frame_io import MotBox
from omctrack.numerics import l2_normalize
from omctrack.recheck import EmbeddingSet
from omctrack.synth import ScenarioConfig, generate

from test_numerics import whole_grid_normalize


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


def basis_vec(i, dim=8):
    v = np.zeros(dim, dtype=np.float32)
    v[i] = 1.0
    return v


def tracklet(tid, emb, cx=1.0, cy=1.0, w=2.0, h=2.0):
    return Tracklet(
        id=tid,
        embedding=np.asarray(emb, dtype=np.float32),
        last_box=Box(cx=cx, cy=cy, w=w, h=h, score=1.0),
    )


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
        assert np.allclose(es.vectors[0], unit(grid[2, 3]), atol=1e-6)

    def test_empty_list(self):
        grid = np.zeros((4, 4, 8), dtype=np.float32)
        es = extract_embeddings(Boxes.of([]), grid)
        assert len(es) == 0

    def test_center_outside_clamped(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(4, 4, 8)).astype(np.float32)
        boxes = Boxes.of([Box(cx=-0.4, cy=4.4, w=1, h=1, score=1.0)])
        es = extract_embeddings(boxes, grid)
        assert np.allclose(es.vectors[0], unit(grid[3, 0]), atol=1e-6)

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
        assert np.array_equal(es.vectors[0], l2_normalize(grid[2, 3]))

    def test_raw_grid_same_bits_as_reading_a_normalized_grid(self):
        rng = np.random.default_rng(2)
        grid = (rng.normal(size=(9, 13, 32))
                * rng.choice([1e-3, 1.0, 1e4], size=(9, 13, 1))).astype(np.float32)
        grid[::2, ::3] = 0.0
        boxes = Boxes.of([Box(cx=x, cy=y, w=1, h=1, score=1.0)
                          for x, y in rng.uniform(-2.0, 15.0, size=(40, 2))])
        # The readout of an already normalized grid: clamp, read, l2_normalize.
        f_id = whole_grid_normalize(grid)
        cols = np.clip(np.floor(boxes.cx), 0, 12).astype(int)
        rows = np.clip(np.floor(boxes.cy), 0, 8).astype(int)
        expected = np.stack([l2_normalize(f_id[r, c]) for r, c in zip(rows, cols)])
        assert np.array_equal(extract_embeddings(boxes, grid).vectors, expected)


class TestAssociate:
    def test_identical_embedding_matches(self):
        e = basis_vec(0)
        trk = [tracklet(7, e)]
        boxes = Boxes.of([Box(cx=9, cy=9, w=2, h=2, score=1.0)])
        es = EmbeddingSet(np.stack([e]))
        matches, un_t, un_b = associate(trk, boxes, es, TrackerConfig())
        assert matches == [(7, 0)]
        assert un_t == [] and un_b == []

    def test_orthogonal_embedding_falls_back_to_iou(self):
        trk = [tracklet(3, basis_vec(0), cx=5, cy=5)]
        boxes = Boxes.of([Box(cx=5.1, cy=5.0, w=2, h=2, score=1.0)])
        es = EmbeddingSet(np.stack([basis_vec(1)]))
        matches, un_t, un_b = associate(trk, boxes, es, TrackerConfig())
        assert matches == [(3, 0)]

    def test_below_both_thresholds_unmatched(self):
        trk = [tracklet(3, basis_vec(0), cx=0, cy=0)]
        boxes = Boxes.of([Box(cx=30, cy=30, w=2, h=2, score=1.0)])
        es = EmbeddingSet(np.stack([basis_vec(1)]))
        matches, un_t, un_b = associate(trk, boxes, es, TrackerConfig())
        assert matches == []
        assert un_t == [3] and un_b == [0]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="count"):
            associate([], Boxes.of([Box(cx=0, cy=0, w=1, h=1, score=1)]),
                      EmbeddingSet.empty(8), TrackerConfig())

    def test_matches_sorted_pairs_oracle(self):
        rng = np.random.default_rng(2)
        # tracklet boxes are far from candidate boxes, so stage 2 never fires
        cfg = TrackerConfig(emb_match_thr=0.3, iou_match_thr=1.0)
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
            es = EmbeddingSet(box_vecs.astype(np.float32))
            actual_sims = trk_vecs @ box_vecs.T
            matches, _, _ = associate(trk, boxes, es, cfg)
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
        es = EmbeddingSet(vecs[[0, 0, 1, 2, 5]].astype(np.float32))
        matches, un_t, un_b = associate(trk, boxes, es, TrackerConfig())
        tids = [t for t, _ in matches]
        cols = [j for _, j in matches]
        assert len(set(tids)) == len(tids)
        assert len(set(cols)) == len(cols)
        assert set(tids + un_t) == {1, 2, 3, 4}
        assert sorted(cols + un_b) == [0, 1, 2, 3, 4]


class TestUpdateTracklets:
    def test_removal_at_exactly_k_misses(self):
        cfg = TrackerConfig(retention_frames=30)
        t = tracklet(1, basis_vec(0))
        active = [t]
        for frame in range(2, 32):
            active, new, _ = update_tracklets(
                active, [], Boxes.of([]), EmbeddingSet.empty(8), cfg, next_id=2
            )
        assert active == []
        assert t.state == "removed"
        assert t.miss_count == 30

    def test_survives_through_k_minus_one(self):
        cfg = TrackerConfig(retention_frames=30)
        active = [tracklet(1, basis_vec(0))]
        for frame in range(2, 31):
            active, _, _ = update_tracklets(
                active, [], Boxes.of([]), EmbeddingSet.empty(8), cfg, next_id=2
            )
        assert len(active) == 1
        assert active[0].miss_count == 29

    def test_updated_mode_fixed_point(self):
        cfg = TrackerConfig(embedding_mode="updated", embedding_momentum=0.9)
        e = unit(np.arange(1, 9))
        t = tracklet(1, e)
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
        active, _, _ = update_tracklets(
            [t], [(1, 0)], boxes, EmbeddingSet(np.stack([e])), cfg, next_id=2
        )
        assert np.allclose(active[0].embedding, e, atol=1e-6)

    def test_first_mode_frozen(self):
        cfg = TrackerConfig(embedding_mode="first")
        e0 = basis_vec(0)
        t = tracklet(1, e0)
        for frame in range(2, 6):
            es = EmbeddingSet(np.stack([basis_vec(frame % 8)]))
            boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
            update_tracklets([t], [(1, 0)], boxes, es, cfg, next_id=2)
        assert np.array_equal(t.embedding, e0)

    def test_last_mode_replaces(self):
        cfg = TrackerConfig(embedding_mode="last")
        t = tracklet(1, basis_vec(0))
        es = EmbeddingSet(np.stack([basis_vec(3)]))
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
        update_tracklets([t], [(1, 0)], boxes, es, cfg, next_id=2)
        assert np.array_equal(t.embedding, basis_vec(3))

    def test_updated_mode_keeps_unit_norm(self):
        rng = np.random.default_rng(4)
        cfg = TrackerConfig(embedding_mode="updated", embedding_momentum=0.7)
        t = tracklet(1, unit(rng.normal(size=8)))
        for frame in range(2, 12):
            es = EmbeddingSet(np.stack([unit(rng.normal(size=8))]))
            boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0)])
            update_tracklets([t], [(1, 0)], boxes, es, cfg, next_id=2)
            assert abs(np.linalg.norm(t.embedding.astype(np.float64)) - 1.0) < 1e-6

    def test_unmatched_boxes_spawn_with_monotone_ids(self):
        cfg = TrackerConfig()
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0),
                          Box(cx=8, cy=8, w=2, h=2, score=1.0)])
        es = EmbeddingSet(np.stack([basis_vec(0), basis_vec(1)]))
        active, new, next_id = update_tracklets([], [], boxes, es, cfg, next_id=5)
        assert [t.id for t in new] == [5, 6]
        assert next_id == 7

    def test_spawnable_filter(self):
        cfg = TrackerConfig()
        boxes = Boxes.of([Box(cx=1, cy=1, w=2, h=2, score=1.0),
                          Box(cx=8, cy=8, w=2, h=2, score=1.0)])
        es = EmbeddingSet(np.stack([basis_vec(0), basis_vec(1)]))
        _, new, _ = update_tracklets([], [], boxes, es, cfg, next_id=1,
                                     spawnable={1})
        assert len(new) == 1
        assert new[0].last_box.cx == 8


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
        tracker = Tracker(tracker_cfg=TrackerConfig(retention_frames=2))
        tracker.step(frames[0])
        assert len(tracker.tracklets) == 3
        bad = frames[1]
        bad.prob = np.full_like(bad.prob, 2.0)  # invalid: outside [0, 1]
        assert tracker.step(bad) == []
        assert all(t.miss_count == 1 for t in tracker.tracklets)

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

    def test_determinism_identical_rows(self):
        cfg = small_scenario(frames=12, dropout_prob=0.25)
        frames, _, _ = generate(cfg)
        rows_a, _ = track_sequence(frames)
        rows_b, _ = track_sequence(frames)
        assert rows_a == rows_b

    def test_ids_never_reused(self):
        cfg = small_scenario(frames=25, dropout_prob=0.3, seed=5)
        frames, _, _ = generate(cfg)
        tracker = Tracker(tracker_cfg=TrackerConfig(retention_frames=3))
        born = []
        for f in frames:
            before = tracker.next_id
            tracker.step(f)
            born.extend(range(before, tracker.next_id))
        assert len(born) == len(set(born))
        assert born == sorted(born)


class TestTrackerStepMemory:
    def test_peak_with_live_tracklets_below_the_embedding_grid(self, traced_peak_bytes):
        # No normalized copy of the grid and no whole-tensor bool array: the
        # step used to peak at about 1.57x the embedding grid's bytes.
        cfg = ScenarioConfig(num_targets=20, height=152, width=272, frames=2,
                             embed_dim=64, stride=4, seed=3)
        frames, _, _ = generate(cfg)
        tracker = Tracker(PipelineConfig(stride=cfg.stride))
        tracker.step(frames[0])
        assert len(tracker.tracklets) == 20
        peak = traced_peak_bytes(tracker.step, frames[1])
        assert peak <= 0.75 * frames[1].embed.nbytes
