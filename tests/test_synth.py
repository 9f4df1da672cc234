import math
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omctrack.association import PipelineConfig, track_sequence
from omctrack.frame_io import MotBox, write_container
from omctrack.metrics import evaluate
from omctrack.recheck import EmbeddingSet, cross_correlate
from omctrack import synth
from omctrack.synth import (
    RESTORE_IOU,
    ScenarioConfig,
    generate,
    iter_generate,
    restoration_report,
)
from test_container_bytes import CASES, sha256_file
from test_golden_rows import CLUTTER, DESK
from test_metrics import evaluate_oracle, loose_rows, mot_iou


def restoration_oracle(tracker_output, gt, dropped):
    """`restoration_report` with one mot_iou call per (row, gt box) pair."""
    gt_by_key = {(b.frame, b.id): b for b in gt}
    out_by_frame = {}
    for row in tracker_output:
        out_by_frame.setdefault(row.frame, []).append(row)
    votes = {}
    for b in gt:
        best_iou, best_id = 0.0, None
        for row in out_by_frame.get(b.frame, []):
            ov = mot_iou(row, b)
            if ov >= RESTORE_IOU and ov > best_iou:
                best_iou, best_id = ov, row.id
        if best_id is not None:
            votes.setdefault(b.id, Counter())[best_id] += 1
    mapping = {gid: min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
               for gid, counter in votes.items()}
    breakdown, restored = [], 0
    for frame, gid in dropped:
        g = gt_by_key[(frame, gid)]
        expected = mapping.get(gid)
        hit_iou, hit_id, ok = 0.0, -1, False
        for row in out_by_frame.get(frame, []):
            ov = mot_iou(row, g)
            if row.id == expected and ov >= RESTORE_IOU and ov > hit_iou:
                hit_iou, hit_id, ok = ov, row.id, True
        restored += ok
        breakdown.append((frame, gid, ok, hit_id, hit_iou))
    return (restored / len(dropped) if dropped else 1.0), breakdown


def assert_report_equals_oracle(rows, gt, dropped):
    recall, breakdown = restoration_report(rows, gt, dropped)
    want_recall, want = restoration_oracle(rows, gt, dropped)
    assert recall == want_recall
    assert breakdown == want
    for row in breakdown:
        assert [type(v) for v in row[:4]] == [int, int, bool, int]
        assert isinstance(row[4], float)


def small(**kw):
    defaults = dict(num_targets=3, height=14, width=14, frames=25,
                    seed=2, embed_dim=64, feat_dim=8)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def container_bytes(frames, tmp_path, name):
    path = tmp_path / name
    write_container(frames, path)
    return path.read_bytes()


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        a, _, _ = generate(small())
        b, _, _ = generate(small())
        assert container_bytes(a, tmp_path, "a.omcf") == container_bytes(
            b, tmp_path, "b.omcf"
        )

    def test_different_seed_differs(self, tmp_path):
        a, _, _ = generate(small(seed=1))
        b, _, _ = generate(small(seed=2))
        assert container_bytes(a, tmp_path, "a.omcf") != container_bytes(
            b, tmp_path, "b.omcf"
        )

    def test_dropout_bookkeeping(self):
        cfg = small(frames=60, dropout_prob=0.3, seed=4)
        frames, gt, dropped = generate(cfg)
        assert len(set(dropped)) == len(dropped)
        assert all(f >= 2 for f, _ in dropped)          # never the first frame
        # every recorded drop has the suppressed probability at its center
        gt_by_key = {(b.frame, b.id): b for b in gt}
        for f, gid in dropped:
            b = gt_by_key[(f, gid)]
            cy = int((b.y + b.h / 2) / cfg.stride)
            cx = int((b.x + b.w / 2) / cfg.stride)
            assert frames[f - 1].prob[cy, cx, 0] == np.float32(0.01)
        # binomial scale sanity: p=0.3 over (frames-1)*targets candidates
        candidates = (60 - 1) * 3
        assert 0.15 * candidates < len(dropped) < 0.45 * candidates

    def test_gt_boxes_inside_pixel_grid(self):
        cfg = small()
        _, gt, _ = generate(cfg)
        for b in gt:
            assert b.x >= -1e-6 and b.y >= -1e-6
            assert b.x + b.w <= cfg.width * cfg.stride + 1e-6
            assert b.y + b.h <= cfg.height * cfg.stride + 1e-6

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            generate(small(size_min=15.0, size_max=15.0)).__len__()

    @pytest.mark.parametrize("num_targets", [3, 8, 9])
    def test_targets_must_leave_a_spare_dimension(self, num_targets):
        # With as many identities as dimensions no direction is orthogonal
        # to all of them, and background cells become normalized rounding
        # noise (NaN for some cells at 3 targets in 3 dimensions).
        with pytest.raises(ValueError, match="embed_dim"):
            iter_generate(small(num_targets=num_targets, embed_dim=min(num_targets, 8)))

    @pytest.mark.parametrize("feat_dim", [0, 1])
    def test_feat_dim_must_hold_the_cell_coordinates(self, feat_dim):
        with pytest.raises(ValueError, match="feat_dim"):
            iter_generate(small(feat_dim=feat_dim))

    def test_one_spare_dimension_meets_the_clutter_bound(self):
        cfg = small(num_targets=7, embed_dim=8, clutter_similarity=0.3, frames=3,
                    size_min=1.0, size_max=2.0, seed=5)
        frames, gt, _ = generate(cfg)
        for frame in frames:
            boxes = [b for b in gt if b.frame == frame.frame_index]
            # A target stamps its identity into every cell whose center its
            # box covers; the rest are background.
            covered = np.zeros((cfg.height, cfg.width), dtype=bool)
            centers_x = (np.arange(cfg.width) + 0.5) * cfg.stride
            centers_y = (np.arange(cfg.height) + 0.5) * cfg.stride
            identities = []
            for b in sorted(boxes, key=lambda b: b.id):
                in_x = (b.x <= centers_x) & (centers_x <= b.x + b.w)
                in_y = (b.y <= centers_y) & (centers_y <= b.y + b.h)
                covered |= in_y[:, None] & in_x[None, :]
                cy = int((b.y + b.h / 2) / cfg.stride)
                cx = int((b.x + b.w / 2) / cfg.stride)
                identities.append(frame.embed[cy, cx].astype(np.float64))
            background = frame.embed[~covered].astype(np.float64)
            assert len(background) > 0
            assert np.all(np.isfinite(background))
            cosines = background @ np.stack(identities).T
            assert np.max(np.abs(cosines)) <= cfg.clutter_similarity + 1e-5

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["speed_min", "speed_max", "dropout_prob",
                                       "embedding_noise", "clutter_similarity",
                                       "size_min", "size_max", "bar_h_scale"])
    def test_float_field_that_is_not_finite_is_named(self, field, value):
        # A NaN passes every range check written as a comparison, and an
        # infinity passes the one-sided ones.
        with pytest.raises(ValueError) as err:
            small(**{field: value})
        assert str(err.value) == f"{field} must be finite, got {value}"

    @pytest.mark.parametrize("field, value", [("frames", 2.5), ("embed_dim", math.nan),
                                              ("num_targets", 2.0), ("seed", math.inf)])
    def test_int_field_that_is_not_an_integer_is_named(self, field, value):
        with pytest.raises(ValueError) as err:
            small(**{field: value})
        assert str(err.value) == f"{field} must be an integer, got {value}"

    def test_clutter_boxes_must_fit_the_grid(self):
        with pytest.raises(ValueError, match="clutter boxes"):
            small(height=2, width=2, size_min=1.0, size_max=2.0)

    def test_gt_self_evaluates_perfect(self):
        _, gt, _ = generate(small())
        r = evaluate(gt, list(gt))
        assert (r.fp, r.fn, r.idsw, r.mota) == (0, 0, 0, 1.0)

    def test_embedding_grid_is_unit_and_bounded(self):
        cfg = small(clutter_similarity=0.3)
        frames, gt, _ = generate(cfg)
        frame = frames[10]
        norms = np.linalg.norm(frame.embed.astype(np.float64), axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-5


class TestStreaming:
    @settings(max_examples=25, deadline=None)
    @given(
        num_targets=st.integers(1, 4),
        height=st.integers(4, 11),
        width=st.integers(4, 70),
        frames=st.integers(1, 4),
        dropout_prob=st.sampled_from([0.0, 0.5]),
        embedding_noise=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**16),
    )
    def test_generate_is_the_concatenated_stream(self, **kw):
        cfg = small(embed_dim=16, feat_dim=4, size_min=1.0, size_max=2.0, **kw)
        frames, gt, dropped = generate(cfg)
        streamed = list(iter_generate(cfg))
        assert [f.frame_index for f, _, _ in streamed] == list(range(1, cfg.frames + 1))
        assert len(frames) == len(streamed)
        for frame, (other, _, _) in zip(frames, streamed):
            for name, arr in frame.tensors().items():
                assert np.array_equal(arr, other.tensors()[name]), name
        assert gt == [b for _, rows, _ in streamed for b in rows]
        assert dropped == [pair for _, _, pairs in streamed for pair in pairs]
        assert all(b.frame == f.frame_index for f, rows, _ in streamed for b in rows)

    def test_config_checked_before_the_first_frame(self):
        with pytest.raises(ValueError, match="fit"):
            iter_generate(small(size_min=15.0, size_max=15.0))

    def test_written_stream_peak_does_not_grow_with_frames(self, tmp_path, traced_peak_bytes):
        def write(count):
            cfg = small(height=16, width=16, frames=count)
            write_container(
                (frame for frame, _, _ in iter_generate(cfg)), tmp_path / "w.omcf"
            )

        write(1)  # warm caches so neither measured run pays for first use
        two = traced_peak_bytes(write, 2)
        twelve = traced_peak_bytes(write, 12)
        assert twelve <= 1.5 * two


class TestDrawThread:
    """Each frame's random numbers are drawn on a worker, one frame ahead."""

    def test_closing_early_leaves_no_thread_and_the_world_unchanged(self, tmp_path):
        before = threading.active_count()
        stream = iter_generate(small(frames=6))
        next(stream)
        assert threading.active_count() == before + 1  # drawing frame 2
        stream.close()
        assert threading.active_count() == before
        scenario, container_digest, _ = CASES["noisy20"]
        frames, _, _ = generate(ScenarioConfig(**scenario))
        write_container(frames, tmp_path / "world.omcf")
        assert sha256_file(tmp_path / "world.omcf") == container_digest

    def test_draw_error_reraises_from_next(self, monkeypatch):
        class DrawFailed(Exception):
            pass

        draw = synth._draw
        raised = DrawFailed("frame 3")

        def failing_draw(rng, cfg, t, out):
            if t == 3:
                raise raised
            return draw(rng, cfg, t, out)

        monkeypatch.setattr(synth, "_draw", failing_draw)
        before = threading.active_count()
        stream = iter_generate(small(frames=6))
        assert [next(stream)[0].frame_index for _ in range(2)] == [1, 2]
        with pytest.raises(DrawFailed) as info:
            next(stream)
        assert info.value is raised
        assert threading.active_count() == before
        with pytest.raises(StopIteration):
            next(stream)

    def test_build_error_waits_for_the_draw_and_leaves_no_thread(self, monkeypatch):
        background = synth._background
        calls = []

        def failing_background(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("frame 2")
            return background(*args)

        monkeypatch.setattr(synth, "_background", failing_background)
        before = threading.active_count()
        stream = iter_generate(small(frames=6))
        next(stream)
        with pytest.raises(RuntimeError, match="frame 2"):
            next(stream)
        assert threading.active_count() == before

    def test_generate_leaves_the_thread_count(self):
        before = threading.active_count()
        frames, _, _ = generate(small(frames=12))
        assert len(frames) == 12
        assert threading.active_count() == before


class TestNoiseFreeSeparation:
    def test_correlation_argmax_lands_inside_own_box(self):
        cfg = small(clutter_similarity=0.45, seed=9)
        frames, gt, _ = generate(cfg)
        # recover identity templates from first-frame center cells
        first = frames[0]
        gt1 = [b for b in gt if b.frame == 1]
        vectors = []
        for b in sorted(gt1, key=lambda b: b.id):
            cy = int((b.y + b.h / 2) / cfg.stride)
            cx = int((b.x + b.w / 2) / cfg.stride)
            vectors.append(first.embed[cy, cx])
        gids = sorted(b.id for b in gt1)
        e_set = EmbeddingSet(np.stack(vectors))
        for frame in frames:
            stack = cross_correlate(e_set, frame.embed)
            for i, gid in enumerate(gids):
                b = next(x for x in gt if x.frame == frame.frame_index and x.id == gid)
                cy, cx = divmod(int(np.argmax(stack[i])), cfg.width)
                x_cell = (cx + 0.5) * cfg.stride
                y_cell = (cy + 0.5) * cfg.stride
                assert b.x - cfg.stride / 2 <= x_cell <= b.x + b.w + cfg.stride / 2
                assert b.y - cfg.stride / 2 <= y_cell <= b.y + b.h + cfg.stride / 2
                assert stack[i, cy, cx] > cfg.clutter_similarity


class TestEndToEnd:
    def test_no_dropout_tracks_perfectly(self):
        # crossing-free regime: every detection survives NMS, so the
        # noise-free tracker is analytically forced to be perfect
        cfg = ScenarioConfig(num_targets=3, height=24, width=24, frames=40,
                             seed=12, embed_dim=64, feat_dim=8,
                             speed_min=0.05, speed_max=0.15)
        frames, gt, dropped = generate(cfg)
        assert dropped == []
        rows, tracker = track_sequence(frames)
        report = evaluate(gt, rows)
        assert report.mota == 1.0
        assert report.idf1 == 1.0

    def test_restoration_recall_zero_without_recheck(self):
        # sparse crossing-free scenario: the detector-only tracker has no
        # mechanism to produce boxes on dropped frames
        cfg = ScenarioConfig(num_targets=3, height=24, width=24, frames=50,
                             dropout_prob=0.25, seed=12, embed_dim=64,
                             feat_dim=8, speed_min=0.05, speed_max=0.15)
        frames, gt, dropped = generate(cfg)
        assert dropped
        rows, _ = track_sequence(frames, PipelineConfig(recheck_enabled=False))
        recall, breakdown = restoration_report(rows, gt, dropped)
        assert recall == 0.0
        assert all(not ok for _, _, ok, _, _ in breakdown)

    def test_restoration_recall_high_with_recheck(self):
        cfg = ScenarioConfig(num_targets=3, height=24, width=24, frames=50,
                             dropout_prob=0.25, seed=12, embed_dim=64,
                             feat_dim=8, speed_min=0.05, speed_max=0.15)
        frames, gt, dropped = generate(cfg)
        rows, _ = track_sequence(frames)
        recall, breakdown = restoration_report(rows, gt, dropped)
        assert recall >= 0.95
        assert len(breakdown) == len(dropped)

    def test_restoration_report_empty_dropped(self):
        frames, gt, dropped = generate(small(frames=10))
        rows, _ = track_sequence(frames)
        recall, breakdown = restoration_report(rows, gt, dropped)
        assert recall == 1.0
        assert breakdown == []

    def test_shrink_reduces_false_positives_on_clutter(self):
        cfg = ScenarioConfig(num_targets=3, height=12, width=12, frames=40,
                             dropout_prob=0.2, clutter_similarity=0.6,
                             seed=3, embed_dim=64, feat_dim=8)
        frames, gt, _ = generate(cfg)
        fps = {}
        for radius in (3.0, math.inf):
            rows, tr = track_sequence(frames, PipelineConfig(shrink_radius=radius))
            fps[radius] = evaluate(gt, rows).fp
        assert fps[3.0] <= fps[math.inf]


class TestAgainstLoopOracles:
    """Restoration report and evaluation equal their per-pair loop versions."""

    @pytest.mark.parametrize("scenario", [DESK, CLUTTER], ids=["desk", "clutter"])
    def test_golden_worlds(self, scenario):
        frames, gt, dropped = generate(ScenarioConfig(**scenario))
        rows, tracker = track_sequence(frames)
        assert dropped
        assert_report_equals_oracle(rows, gt, dropped)
        report = evaluate(gt, rows, restored_count=tracker.restored_emitted)
        assert report == evaluate_oracle(gt, rows, restored_count=tracker.restored_emitted)

    @settings(max_examples=300)
    @given(loose_rows.filter(bool), loose_rows, st.data())
    def test_drawn_sequences(self, gt, rows, data):
        keys = sorted({(b.frame, b.id) for b in gt})
        dropped = data.draw(st.lists(st.sampled_from(keys), max_size=8))
        assert_report_equals_oracle(rows, gt, dropped)

    def test_tied_rows_vote_for_the_first(self):
        # Frame 1 holds two equal boxes and the first (id 7) takes the vote,
        # so ids 7 and 9 tie at two votes each and the smaller id wins.
        gt = [MotBox(f, 1, 0.0, 0.0, 10.0, 10.0, 1.0) for f in (1, 2, 3, 4)]
        rows = [MotBox(f, tid, 0.0, 0.0, w, 10.0, 1.0)
                for f, tid, w in ((1, 7, 10.0), (1, 9, 10.0), (2, 7, 10.0),
                                  (3, 9, 10.0), (4, 7, 5.0), (4, 9, 10.0))]
        assert_report_equals_oracle(rows, gt, [(4, 1)])
        assert restoration_report(rows, gt, [(4, 1)])[1] == [(4, 1, True, 7, 0.5)]
