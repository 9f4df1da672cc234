import math

import numpy as np
import pytest

from omctrack import numerics
from omctrack.detection import Box, decode_boxes
from omctrack.frame_io import write_omcf
from omctrack.numerics import conv3x3_forward, l2_normalize, l2_normalize_grid, matmul, sigmoid
from omctrack.recheck import (
    EmbeddingSet,
    RefineWeights,
    aggregate,
    cross_correlate,
    refine,
    shrink_mask,
    transductive_detections,
)

from test_numerics import RAGGED_SHAPES, whole_grid_normalize


def unit_rows(rng, n, dim):
    v = rng.normal(size=(n, dim))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)


def correlate_oracle(vectors, grid):
    """Per-target, per-cell dot-product loop."""
    n = len(vectors)
    h, w, _ = grid.shape
    out = np.zeros((n, h, w))
    for i in range(n):
        for y in range(h):
            for x in range(w):
                out[i, y, x] = float(np.dot(
                    vectors[i].astype(np.float64), grid[y, x].astype(np.float64)
                ))
    return out


def whole_grid_correlate(vectors, grid):
    """Reference: one (n, C) x (C, H*W) float64 product over the whole grid."""
    h, w, c = grid.shape
    if len(vectors) == 0:
        return np.zeros((0, h, w), dtype=np.float32)
    return matmul(vectors, grid.reshape(h * w, c).T).reshape(len(vectors), h, w)


class TestEmbeddingSet:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norms"):
            EmbeddingSet(np.full((1, 4), 2.0, dtype=np.float32))

    def test_allows_zero_rows(self):
        es = EmbeddingSet(np.zeros((2, 4), dtype=np.float32))
        assert len(es) == 2
        assert es.source_ids == [-1, -1]

    def test_source_id_length_checked(self):
        with pytest.raises(ValueError, match="source_ids"):
            EmbeddingSet(np.zeros((2, 4), dtype=np.float32), [1])


class TestCrossCorrelate:
    def test_empty_set(self):
        grid = np.zeros((4, 4, 8), dtype=np.float32)
        out = cross_correlate(EmbeddingSet.empty(8), grid)
        assert out.shape == (0, 4, 4)

    def test_peak_at_matching_cell(self):
        rng = np.random.default_rng(0)
        dim = 16
        e = unit_rows(rng, 1, dim)
        e64 = e[0].astype(np.float64)
        # grid orthogonal to e everywhere except one cell equal to e
        grid = rng.normal(size=(5, 6, dim))
        grid -= (grid @ e64)[:, :, None] * e64
        grid /= np.linalg.norm(grid, axis=2, keepdims=True)
        grid = grid.astype(np.float32)
        grid[3, 2] = e[0]
        maps = cross_correlate(EmbeddingSet(e), grid)
        assert maps.shape == (1, 5, 6)
        assert np.argmax(maps[0]) == 3 * 6 + 2
        assert abs(maps[0, 3, 2] - 1.0) < 1e-6

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        e = unit_rows(rng, 3, 16)
        grid = l2_normalize_grid(rng.normal(size=(8, 8, 16)).astype(np.float32))
        maps = cross_correlate(EmbeddingSet(e), grid)
        assert np.max(np.abs(maps - correlate_oracle(e, grid))) < 1e-5

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            cross_correlate(
                EmbeddingSet(np.zeros((1, 8), dtype=np.float32)),
                np.zeros((2, 2, 16), dtype=np.float32),
            )

    def test_cosine_bound_with_unit_inputs(self):
        rng = np.random.default_rng(2)
        e = unit_rows(rng, 4, 32)
        grid = l2_normalize_grid(rng.normal(size=(10, 10, 32)).astype(np.float32))
        maps = cross_correlate(EmbeddingSet(e), grid)
        assert np.all(np.abs(maps) <= 1.0 + 1e-5)


class TestBlockwiseCorrelate:
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("block_cells", [1, 3, 7, numerics.BLOCK_CELLS])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (153, 3), (45, 29)])
    def test_bit_identical_to_whole_grid(self, monkeypatch, shape, block_cells, n):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(sum(shape) + n)
        grid = l2_normalize_grid(rng.normal(size=shape + (32,)).astype(np.float32))
        grid[::3, ::2] = 0.0  # all-zero cells respond 0
        e = unit_rows(rng, n, 32)
        maps = cross_correlate(EmbeddingSet(e), grid)
        assert maps.shape == (n,) + shape
        assert maps.dtype == np.float32
        assert np.array_equal(maps, whole_grid_correlate(e, grid))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_last_block_raises(self, monkeypatch, bad):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", 7)
        grid = np.zeros((153, 3, 8), dtype=np.float32)
        grid[-1, -1, 0] = bad
        e = unit_rows(np.random.default_rng(3), 2, 8)
        with pytest.raises(ValueError, match="non-finite"):
            cross_correlate(EmbeddingSet(e), grid)

    def test_peak_memory_at_most_output_plus_a_quarter_grid(self, traced_peak_bytes):
        # The whole-grid version peaked at about 2.6x the grid's bytes.
        rng = np.random.default_rng(4)
        grid = l2_normalize_grid(rng.normal(size=(152, 272, 64)).astype(np.float32))
        e_set = EmbeddingSet(unit_rows(rng, 20, 64))
        out_bytes = 20 * 152 * 272 * 4
        peak = traced_peak_bytes(cross_correlate, e_set, grid)
        assert peak <= out_bytes + 0.25 * grid.nbytes


def raw_grid(rng, shape, dim):
    """Unnormalized cells: large magnitudes, plus all-zero cells."""
    g = rng.normal(size=shape + (dim,)) * rng.choice([1e-3, 1.0, 1e4], size=shape + (1,))
    g = g.astype(np.float32)
    g[::3, ::2] = 0.0
    return g


class TestFusedNormalizeCorrelate:
    """cross_correlate normalizes the raw grid itself, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("block_cells", [1, 3, 7, 64])
    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_raw_grid_bit_identical_to_normalize_then_correlate(
        self, monkeypatch, shape, block_cells, n
    ):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(7 * sum(shape) + n)
        grid = raw_grid(rng, shape, 32)
        e = unit_rows(rng, n, 32)
        maps = cross_correlate(EmbeddingSet(e), grid)
        assert maps.dtype == np.float32
        assert np.array_equal(maps, whole_grid_correlate(e, whole_grid_normalize(grid)))

    def test_responses_are_cosines(self):
        rng = np.random.default_rng(5)
        grid = raw_grid(rng, (9, 11), 16)
        e = unit_rows(rng, 3, 16)
        maps = cross_correlate(EmbeddingSet(e), grid)
        unit = grid / np.maximum(np.linalg.norm(grid, axis=2, keepdims=True), 1e-30)
        assert np.max(np.abs(maps - correlate_oracle(e, unit))) < 1e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_block_of_raw_grid_raises(self, monkeypatch, bad):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", 7)
        grid = raw_grid(np.random.default_rng(6), (153, 3), 8)
        grid[-1, -1, 3] = bad
        e = unit_rows(np.random.default_rng(3), 2, 8)
        with pytest.raises(ValueError, match="non-finite"):
            cross_correlate(EmbeddingSet(e), grid)


class TestShrinkMask:
    def test_interior_peak_seven_by_seven(self):
        m = np.zeros((20, 20), dtype=np.float32)
        m[9, 11] = 5.0
        mask = shrink_mask(m, 3)
        assert mask.sum() == 49
        ys, xs = np.nonzero(mask)
        assert ys.min() == 6 and ys.max() == 12
        assert xs.min() == 8 and xs.max() == 14

    def test_corner_peak_clipped(self):
        m = np.zeros((6, 6), dtype=np.float32)
        m[0, 0] = 1.0
        mask = shrink_mask(m, 1)
        assert mask.sum() == 4

    def test_matches_bruteforce_set(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = rng.normal(size=(9, 13)).astype(np.float32)
            r = int(rng.integers(0, 5))
            mask = shrink_mask(m, r)
            cy, cx = divmod(int(np.argmax(m)), 13)
            want = {
                (y, x)
                for y in range(9)
                for x in range(13)
                if abs(x - cx) <= r and abs(y - cy) <= r
            }
            got = set(zip(*np.nonzero(mask)))
            assert got == want

    def test_infinite_radius_keeps_all(self):
        m = np.zeros((3, 4), dtype=np.float32)
        assert shrink_mask(m, math.inf).sum() == 12

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            shrink_mask(np.zeros((2, 2), dtype=np.float32), -1)

    def test_argmax_tie_breaks_row_major(self):
        m = np.zeros((5, 5), dtype=np.float32)
        m[1, 3] = 1.0
        m[2, 0] = 1.0
        mask = shrink_mask(m, 0)
        assert mask[1, 3] == 1.0 and mask.sum() == 1


class TestAggregate:
    def test_single_map_full_window(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(1, 6, 6)).astype(np.float32)
        out = aggregate(stack, math.inf)
        assert np.allclose(out, stack[0], atol=1e-6)

    def test_empty_stack_zero_grid(self):
        out = aggregate(np.zeros((0, 4, 7), dtype=np.float32), 3)
        assert out.shape == (4, 7)
        assert np.all(out == 0.0)

    def test_disjoint_windows_paste_additively(self):
        stack = np.zeros((2, 12, 12), dtype=np.float32)
        stack[0, 2, 2] = 1.0
        stack[1, 9, 9] = 1.0
        out = aggregate(stack, 1)
        # loop oracle
        want = np.zeros((12, 12))
        for i in range(2):
            mask = shrink_mask(stack[i], 1)
            want += mask * stack[i]
        assert np.allclose(out, want, atol=1e-6)
        assert out[2, 2] == 1.0 and out[9, 9] == 1.0

    def test_nonzero_cell_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(0, 6))
            r = int(rng.integers(0, 4))
            stack = rng.normal(size=(n, 10, 14)).astype(np.float32)
            out = aggregate(stack, r)
            assert np.count_nonzero(out) <= n * (2 * r + 1) ** 2


def tiny_weights(rng, mid=6, head=5, feat=4, zero=False):
    def arr(*shape):
        if zero:
            return np.zeros(shape, dtype=np.float32)
        return rng.normal(scale=0.4, size=shape).astype(np.float32)

    return RefineWeights(
        mode="learned",
        conv1_w=arr(mid, 1, 3, 3), conv1_b=arr(mid),
        conv2_w=arr(1, mid, 3, 3), conv2_b=arr(1),
        head1_w=arr(head, feat, 3, 3), head1_b=arr(head),
        head2_w=arr(1, head, 3, 3), head2_b=arr(1),
    )


class TestRefine:
    def test_bypass_preserves_masked_peak(self):
        m_s = np.zeros((5, 5), dtype=np.float32)
        m_s[2, 3] = 1.0
        out = refine(m_s, np.zeros((5, 5, 4), dtype=np.float32), RefineWeights.bypass())
        assert out[2, 3] == 1.0
        assert out.max() == 1.0

    def test_bypass_clamps(self):
        m_s = np.array([[-0.5, 0.25], [1.5, 0.75]], dtype=np.float32)
        out = refine(m_s, np.zeros((2, 2, 4), dtype=np.float32), RefineWeights.bypass())
        assert np.array_equal(out, np.array([[0.0, 0.25], [1.0, 0.75]], dtype=np.float32))

    def test_bypass_preserves_argmax_below_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m_s = rng.uniform(-1.0, 1.0, size=(7, 9)).astype(np.float32)
            out = refine(m_s, np.zeros((7, 9, 4), dtype=np.float32), RefineWeights.bypass())
            assert np.argmax(out) == np.argmax(m_s)

    def test_all_zero_weights_give_half(self):
        rng = np.random.default_rng(7)
        w = tiny_weights(rng, zero=True)
        m_s = rng.normal(size=(6, 6)).astype(np.float32)
        f_t = rng.normal(size=(6, 6, 4)).astype(np.float32)
        out = refine(m_s, f_t, w)
        assert np.allclose(out, 0.5)

    def test_learned_matches_conv_chain_oracle(self):
        rng = np.random.default_rng(8)
        w = tiny_weights(rng)
        m_s = rng.normal(size=(6, 5)).astype(np.float32)
        f_t = rng.normal(size=(6, 5, 4)).astype(np.float32)
        out = refine(m_s, f_t, w)
        assert out.shape == (6, 5)
        assert np.all(out > 0.0) and np.all(out < 1.0)
        # independent recomposition of the chain
        x = conv3x3_forward(m_s[:, :, None], w.conv1_w, w.conv1_b)
        x = np.maximum(x, 0.0)
        ms_prime = conv3x3_forward(x, w.conv2_w, w.conv2_b)
        y = conv3x3_forward(f_t * ms_prime, w.head1_w, w.head1_b)
        y = np.maximum(y, 0.0)
        y = conv3x3_forward(y, w.head2_w, w.head2_b)[:, :, 0]
        assert np.max(np.abs(out - sigmoid(y))) < 1e-5

    def test_feature_size_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        w = tiny_weights(rng)
        with pytest.raises(ValueError):
            refine(np.zeros((4, 4), dtype=np.float32),
                   np.zeros((5, 5, 4), dtype=np.float32), w)

    def test_incomplete_weights_rejected(self):
        with pytest.raises(ValueError, match="requires weight"):
            RefineWeights(mode="learned")

    def test_chain_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        w = tiny_weights(rng)
        with pytest.raises(ValueError, match="conv2"):
            RefineWeights(
                mode="learned",
                conv1_w=w.conv1_w, conv1_b=w.conv1_b,
                conv2_w=np.zeros((1, 3, 3, 3), dtype=np.float32), conv2_b=w.conv2_b,
                head1_w=w.head1_w, head1_b=w.head1_b,
                head2_w=w.head2_w, head2_b=w.head2_b,
            )

    def test_load_from_omcf(self, tmp_path):
        rng = np.random.default_rng(11)
        w = tiny_weights(rng)
        path = tmp_path / "weights.omcf"
        write_omcf(path, [{
            "conv1.w": w.conv1_w, "conv1.b": w.conv1_b,
            "conv2.w": w.conv2_w, "conv2.b": w.conv2_b,
            "head1.w": w.head1_w, "head1.b": w.head1_b,
            "head2.w": w.head2_w, "head2.b": w.head2_b,
        }])
        loaded = RefineWeights.load(path)
        assert loaded.mode == "learned"
        assert np.array_equal(loaded.conv1_w, w.conv1_w)

    def test_load_missing_tensor(self, tmp_path):
        path = tmp_path / "weights.omcf"
        write_omcf(path, [{"conv1.w": np.zeros((2, 1, 3, 3), dtype=np.float32)}])
        with pytest.raises(ValueError, match="missing"):
            RefineWeights.load(path)


class TestTransductiveDetections:
    def grid_boxes(self, h, w):
        prob = np.zeros((h, w, 1), dtype=np.float32)
        raw = np.zeros((h, w, 4), dtype=np.float32)
        return decode_boxes(prob, raw, "bar")

    def test_zero_map_gives_nothing(self):
        boxes = self.grid_boxes(4, 4)
        m_p = np.zeros((4, 4), dtype=np.float32)
        assert list(transductive_detections(m_p, boxes, 0.5, 0.45)) == []

    def test_single_peak_keeps_geometry(self):
        boxes = self.grid_boxes(4, 4)
        m_p = np.zeros((4, 4), dtype=np.float32)
        m_p[1, 2] = 0.9
        (got,) = transductive_detections(m_p, boxes, 0.5, 0.45)
        source = boxes[1 * 4 + 2]
        assert (got.cx, got.cy, got.w, got.h) == (source.cx, source.cy, source.w, source.h)
        assert abs(got.score - 0.9) < 1e-6

    def test_count_mismatch_rejected(self):
        boxes = self.grid_boxes(4, 4)
        with pytest.raises(ValueError, match="cell count"):
            transductive_detections(np.zeros((3, 3)), boxes, 0.5, 0.45)


class TestShrinkReducesOffTargetMass:
    def test_clutter_scenario_mass_monotone(self):
        # With non-negative responses, masking can only remove mass from
        # cells away from the targets.
        rng = np.random.default_rng(12)
        n, h, w = 4, 16, 16
        stack = rng.uniform(0.0, 0.6, size=(n, h, w)).astype(np.float32)
        on_target = np.zeros((h, w), dtype=bool)
        for i in range(n):
            y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
            stack[i, y, x] = 1.0
            on_target[y, x] = True
        full = aggregate(stack, math.inf)
        shrunk = aggregate(stack, 3)
        assert shrunk[~on_target].sum() <= full[~on_target].sum()
