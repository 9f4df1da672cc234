import logging
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from omctrack import numerics, recheck
from omctrack.association import PipelineConfig, Tracker, extract_embeddings
from omctrack.detection import Box, Boxes, decode_boxes, iou
from omctrack.frame_io import (
    ContainerFormatError,
    FrameContainer,
    Payload,
    iter_container,
    write_container,
    write_omcf,
)
from omctrack.numerics import (
    FrameValueError,
    conv3x3_forward,
    l2_normalize_grid,
    sigmoid,
)
from omctrack.recheck import (
    RefineWeights,
    aggregate,
    cross_correlate,
    refine,
    transductive_detections,
)
from omctrack.synth import ScenarioConfig, generate

from oracles import shrink_mask
from test_numerics import RAGGED_SHAPES, matmul, whole_grid_normalize


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


class TestCrossCorrelate:
    def test_empty_set(self):
        grid = np.zeros((4, 4, 8), dtype=np.float32)
        out = cross_correlate(np.zeros((0, 8), np.float32), grid)
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
        maps = cross_correlate(e, grid)
        assert maps.shape == (1, 5, 6)
        assert np.argmax(maps[0]) == 3 * 6 + 2
        assert abs(maps[0, 3, 2] - 1.0) < 1e-6

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        e = unit_rows(rng, 3, 16)
        grid = l2_normalize_grid(rng.normal(size=(8, 8, 16)).astype(np.float32))
        maps = cross_correlate(e, grid)
        assert np.max(np.abs(maps - correlate_oracle(e, grid))) < 1e-5

    def test_cosine_bound_with_unit_inputs(self):
        rng = np.random.default_rng(2)
        e = unit_rows(rng, 4, 32)
        grid = l2_normalize_grid(rng.normal(size=(10, 10, 32)).astype(np.float32))
        maps = cross_correlate(e, grid)
        assert np.all(np.abs(maps) <= 1.0 + 1e-5)

    def test_zero_rows_respond_zero(self):
        grid = raw_grid(np.random.default_rng(7), (6, 9), 16)
        maps = cross_correlate(np.zeros((2, 16), np.float32), grid)
        assert maps.shape == (2, 6, 9)
        assert not maps.any()

    def test_rows_below_norm_eps_respond_about_zero(self):
        # Rows as normalize_cells leaves them when their norm is at most
        # NORM_EPS: each response is a cosine scaled by that norm.
        rng = np.random.default_rng(8)
        grid = raw_grid(rng, (6, 9), 16)
        e = unit_rows(rng, 3, 16) * np.float32([[1e-30], [1e-20], [1e-13]])
        e = numerics.normalize_cells(e)
        maps = cross_correlate(e, grid)
        assert np.all(np.isfinite(maps))
        assert np.all(np.abs(maps) <= numerics.NORM_EPS)

    @pytest.mark.parametrize("block_values", [recheck.SEARCH_BLOCK_VALUES, 40 * 32])
    def test_float64_rows_search_as_their_float32_cast(self, monkeypatch, block_values):
        # The search is a float32 sgemm for float64 callers too, on one
        # block and on the split walk of many.
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(6)
        e = rng.normal(size=(6, 32))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        grid = rng.normal(size=(15, 17, 32)).astype(np.float32)
        maps = cross_correlate(e, grid)
        assert maps.dtype == np.float32
        assert maps.tobytes() == cross_correlate(e.astype(np.float32), grid).tobytes()


def cosine_atol(c):
    """Absolute tolerance of a float32 cosine against the float64 oracle.

    With u = 2**-24 and C channels, the float32 search computes t.g, the
    squared norm |g|^2 and the product with 1/|g|. The dot product and the
    squared norm each sum C products, so they are off by at most C*u
    times |t||g| and |g|^2 (to first order). The square root halves the
    norm's relative error, and the square root, the reciprocal and the
    scaling each round once more. For a unit template the response is
    therefore within (1.5*C + 3)*u of the exact cosine. The oracle rounds
    the unit cell and its float64 product to float32, 2*u more, so the two
    agree within (1.5*C + 5)*u. Two float32 runs that differ only in how
    BLAS sums the dot product (gemv for one template, gemm for a stack)
    share the norm and the scale, and differ by at most (2*C + 2)*u. The
    tolerance, (2*C + 6)*u, covers both.
    """
    return (2 * c + 6) * 2.0**-24


class TestBlockwiseCorrelate:
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("block_cells", [1, 3, 7, numerics.BLOCK_CELLS])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (153, 3), (45, 29)])
    def test_block_invariant_and_close_to_whole_grid(self, monkeypatch, shape, block_cells, n):
        rng = np.random.default_rng(sum(shape) + n)
        grid = l2_normalize_grid(rng.normal(size=shape + (32,)).astype(np.float32))
        grid[::3, ::2] = 0.0  # all-zero cells respond 0
        e = unit_rows(rng, n, 32)
        monkeypatch.setattr(numerics, "BLOCK_CELLS", 1)
        finest = cross_correlate(e, grid)
        monkeypatch.setattr(numerics, "BLOCK_CELLS", block_cells)
        maps = cross_correlate(e, grid)
        assert maps.shape == (n,) + shape
        assert maps.dtype == np.float32
        assert np.array_equal(maps, finest)
        oracle = whole_grid_correlate(e, whole_grid_normalize(grid))
        assert np.all(np.abs(maps - oracle) <= cosine_atol(32))
        assert np.all(maps[:, ::3, ::2] == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_last_block_raises(self, monkeypatch, bad):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", 7)
        grid = np.zeros((153, 3, 8), dtype=np.float32)
        grid[-1, -1, 0] = bad
        e = unit_rows(np.random.default_rng(3), 2, 8)
        with pytest.raises(ValueError, match="non-finite"):
            cross_correlate(e, grid)

    def test_peak_memory_at_most_output_plus_a_quarter_grid(self, traced_peak_bytes):
        # The whole-grid version peaked at about 2.6x the grid's bytes.
        rng = np.random.default_rng(4)
        grid = l2_normalize_grid(rng.normal(size=(152, 272, 64)).astype(np.float32))
        templates = unit_rows(rng, 20, 64)
        out_bytes = 20 * 152 * 272 * 4
        peak = traced_peak_bytes(cross_correlate, templates, grid)
        assert peak <= out_bytes + 0.25 * grid.nbytes


def raw_grid(rng, shape, dim):
    """Unnormalized cells: large magnitudes, plus all-zero cells."""
    g = rng.normal(size=shape + (dim,)) * rng.choice([1e-3, 1.0, 1e4], size=shape + (1,))
    g = g.astype(np.float32)
    g[::3, ::2] = 0.0
    return g


class TestFusedNormalizeCorrelate:
    """cross_correlate normalizes the raw grid itself."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("block_cells", [1, 3, 7, 64])
    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_raw_grid_block_invariant_and_close_to_normalize_then_correlate(
        self, monkeypatch, shape, block_cells, n
    ):
        rng = np.random.default_rng(7 * sum(shape) + n)
        grid = raw_grid(rng, shape, 32)
        e = unit_rows(rng, n, 32)
        monkeypatch.setattr(numerics, "BLOCK_CELLS", 1)
        finest = cross_correlate(e, grid)
        monkeypatch.setattr(numerics, "BLOCK_CELLS", block_cells)
        maps = cross_correlate(e, grid)
        assert maps.dtype == np.float32
        assert np.array_equal(maps, finest)
        oracle = whole_grid_correlate(e, whole_grid_normalize(grid))
        assert np.all(np.abs(maps - oracle) <= cosine_atol(32))

    def test_responses_are_cosines(self):
        rng = np.random.default_rng(5)
        grid = raw_grid(rng, (9, 11), 16)
        e = unit_rows(rng, 3, 16)
        maps = cross_correlate(e, grid)
        unit = grid / np.maximum(np.linalg.norm(grid, axis=2, keepdims=True), 1e-30)
        assert np.max(np.abs(maps - correlate_oracle(e, unit))) < 1e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_block_of_raw_grid_raises(self, monkeypatch, bad):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", 7)
        grid = raw_grid(np.random.default_rng(6), (153, 3), 8)
        grid[-1, -1, 3] = bad
        e = unit_rows(np.random.default_rng(3), 2, 8)
        with pytest.raises(ValueError, match="non-finite"):
            cross_correlate(e, grid)

    def test_finite_cells_whose_squares_overflow_give_cosines(self):
        # float32 squares overflow above about 1.8e19; these cells are finite.
        rng = np.random.default_rng(8)
        grid = raw_grid(rng, (6, 5), 32)
        grid[1, :3] *= np.float32(1e20)
        grid[4, 2] = rng.normal(size=32) * 1e37
        e = unit_rows(rng, 3, 32)
        maps = cross_correlate(e, grid)
        g64 = grid.astype(np.float64)
        unit = g64 / np.maximum(np.linalg.norm(g64, axis=2, keepdims=True), 1e-30)
        assert np.all(np.isfinite(maps))
        assert np.max(np.abs(maps - correlate_oracle(e, unit))) <= cosine_atol(32)
        assert np.max(np.abs(maps[:, 1, :3])) > 0.05  # not zeroed

    def test_template_alone_matches_its_map_in_a_stack(self):
        # One template goes through gemv, a stack through gemm: the bits may
        # differ, the cosines agree within the tolerance.
        rng = np.random.default_rng(9)
        grid = raw_grid(rng, (45, 29), 32)
        e = unit_rows(rng, 5, 32)
        stack = cross_correlate(e, grid)
        for i in range(5):
            alone = cross_correlate(e[i:i + 1], grid)
            assert np.max(np.abs(alone[0] - stack[i])) <= cosine_atol(32)


def unpadded_search(e, grid):
    """The search's one-block arithmetic without `_search`: the float32
    cells-major product of the raw cells against the real templates, scaled
    by each cell's float32 1/norm."""
    h, w, c = grid.shape
    cells = grid.reshape(-1, c)
    norms = np.sqrt(np.einsum("ij,ij->i", cells, cells))
    scale = np.divide(1.0, norms, out=np.ones_like(norms), where=norms > 1e-12)
    return ((cells @ e.T).T * scale).reshape(len(e), h, w)


class TestPaddedSearch:
    """Template counts that are not a multiple of 4 are padded with zero rows."""

    @pytest.mark.parametrize("n", [5, 6, 7, 9, 10, 11])
    def test_desk_shaped_padding_keeps_the_unpadded_bits(self, n):
        rng = np.random.default_rng(90 + n)
        grid = raw_grid(rng, (20, 20), 512)
        e = unit_rows(rng, n, 512)
        assert 400 * n > recheck.SMALL_PRODUCT_VALUES  # padded
        assert np.array_equal(cross_correlate(e, grid), unpadded_search(e, grid))

    @pytest.mark.parametrize("shape", [(8, 8), (12, 20), (12, 21)])
    def test_products_at_the_small_kernel_line_keep_the_unpadded_bits(self, shape):
        # 64 and 240 cells against 5 templates make products of 320 and
        # 1200 values, left unpadded; 252 cells make 1260, padded. Padding
        # the 240-cell product moves its bits.
        rng = np.random.default_rng(sum(shape))
        grid = raw_grid(rng, shape, 64)
        e = unit_rows(rng, 5, 64)
        assert np.array_equal(cross_correlate(e, grid), unpadded_search(e, grid))

    def test_overflow_fallback_of_a_padded_block_uses_the_real_templates(self):
        rng = np.random.default_rng(97)
        grid = raw_grid(rng, (20, 20), 512)
        grid[7, 3:9] = rng.normal(size=(6, 512)) * 1e20  # float32 squares overflow
        e = unit_rows(rng, 6, 512)
        maps = cross_correlate(e, grid)
        tame = grid.copy()
        tame[7, 3:9] = 0.0
        want = unpadded_search(e, tame)
        want[:, 7, 3:9] = e @ numerics.normalize_cells(grid[7, 3:9]).T
        assert np.array_equal(maps, want)
        oracle = whole_grid_correlate(e, whole_grid_normalize(grid))
        assert np.all(np.abs(maps - oracle) <= cosine_atol(512))


class TestOneFinitenessTestPerBlock:
    """A block's float32 squared norms are summed once, in float64; only a
    non-finite sum builds the per-cell mask."""

    def test_finite_squares_whose_float32_sum_overflows_give_cosines(self):
        rng = np.random.default_rng(98)
        # Values near 1e17: squares near 1e34, squared norms near 5e36, and
        # 400 of them sum past float32's maximum of about 3.4e38.
        grid = (rng.normal(size=(20, 20, 512)) * 1e17).astype(np.float32)
        sq = np.einsum("ijk,ijk->ij", grid, grid)
        assert np.isfinite(sq).all()
        with np.errstate(over="ignore"):
            assert sq.sum(dtype=np.float32) == np.inf
        e = unit_rows(rng, 6, 512)
        maps = cross_correlate(e, grid)
        oracle = whole_grid_correlate(e, whole_grid_normalize(grid))
        assert np.all(np.abs(maps - oracle) <= cosine_atol(512))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("blocks", [1, 6])
    def test_one_non_finite_cell_raises(self, monkeypatch, blocks, bad):
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 1305 * 32 // blocks)
        grid = raw_grid(np.random.default_rng(99), (45, 29), 32)
        grid[30, 11, 4] = bad
        assert len(list(recheck._search_blocks(1305, 32))) == blocks
        e = unit_rows(np.random.default_rng(100), 6, 32)
        with pytest.raises(FrameValueError, match="non-finite"):
            cross_correlate(e, grid)


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

    @pytest.mark.parametrize("r", [-1, -math.inf, math.nan])
    def test_negative_radius_rejected(self, r):
        with pytest.raises(ValueError, match=f"shrink radius must be >= 0, got {r}"):
            shrink_mask(np.zeros((2, 2), dtype=np.float32), r)

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


def masked_sum_aggregate(stack, r):
    """The formula aggregate replaced: a full-size float64 mask and product per map."""
    n, h, w = stack.shape
    out = np.zeros((h, w), dtype=np.float64)
    for i in range(n):
        if math.isinf(r):
            mask = np.ones((h, w), dtype=np.float32)
        else:
            cy, cx = divmod(int(np.argmax(stack[i])), w)
            ys = np.abs(np.arange(h) - cy) <= r
            xs = np.abs(np.arange(w) - cx) <= r
            mask = (ys[:, None] & xs[None, :]).astype(np.float32)
        out += mask.astype(np.float64) * stack[i].astype(np.float64)
    return out.astype(np.float32)


# Peaks on every corner and edge of a 9x13 map, plus one inside.
BORDER_PEAKS = [(0, 0), (0, 12), (8, 0), (8, 12), (0, 6), (8, 5), (4, 0), (3, 12), (4, 6)]


class TestAggregateWindowedSum:
    @pytest.mark.parametrize("r", [0, 1, 2.5, 3, math.inf])
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("first_peak", range(len(BORDER_PEAKS)))
    def test_bit_identical_to_masked_sum(self, r, n, first_peak):
        rng = np.random.default_rng(31 * first_peak + n)
        # Negative responses make the old masked product add -0.0 outside
        # the window; the bit comparison checks that nothing changes there.
        stack = rng.uniform(-1.0, 0.9, size=(n, 9, 13)).astype(np.float32)
        for i in range(n):
            y, x = BORDER_PEAKS[(first_peak + i) % len(BORDER_PEAKS)]
            stack[i, y, x] = 1.0
        got = aggregate(stack, r)
        want = masked_sum_aggregate(stack, r)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("r", [0, 1, 2.5, math.inf])
    def test_repeated_maximum_windows_its_first_occurrence(self, r):
        rng = np.random.default_rng(8)
        stack = rng.uniform(-1.0, 0.9, size=(4, 9, 13)).astype(np.float32)
        stack[0, [2, 2, 7], [11, 3, 0]] = 1.0   # first row-major at (2, 3)
        stack[1, [0, 8], [12, 0]] = 0.95        # first at (0, 12)
        stack[2] = 0.5                          # every cell ties: (0, 0)
        stack[3, 4, [6, 7]] = 1.0               # adjacent: (4, 6)
        got = aggregate(stack, r)
        want = masked_sum_aggregate(stack, r)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        if r == 0:
            windowed = np.zeros((9, 13))
            for i, (y, x) in enumerate([(2, 3), (0, 12), (0, 0), (4, 6)]):
                windowed[y, x] += stack[i, y, x]
            assert np.array_equal(got, windowed.astype(np.float32))

    @pytest.mark.parametrize("r", [-1, -math.inf, math.nan])
    def test_negative_radius_rejected(self, r):
        with pytest.raises(ValueError, match=f"shrink radius must be >= 0, got {r}"):
            aggregate(np.zeros((1, 3, 3), dtype=np.float32), r)


def tiny_weights(rng, mid=6, head=5, feat=4, zero=False):
    def arr(*shape):
        if zero:
            return np.zeros(shape, dtype=np.float32)
        return rng.normal(scale=0.4, size=shape).astype(np.float32)

    return RefineWeights(
        conv1_w=arr(mid, 1, 3, 3), conv1_b=arr(mid),
        conv2_w=arr(1, mid, 3, 3), conv2_b=arr(1),
        head1_w=arr(head, feat, 3, 3), head1_b=arr(head),
        head2_w=arr(1, head, 3, 3), head2_b=arr(1),
    )


class TestRefine:
    def test_bypass_preserves_masked_peak(self):
        m_s = np.zeros((5, 5), dtype=np.float32)
        m_s[2, 3] = 1.0
        out = refine(m_s, np.zeros((5, 5, 4), dtype=np.float32), None)
        assert out[2, 3] == 1.0
        assert out.max() == 1.0

    def test_bypass_clamps(self):
        m_s = np.array([[-0.5, 0.25], [1.5, 0.75]], dtype=np.float32)
        out = refine(m_s, np.zeros((2, 2, 4), dtype=np.float32), None)
        assert np.array_equal(out, np.array([[0.0, 0.25], [1.0, 0.75]], dtype=np.float32))

    def test_bypass_preserves_argmax_below_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m_s = rng.uniform(-1.0, 1.0, size=(7, 9)).astype(np.float32)
            out = refine(m_s, np.zeros((7, 9, 4), dtype=np.float32), None)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_raises_frame_value_error(self, bad):
        rng = np.random.default_rng(12)
        f_t = rng.normal(size=(6, 5, 4)).astype(np.float32)
        f_t[-1, -1, -1] = bad
        with pytest.raises(FrameValueError, match="tensor 'feat' contains non-finite"):
            refine(np.zeros((6, 5), dtype=np.float32), f_t, tiny_weights(rng))

    def test_overflowing_head_raises_frame_value_error(self):
        # Every value is finite; their product overflows float32.
        rng = np.random.default_rng(12)
        f_t = rng.normal(size=(6, 5, 4)).astype(np.float32)
        f_t[2, 2, 0] = 3e38
        m_s = np.ones((6, 5), dtype=np.float32)
        with pytest.raises(FrameValueError, match="'refine head output' contains non-finite"):
            refine(m_s, f_t, tiny_weights(rng))

    def test_bypass_reads_no_feature(self):
        m_s = np.array([[0.5]], dtype=np.float32)
        assert refine(m_s, None, None)[0, 0] == 0.5

    def test_head1_channels_must_match_the_feature(self):
        weights = tiny_weights(np.random.default_rng(9), feat=4)
        with pytest.raises(ValueError) as err:
            refine(np.zeros((6, 5), np.float32), np.zeros((6, 5, 3), np.float32), weights)
        assert str(err.value) == "head1 expects 4 channels, visual feature has 3"

    def test_weights_hold_no_mode(self):
        # "No learned head" is weights=None, not a mode of some weights.
        assert not hasattr(tiny_weights(np.random.default_rng(10)), "mode")
        with pytest.raises(TypeError, match="mode"):
            RefineWeights(mode="bypass")

    def test_incomplete_weights_rejected(self):
        w = tiny_weights(np.random.default_rng(10))
        with pytest.raises(TypeError, match=r"missing 7 required positional arguments: "
                                            r"'conv1_b', 'conv2_w', 'conv2_b', 'head1_w', "
                                            r"'head1_b', 'head2_w', and 'head2_b'"):
            RefineWeights(conv1_w=w.conv1_w)
        with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'head2_b'"):
            RefineWeights(**{name: getattr(w, name) for name in (
                "conv1_w", "conv1_b", "conv2_w", "conv2_b", "head1_w", "head1_b", "head2_w")})
        with pytest.raises(TypeError, match="missing 8 required positional arguments"):
            RefineWeights()

    def test_chain_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        w = tiny_weights(rng)
        with pytest.raises(ValueError, match="conv2"):
            RefineWeights(
                conv1_w=w.conv1_w, conv1_b=w.conv1_b,
                conv2_w=np.zeros((1, 3, 3, 3), dtype=np.float32), conv2_b=w.conv2_b,
                head1_w=w.head1_w, head1_b=w.head1_b,
                head2_w=w.head2_w, head2_b=w.head2_b,
            )

    @pytest.mark.parametrize("layer", ["conv1", "conv2", "head1", "head2"])
    def test_bias_must_match_its_kernel(self, layer):
        w = tiny_weights(np.random.default_rng(10))
        fields = dict(vars(w))
        cout = fields[f"{layer}_w"].shape[0]
        fields[f"{layer}_b"] = np.zeros(cout + 1, dtype=np.float32)
        with pytest.raises(ValueError) as err:
            RefineWeights(**fields)
        assert str(err.value) == (f"weight '{layer}.b' must have shape ({cout},) "
                                  f"to match {layer}.w, got ({cout + 1},)")

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
        assert isinstance(loaded, RefineWeights)
        assert np.array_equal(loaded.conv1_w, w.conv1_w)

    def test_load_missing_tensor(self, tmp_path):
        path = tmp_path / "weights.omcf"
        write_omcf(path, [{"conv1.w": np.zeros((2, 1, 3, 3), dtype=np.float32)}])
        with pytest.raises(ValueError, match="missing"):
            RefineWeights.load(path)


class TestTransductiveDetections:
    def grid_boxes(self, h, w, cells):
        prob = np.zeros((h, w, 1), dtype=np.float32)
        raw = np.zeros((h, w, 4), dtype=np.float32)
        return decode_boxes(prob, raw, cells=cells)

    def test_zero_map_gives_nothing(self):
        cells = np.arange(16)
        boxes = self.grid_boxes(4, 4, cells)
        m_p = np.zeros((4, 4), dtype=np.float32)
        assert list(transductive_detections(m_p, boxes, cells, 0.5, 0.45)) == []

    def test_single_peak_keeps_geometry(self):
        m_p = np.zeros((4, 4), dtype=np.float32)
        m_p[1, 2] = 0.9
        whole = self.grid_boxes(4, 4, None)
        for cells in (np.arange(16), np.flatnonzero(m_p >= 0.5)):
            boxes = self.grid_boxes(4, 4, cells)
            (k,) = transductive_detections(m_p, boxes, cells, 0.5, 0.45)
            got = boxes[int(k)]
            source = whole[1 * 4 + 2]
            assert cells[k] == 1 * 4 + 2
            assert (got.cx, got.cy, got.w, got.h) == (source.cx, source.cy, source.w, source.h)
            assert abs(m_p.reshape(-1)[cells[k]] - 0.9) < 1e-6

    def test_table_gives_the_computed_result(self):
        rng = np.random.default_rng(3)
        prob = np.zeros((9, 9, 1), dtype=np.float32)
        raw = rng.normal(0, 1, (9, 9, 4)).astype(np.float32)
        m_p = rng.uniform(0, 1, (9, 9)).astype(np.float32)
        cells = np.flatnonzero(m_p >= 0.4)
        boxes = decode_boxes(prob, raw, cells=cells)
        want = transductive_detections(m_p, boxes, cells, 0.4, 0.3)
        got = transductive_detections(m_p, boxes, cells, 0.4, 0.3, iou(boxes, boxes))
        assert len(want) > 1
        assert got.tolist() == want.tolist()
        assert (np.diff(m_p.reshape(-1)[cells[want]]) <= 0).all()

    def test_float32_map_compared_in_float64(self):
        # float32(0.7) lies below 0.7; a float32 comparison would round the
        # threshold to it and keep the box.
        m_p = np.zeros((4, 4), dtype=np.float32)
        m_p[1, 2] = 0.7
        assert float(m_p[1, 2]) < 0.7
        cells = np.arange(16)
        boxes = self.grid_boxes(4, 4, cells)
        assert list(transductive_detections(m_p, boxes, cells, 0.7, 0.45)) == []


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


class TestContainerSearch:
    """A container frame's unread embed gives the bits of the same grid in memory."""

    SHAPE = (45, 29)  # 1305 cells

    @staticmethod
    def container_frame(tmp_path, grid):
        h, w, _ = grid.shape
        frame = FrameContainer(
            1, np.zeros((h, w, 1), np.float32), np.zeros((h, w, 4), np.float32),
            grid, np.zeros((h, w, 2), np.float32),
        )
        write_omcf(tmp_path / "x.omcf", [frame.tensors()])  # values unchecked
        (back,) = iter_container(tmp_path / "x.omcf")
        assert isinstance(back.held()["embed"], Payload)
        return back

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_same_bits_as_in_memory_over_ragged_blocks(self, tmp_path, monkeypatch, n):
        rng = np.random.default_rng(40 + n)
        grid = raw_grid(rng, self.SHAPE, 32)
        grid[44, 20:] *= np.float32(1e20)  # overflow fallback in the last block
        frame = self.container_frame(tmp_path, grid)
        e = unit_rows(rng, n, 32)
        # 1305 * 32 values in six blocks of 217 or 218 cells.
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 7000)
        assert {b - a for a, b in recheck._search_blocks(1305, 32)} == {217, 218}
        streamed = cross_correlate(e, frame.held()["embed"])
        in_memory = cross_correlate(e, grid)
        assert np.array_equal(streamed, in_memory)
        oracle = whole_grid_correlate(e, whole_grid_normalize(grid))
        assert np.all(np.abs(streamed - oracle) <= cosine_atol(32))

        boxes = Boxes.of([Box(cx=x, cy=y, w=1.0, h=1.0, score=1.0)
                          for x, y in rng.uniform(-2.0, 47.0, size=(40, 2))])
        assert np.array_equal(
            extract_embeddings(boxes, frame.held()["embed"]),
            extract_embeddings(boxes, grid),
        )

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_responses_are_contiguous_over_ragged_blocks(self, tmp_path, monkeypatch, n):
        # A strided (transposed) stack would still compare equal, but makes
        # every per-map argmax in aggregate walk memory with a large stride.
        grid = raw_grid(np.random.default_rng(46), self.SHAPE, 32)
        frame = self.container_frame(tmp_path, grid)
        e = unit_rows(np.random.default_rng(n), n, 32)
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 7000)
        for embed in (grid, frame.held()["embed"]):
            out = cross_correlate(e, embed)
            assert out.shape == (n, *self.SHAPE)
            assert out.dtype == np.float32
            assert out.flags.c_contiguous

    def test_one_block_is_one_product(self):
        rng = np.random.default_rng(44)
        grid = raw_grid(rng, self.SHAPE, 32)
        e = unit_rows(rng, 5, 32)
        assert list(recheck._search_blocks(1305, 32)) == [(0, 1305)]
        cells = grid.reshape(-1, 32)
        norms = np.sqrt(np.einsum("ij,ij->i", cells, cells))
        want = (e @ cells.T) * np.divide(1.0, norms, out=np.ones_like(norms),
                                         where=norms > 1e-12)
        assert np.array_equal(cross_correlate(e, grid),
                              want.reshape(5, *self.SHAPE))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_last_block_of_unread_embed_raises(self, tmp_path, monkeypatch, bad):
        grid = raw_grid(np.random.default_rng(45), self.SHAPE, 32)
        grid[-1, -1, 7] = bad
        frame = self.container_frame(tmp_path, grid)
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 7000)
        e = unit_rows(np.random.default_rng(3), 2, 32)
        with pytest.raises(FrameValueError, match="non-finite"):
            cross_correlate(e, frame.held()["embed"])

    def test_nan_in_last_block_of_unread_embed_is_all_miss(self, tmp_path, monkeypatch, caplog):
        cfg = ScenarioConfig(num_targets=3, height=14, width=14, frames=3,
                             dropout_prob=0.0, seed=11, embed_dim=32, feat_dim=8)
        path = tmp_path / "w.omcf"
        write_container(generate(cfg)[0], path)
        frames = list(iter_container(path))
        # Frame 2's last value, far from every target: only the search reads it.
        last = frames[1].held()["embed"]
        with open(path, "r+b") as f:
            f.seek(last.offset + 4 * math.prod(last.shape) - 4)
            f.write(np.float32(np.nan).tobytes())
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 1000)
        tracker = Tracker(PipelineConfig(stride=cfg.stride))
        assert tracker.step(frames[0])
        misses = dict(zip(tracker.live.ids.tolist(), tracker.live.misses.tolist()))
        with caplog.at_level(logging.WARNING, logger="omctrack"):
            assert tracker.step(frames[1]) == []
        assert dict(zip(tracker.live.ids.tolist(), tracker.live.misses.tolist())) == {
            tid: m + 1 for tid, m in misses.items()}
        assert "frame 2 failed validation" in caplog.text
        assert tracker.step(frames[2])



def search_threads():
    """The search's helper threads alive now (an executor's would be omctrack-search_0)."""
    return [t for t in threading.enumerate() if t.name.startswith("omctrack-search")]


def serial_walk(e, grid, split=False):
    """The search's blocks, or their halves, walked in order on the calling thread."""
    h, w, c = grid.shape
    ranges = list(recheck._search_blocks(h * w, c))
    if split:
        cuts = [a + (b - a) // 2 for a, b in ranges]
        ranges = [(a, cut) for (a, _), cut in zip(ranges, cuts)] + [
            (cut, b) for (_, b), cut in zip(ranges, cuts)]
    out = np.empty((len(e), h * w), np.float32)
    recheck._search(e, grid.reshape(-1, c), ranges, out)
    return out.reshape(len(e), h, w)


class TestSplitSearch:
    """Grids of several blocks: first halves on the caller, second halves on a helper thread.

    A half is a smaller product than its block, for which OpenBLAS may pick
    another kernel or thread split; so the split is compared bit for bit
    with a serial walk of the same halves, and with the walk of whole
    blocks within the tolerance of two BLAS summation orders.
    """

    SHAPE = (45, 29)  # 1305 cells; at 7000 values, six blocks of 217 or 218 cells
    HELPER_CELL = (6, 26)  # cell 200, in block 0's second half (108 .. 217)

    @pytest.fixture(autouse=True)
    def six_blocks(self, monkeypatch):
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 7000)

    @staticmethod
    def grid(seed):
        grid = raw_grid(np.random.default_rng(seed), TestSplitSearch.SHAPE, 32)
        grid[44, 20:] *= np.float32(1e20)  # overflow fallback in a helper half
        return grid

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    @pytest.mark.parametrize("stored", ["array", "container"])
    def test_halves_walked_on_two_threads_give_the_serial_bits(
        self, tmp_path, monkeypatch, n, stored
    ):
        grid = self.grid(50 + n)
        embed = grid if stored == "array" else (
            TestContainerSearch.container_frame(tmp_path, grid).held()["embed"])
        e = unit_rows(np.random.default_rng(n), n, 32)
        walks = []
        search = recheck._search

        def recording(vectors, source, ranges, responses):
            walks.append((threading.current_thread() is threading.main_thread(), ranges))
            search(vectors, source, ranges, responses)

        monkeypatch.setattr(recheck, "_search", recording)
        maps = cross_correlate(e, embed)
        monkeypatch.setattr(recheck, "_search", search)
        blocks = list(recheck._search_blocks(1305, 32))
        cuts = [a + (b - a) // 2 for a, b in blocks]
        assert len(blocks) == 6
        assert sorted(walks, reverse=True) == [
            (True, [(a, cut) for (a, _), cut in zip(blocks, cuts)]),
            (False, [(cut, b) for (_, b), cut in zip(blocks, cuts)]),
        ]
        assert maps.flags.c_contiguous
        assert np.array_equal(maps, serial_walk(e, grid, split=True))
        assert np.array_equal(maps, cross_correlate(e, embed))
        assert np.all(np.abs(maps - serial_walk(e, grid)) <= cosine_atol(32))

    @pytest.mark.parametrize("stored", ["array", "container"])
    def test_nan_in_a_helper_half_raises_and_the_search_goes_on(self, tmp_path, stored):
        grid = self.grid(60)
        bad = grid.copy()
        bad[self.HELPER_CELL + (5,)] = np.nan
        embed = bad if stored == "array" else (
            TestContainerSearch.container_frame(tmp_path, bad).held()["embed"])
        e = unit_rows(np.random.default_rng(61), 3, 32)
        with pytest.raises(FrameValueError, match="non-finite"):
            cross_correlate(e, embed)
        assert np.array_equal(cross_correlate(e, grid), serial_walk(e, grid, split=True))

    def test_container_cut_in_a_helper_half_raises_and_the_search_goes_on(self, tmp_path):
        grid = self.grid(62)
        embed = TestContainerSearch.container_frame(tmp_path, grid).held()["embed"]
        # The last block is cells 1087 .. 1305, its second half 1196 .. 1305.
        os.truncate(tmp_path / "x.omcf", embed.offset + 4 * 32 * 1250)
        e = unit_rows(np.random.default_rng(63), 5, 32)
        with pytest.raises(ContainerFormatError, match="'embed'"):
            cross_correlate(e, embed)
        assert np.array_equal(cross_correlate(e, grid), serial_walk(e, grid, split=True))

    def test_concurrent_callers_each_get_their_serial_bits(self):
        grids = [self.grid(70 + k) for k in range(4)]
        es = [unit_rows(np.random.default_rng(80 + k), 1 + 4 * k, 32) for k in range(4)]
        want = [serial_walk(e, g, split=True) for e, g in zip(es, grids)]
        wrong = []

        def caller(k):
            for _ in range(5):
                if not np.array_equal(cross_correlate(es[k], grids[k]), want[k]):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("stored", ["array", "container"])
    def test_no_helper_thread_outlives_the_call(self, tmp_path, stored):
        grid = self.grid(64)
        bad = grid.copy()
        bad[self.HELPER_CELL + (5,)] = np.nan
        if stored == "container":
            (tmp_path / "bad").mkdir()
            grid = TestContainerSearch.container_frame(tmp_path, grid).held()["embed"]
            bad = TestContainerSearch.container_frame(tmp_path / "bad", bad).held()["embed"]
        e = unit_rows(np.random.default_rng(65), 4, 32)
        cross_correlate(e, grid)
        assert search_threads() == []
        with pytest.raises(FrameValueError, match="non-finite"):
            cross_correlate(e, bad)
        assert search_threads() == []

    def test_first_half_error_wins_over_the_helpers(self, monkeypatch):
        search = recheck._search

        def failing(vectors, source, ranges, responses):
            search(vectors, source, ranges, responses)
            raise RuntimeError("caller" if threading.current_thread() is
                               threading.main_thread() else "helper")

        monkeypatch.setattr(recheck, "_search", failing)
        e = unit_rows(np.random.default_rng(66), 2, 32)
        with pytest.raises(RuntimeError, match="caller"):
            cross_correlate(e, self.grid(66))
        assert search_threads() == []

    def test_one_block_grid_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 1 << 20)

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-block search started a thread")

        monkeypatch.setattr(recheck, "Thread", no_thread)
        grid = self.grid(90)
        e = unit_rows(np.random.default_rng(91), 20, 32)
        threads = threading.active_count()
        assert np.array_equal(cross_correlate(e, grid), serial_walk(e, grid))
        assert threading.active_count() == threads

    def test_forked_child_searches_on_a_helper_of_its_own(self):
        grid = self.grid(92)
        e = unit_rows(np.random.default_rng(93), 3, 32)
        want = cross_correlate(e, grid)
        assert search_threads() == []  # nothing of the parent's search is left to fork
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(cross_correlate, (e, grid)).get(timeout=60)
        assert np.array_equal(got, want)


PAPER_BLOCKS_KEEP_THE_BITS = """
import threading

import numpy as np
from omctrack import recheck
from omctrack.recheck import cross_correlate

walks = []
search = recheck._search

def recording(*args):
    walks.append(threading.current_thread().name)
    search(*args)

recheck._search = recording

grid = np.random.default_rng(0).normal(size=(11, 537, 512)).astype(np.float32)
cells = grid.reshape(-1, 512)
blocks = list(recheck._search_blocks(len(cells), 512))
assert [b - a for a, b in blocks] == [1969] * 3, blocks
for n in (1, 2, 3, 5, 20):
    e = np.random.default_rng(n).normal(size=(n, 512))
    e = (e / np.linalg.norm(e, axis=1, keepdims=True)).astype(np.float32)
    whole = np.empty((n, len(cells)), np.float32)
    search(e, cells, blocks, whole)
    walks.clear()
    split = cross_correlate(e, grid).reshape(n, -1)
    assert sorted(walks) == ["MainThread", "omctrack-search"], walks
    assert np.array_equal(split, whole), (n, np.count_nonzero((split != whole).any(0)))
"""


def test_split_keeps_the_bits_of_whole_paper_sized_blocks():
    # mot17's blocks (1968 or 1969 cells of 512 channels), searched with one
    # BLAS thread as the benchmark runs it; in a fresh interpreter, because
    # the thread count is fixed when numpy loads OpenBLAS.
    src = str(Path(recheck.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PAPER_BLOCKS_KEEP_THE_BITS], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
