import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omctrack import numerics
from omctrack.numerics import (
    NORM_EPS,
    conv3x3_forward,
    l2_normalize_grid,
    normalize_cells,
    sigmoid,
)

# Grid shapes that are not a multiple of a block: one cell, a few ragged
# rows, a tall narrow grid, and one that 64-cell blocks split into 2-row
# blocks and a last 1-row block.
RAGGED_SHAPES = [(1, 1), (5, 7), (153, 3), (45, 29)]


def whole_grid_normalize(g, eps=NORM_EPS):
    """Reference: the whole-grid float64 normalization, one pass."""
    g = np.asarray(g)
    if not np.all(np.isfinite(g)):
        raise ValueError("grid contains non-finite values")
    g64 = g.astype(np.float64)
    norms = np.linalg.norm(g64, axis=2, keepdims=True)
    scale = np.where(norms > eps, 1.0 / np.where(norms > eps, norms, 1.0), 1.0)
    return (g64 * scale).astype(np.float32)


def split_sigmoid(x):
    """Reference: the logistic in two boolean-indexed passes, one per sign."""
    arr = np.asarray(x)
    work = arr.astype(np.float64)
    out = np.empty_like(work)
    pos = work >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-work[pos]))
    ex = np.exp(work[~pos])
    out[~pos] = ex / (1.0 + ex)
    if arr.ndim == 0:
        return float(out)
    if arr.dtype == np.float32:
        return out.astype(np.float32)
    return out


def ensure_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a 2-d finite array and return it as an ndarray."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")
    return a


def matmul(a, b) -> np.ndarray:
    """Oracle: matrix product a @ b, accumulated in float64, rounded to float32."""
    a = ensure_matrix(a, "a")
    b = ensure_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {a.shape} x {b.shape}"
        )
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


def naive_matmul(a, b):
    """Triple-loop float64 oracle."""
    n, c = a.shape
    c2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(c):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out


def naive_conv3x3(x, kernel, bias):
    """Direct six-loop convolution oracle with zero padding 1."""
    h, w, cin = x.shape
    cout = kernel.shape[0]
    out = np.zeros((h, w, cout))
    for r in range(h):
        for c in range(w):
            for co in range(cout):
                acc = float(bias[co])
                for ky in range(3):
                    for kx in range(3):
                        rr, cc = r + ky - 1, c + kx - 1
                        if 0 <= rr < h and 0 <= cc < w:
                            for ci in range(cin):
                                acc += float(x[rr, cc, ci]) * float(kernel[co, ci, ky, kx])
                out[r, c, co] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = matmul(np.eye(3, dtype=np.float32), b)
        assert np.array_equal(out, b)

    def test_hand_case(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        b = np.array([[5], [6]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), np.array([[17], [39]], dtype=np.float32))

    def test_random_against_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 16)).astype(np.float32)
        b = rng.normal(size=(16, 8)).astype(np.float32)
        assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-5

    def test_many_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n, c, m = rng.integers(1, 33, size=3)
            a = rng.normal(size=(n, c)).astype(np.float32)
            b = rng.normal(size=(c, m)).astype(np.float32)
            assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))

    def test_rejects_non_finite(self):
        a = np.array([[np.nan]], dtype=np.float32)
        with pytest.raises(ValueError):
            matmul(a, a)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(13, 29)).astype(np.float32)
        b = rng.normal(size=(29, 7)).astype(np.float32)
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestConv3x3:
    def test_zero_kernel_gives_bias(self):
        x = np.random.default_rng(3).normal(size=(4, 5, 2)).astype(np.float32)
        kernel = np.zeros((3, 2, 3, 3), dtype=np.float32)
        bias = np.array([1.5, -2.0, 0.25], dtype=np.float32)
        out = conv3x3_forward(x, kernel, bias)
        assert out.shape == (4, 5, 3)
        for co in range(3):
            assert np.allclose(out[:, :, co], bias[co])

    def test_identity_kernel(self):
        x = np.random.default_rng(4).normal(size=(6, 6, 1)).astype(np.float32)
        kernel = np.zeros((1, 1, 3, 3), dtype=np.float32)
        kernel[0, 0, 1, 1] = 1.0
        out = conv3x3_forward(x, kernel, np.zeros(1, dtype=np.float32))
        assert np.allclose(out, x, atol=1e-6)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 5, 2)).astype(np.float32)
        kernel = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        bias = rng.normal(size=3).astype(np.float32)
        out = conv3x3_forward(x, kernel, bias)
        assert np.max(np.abs(out - naive_conv3x3(x, kernel, bias))) < 1e-5

    def test_spatial_dims_preserved(self):
        x = np.zeros((7, 3, 4), dtype=np.float32)
        kernel = np.zeros((2, 4, 3, 3), dtype=np.float32)
        out = conv3x3_forward(x, kernel, np.zeros(2, dtype=np.float32))
        assert out.shape == (7, 3, 2)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_log3(self):
        assert abs(sigmoid(np.log(3.0)) - 0.75) < 1e-12

    def test_large_negative_saturates(self):
        v = sigmoid(-20.0)
        assert 0.0 < v <= 1e-6
        assert np.isfinite(v)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-30, 30, size=200)
        out = sigmoid(x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-10, 10, size=64).astype(np.float32)
        assert np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0)) < 1e-6

    def test_grid_keeps_float32(self):
        g = np.zeros((2, 2, 1), dtype=np.float32)
        assert sigmoid(g).dtype == np.float32

    @given(st.data())
    def test_bits_match_the_two_pass_split(self, data):
        width = data.draw(st.sampled_from([32, 64]))
        special = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
        values = st.one_of(special, st.floats(width=width))
        dtype = np.float32 if width == 32 else np.float64
        x = np.array(data.draw(st.lists(values, max_size=50)), dtype=dtype)
        assert sigmoid(x).tobytes() == split_sigmoid(x).tobytes()
        scalar = data.draw(values)
        for v in (scalar, dtype(scalar), np.array(scalar, dtype=dtype)):
            assert struct.pack("<d", sigmoid(v)) == struct.pack("<d", split_sigmoid(v))


class TestL2Normalize:
    def test_three_four(self):
        assert np.allclose(normalize_cells([3.0, 4.0]), [0.6, 0.8])

    def test_unit_unchanged(self):
        v = np.array([0.0, 1.0, 0.0], dtype=np.float32)
        assert np.allclose(normalize_cells(v), v, atol=1e-7)

    def test_zero_vector_passthrough(self):
        v = np.zeros(8, dtype=np.float32)
        assert np.array_equal(normalize_cells(v), v)

    def test_norms_zero_or_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.normal(size=16) * rng.choice([0.0, 1e-3, 1.0, 1e4])
            n = np.linalg.norm(normalize_cells(v).astype(np.float64))
            assert n == 0.0 or abs(n - 1.0) < 1e-6

    def test_grid_normalization(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(4, 5, 8)).astype(np.float32) * 3.0
        g[1, 2] = 0.0
        out = l2_normalize_grid(g)
        norms = np.linalg.norm(out.astype(np.float64), axis=2)
        assert abs(norms[0, 0] - 1.0) < 1e-6
        assert norms[1, 2] == 0.0


class TestBlockwiseGridNormalize:
    @pytest.mark.parametrize("block_cells", [1, 3, 7, numerics.BLOCK_CELLS])
    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_bit_identical_to_whole_grid(self, monkeypatch, shape, block_cells):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(sum(shape))
        g = (rng.normal(size=shape + (16,)) * rng.choice([1e-3, 1.0, 1e4])).astype(np.float32)
        g[::2, ::3] = 0.0  # all-zero cells stay zero
        out = l2_normalize_grid(g)
        assert out.dtype == np.float32
        assert np.array_equal(out, whole_grid_normalize(g))

    def test_all_zero_grid(self):
        g = np.zeros((5, 7, 8), dtype=np.float32)
        assert np.array_equal(l2_normalize_grid(g), g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_block_raises(self, monkeypatch, bad):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", 7)
        g = np.ones((153, 3, 4), dtype=np.float32)
        g[-1, -1, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            l2_normalize_grid(g)

    def test_float64_overflowing_norm_is_not_non_finite(self):
        # The sum of squares overflows, the values do not: scale 1/inf = 0.
        g = np.full((2, 3, 4), 1e200)
        with np.errstate(over="ignore"):
            assert np.array_equal(l2_normalize_grid(g), whole_grid_normalize(g))

    def test_peak_memory_at_most_a_quarter_grid_over_output(self, traced_peak_bytes):
        # The whole-grid version peaked at about 5.1x the grid's bytes.
        g = np.random.default_rng(0).normal(size=(152, 272, 64)).astype(np.float32)
        assert traced_peak_bytes(l2_normalize_grid, g) <= 1.25 * g.nbytes
