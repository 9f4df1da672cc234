import math

import numpy as np

from omctrack.supervision import (
    gaussian_target,
    logistic_mse_loss,
    loss_gradient,
    size_adaptive_sigma,
)


def fd_gradient(m_p, target, n, step=1e-4):
    grad = np.zeros_like(m_p)
    for r in range(m_p.shape[0]):
        for c in range(m_p.shape[1]):
            hi = m_p.copy()
            lo = m_p.copy()
            hi[r, c] += step
            lo[r, c] -= step
            grad[r, c] = (
                logistic_mse_loss(hi, target, n) - logistic_mse_loss(lo, target, n)
            ) / (2 * step)
    return grad


class TestGaussianTarget:
    def test_center_cell_is_one(self):
        grid = gaussian_target([(4.3, 2.7)], [(3.0, 3.0)], 8, 8)
        assert grid[2, 4] == 1.0
        assert np.unravel_index(grid.argmax(), grid.shape) == (2, 4)

    def test_unit_sigma_neighbor_value(self):
        grid = gaussian_target([(4.0, 4.0)], [(6.0, 6.0)], 9, 9)
        assert abs(size_adaptive_sigma(6.0, 6.0) - 1.0) < 1e-12
        assert abs(grid[4, 5] - math.exp(-0.5)) < 1e-6
        assert abs(grid[5, 4] - math.exp(-0.5)) < 1e-6

    def test_sigma_capped_for_huge_boxes(self):
        assert size_adaptive_sigma(60.0, 60.0) == 1.0
        grid = gaussian_target([(10.0, 10.0)], [(60.0, 60.0)], 20, 20)
        assert abs(grid[10, 11] - math.exp(-0.5)) < 1e-6

    def test_sigma_floor(self):
        assert size_adaptive_sigma(0.1, 0.1) == 0.1

    def test_empty_targets_zero_grid(self):
        grid = gaussian_target([], [], 5, 7)
        assert grid.shape == (5, 7) and grid.dtype == np.float32
        assert np.all(grid == 0.0)

    def test_values_clamped_to_unit_interval(self):
        centers = [(3.0, 3.0), (3.6, 3.4), (4.0, 3.0)]
        sizes = [(6.0, 6.0)] * 3
        grid = gaussian_target(centers, sizes, 8, 8)
        assert grid.max() <= 1.0
        assert grid.min() >= 0.0

    def test_radially_non_increasing(self):
        values = gaussian_target([(6.0, 6.0)], [(5.0, 5.0)], 13, 13)
        for r in range(13):
            for c in range(13):
                d = np.hypot(r - 6, c - 6)
                for r2 in range(13):
                    for c2 in range(13):
                        if np.hypot(r2 - 6, c2 - 6) <= d:
                            assert values[r2, c2] >= values[r, c] - 1e-7


class TestLogisticMseLoss:
    def test_hand_case_two_ln_two(self):
        target = np.array([[1.0, 0.0], [0.0, 0.0]])
        m_p = np.full((2, 2), 0.5)
        loss = logistic_mse_loss(m_p, target, 1)
        assert abs(loss - 2.0 * math.log(2.0)) < 1e-6

    def test_perfect_prediction_vanishes(self):
        eps = 1e-7
        target = np.zeros((4, 4), dtype=np.float32)
        target[1, 1] = 1.0
        m_p = np.where(target == 1.0, 1.0 - eps, eps)
        assert logistic_mse_loss(m_p, target, 1) < 1e-6

    def test_doubling_n_halves(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(size=(6, 6))
        m_p = rng.uniform(0.05, 0.95, size=(6, 6))
        l1 = logistic_mse_loss(m_p, target, 2)
        l2 = logistic_mse_loss(m_p, target, 4)
        assert abs(l1 - 2.0 * l2) < 1e-12

    def test_zero_targets_zero_loss(self):
        assert logistic_mse_loss(np.full((3, 3), 0.5), np.zeros((3, 3)), 0) == 0.0

    def test_non_negative_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            target = np.clip(rng.uniform(-0.2, 1.2, size=(5, 5)), 0.0, 1.0)
            m_p = rng.uniform(0.0, 1.0, size=(5, 5))
            assert logistic_mse_loss(m_p, target, 3) >= 0.0

    def test_extreme_predictions_stay_finite(self):
        target = np.array([[1.0, 0.0]])
        m_p = np.array([[0.0, 1.0]])
        assert np.isfinite(logistic_mse_loss(m_p, target, 1))


class TestLossGradient:
    def test_single_cell_against_fd(self):
        target = np.array([[1.0]])
        m_p = np.array([[0.5]])
        grad = loss_gradient(m_p, target, 1)
        fd = fd_gradient(m_p, target, 1)
        assert abs(grad[0, 0] - fd[0, 0]) < 1e-6

    def test_perfect_prediction_near_stationary(self):
        target = np.zeros((4, 4))
        target[2, 2] = 1.0
        m_p = np.where(target == 1.0, 1.0 - 1e-4, 1e-4)
        grad = loss_gradient(m_p, target, 1)
        assert np.max(np.abs(grad)) < 1e-3

    def test_random_instances_match_fd(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 5))
            centers = [(float(rng.uniform(0, 16)), float(rng.uniform(0, 16)))
                       for _ in range(n)]
            sizes = [(float(rng.uniform(1, 8)), float(rng.uniform(1, 8)))
                     for _ in range(n)]
            target = gaussian_target(centers, sizes, 16, 16)
            m_p = rng.uniform(0.01, 0.99, size=(16, 16))
            grad = loss_gradient(m_p, target, n)
            fd = fd_gradient(m_p, target, n)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_clamped_cells_have_zero_gradient(self):
        target = np.array([[1.0, 0.0]])
        m_p = np.array([[1e-9, 1.0 - 1e-9]])
        grad = loss_gradient(m_p, target, 1)
        assert np.array_equal(grad, np.zeros((1, 2)))

    def test_zero_targets_zero_gradient(self):
        grad = loss_gradient(np.full((2, 2), 0.3), np.zeros((2, 2)), 0)
        assert np.array_equal(grad, np.zeros((2, 2)))
