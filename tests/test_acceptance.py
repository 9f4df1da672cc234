"""Acceptance gate: one test per release criterion.

Each test prints a PASS line once its criterion holds, so running

    pytest tests/test_acceptance.py -v -s

gives a one-line-per-criterion report. Scenario-based criteria use fixed
seeds; the whole pipeline is deterministic, so their numbers are stable.
"""

import math

import numpy as np
import pytest

from omctrack.association import PipelineConfig, track_sequence
from omctrack.cli import main
from omctrack.detection import decode_offset_bar, decode_offset_sigmoid
from omctrack.frame_io import FrameContainer, iter_container, write_container
from omctrack.metrics import evaluate
from omctrack.recheck import EmbeddingSet, cross_correlate, shrink_mask
from omctrack.supervision import gaussian_target, logistic_mse_loss, loss_gradient
from omctrack.synth import ScenarioConfig, generate, restoration_report

from test_metrics import idf1_bijection_oracle, toy_swap_sequence


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def clutter_scenario():
    """Fixed-seed look-alike-heavy world shared by criteria 4 and 5."""
    cfg = ScenarioConfig(num_targets=4, height=12, width=12, frames=80,
                         dropout_prob=0.2, clutter_similarity=0.6, seed=0)
    frames, gt, dropped = generate(cfg)
    return cfg, frames, gt, dropped


def test_criterion_1_matmul_correlation_equals_loop_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 9))
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        c = int(rng.integers(1, 17))
        vectors = rng.normal(size=(n, c))
        vectors /= np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12)
        grid = rng.normal(size=(h, w, c))
        grid /= np.maximum(np.linalg.norm(grid, axis=2, keepdims=True), 1e-12)
        grid = grid.astype(np.float32)
        maps = cross_correlate(EmbeddingSet(vectors.astype(np.float32)), grid)
        for i in range(n):
            for y in range(h):
                for x in range(w):
                    want = float(np.dot(vectors[i], grid[y, x].astype(np.float64)))
                    worst = max(worst, abs(float(maps[i, y, x]) - want))
    assert worst < 1e-5
    report(1, f"matrix-multiply correlation matches the per-cell loop oracle "
              f"on 100 instances (max abs diff {worst:.2e})")


def test_criterion_2_loss_value_and_gradient():
    target = np.array([[1.0, 0.0], [0.0, 0.0]])
    loss = logistic_mse_loss(np.full((2, 2), 0.5), target, 1)
    assert abs(loss - 2.0 * math.log(2.0)) < 1e-6

    rng = np.random.default_rng(102)
    step = 1e-4
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        centers = [(float(rng.uniform(0, 16)), float(rng.uniform(0, 16)))
                   for _ in range(n)]
        sizes = [(float(rng.uniform(1, 8)), float(rng.uniform(1, 8)))
                 for _ in range(n)]
        sup = gaussian_target(centers, sizes, 16, 16)
        m_p = rng.uniform(0.01, 0.99, size=(16, 16))
        grad = loss_gradient(m_p, sup, n)
        for r in range(16):
            for c in range(16):
                hi, lo = m_p.copy(), m_p.copy()
                hi[r, c] += step
                lo[r, c] -= step
                fd = (logistic_mse_loss(hi, sup, n)
                      - logistic_mse_loss(lo, sup, n)) / (2 * step)
                worst = max(worst, abs(grad[r, c] - fd) / max(abs(fd), 1e-6))
    assert worst < 1e-4
    report(2, f"loss equals 2*ln(2) on the hand case and the gradient matches "
              f"central differences on 20 instances (max rel err {worst:.2e})")


def test_criterion_3_restoration_beats_detector_only():
    cfg = ScenarioConfig(num_targets=6, height=20, width=20, frames=200,
                         dropout_prob=0.3, embedding_noise=0.0,
                         clutter_similarity=0.3, seed=0)
    frames, gt, dropped = generate(cfg)
    assert len(dropped) > 200  # the failure mode must actually occur

    rows, tracker = track_sequence(frames)
    with_recheck = evaluate(gt, rows, restored_count=tracker.restored_emitted)
    recall, _ = restoration_report(rows, gt, dropped)

    rows0, _ = track_sequence(frames, PipelineConfig(recheck_enabled=False))
    without = evaluate(gt, rows0)

    assert recall >= 0.95
    assert with_recheck.mota - without.mota >= 0.15
    assert with_recheck.fn < without.fn
    report(3, f"restoration recall {recall:.3f}, MOTA {with_recheck.mota:.3f} "
              f"vs {without.mota:.3f} detector-only, FN {with_recheck.fn} "
              f"vs {without.fn} over {len(dropped)} dropped detections")


def test_criterion_4_fusion_threshold_sweep(clutter_scenario):
    _, frames, gt, _ = clutter_scenario
    eps_values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    restored, fps = [], []
    for eps in eps_values:
        rows, tracker = track_sequence(frames, PipelineConfig(fusion_epsilon=eps))
        run = evaluate(gt, rows, restored_count=tracker.restored_emitted)
        restored.append(run.restored_count)
        fps.append(run.fp)
    # A higher threshold keeps fewer restored boxes. On this world that
    # trades FN, not FP: FP stays at 0-1 (ROADMAP item 2).
    assert all(restored[i] <= restored[i - 1] for i in range(1, len(restored))), restored
    assert restored[-1] < restored[0]  # the threshold actually prunes something
    report(4, f"restored boxes non-increasing across the vote-threshold "
              f"sweep: {restored}; FP {fps}")


def test_criterion_5_shrink_ablation(clutter_scenario):
    cfg, frames, gt, _ = clutter_scenario
    fp = {}
    for radius in (3.0, math.inf):
        rows, tracker = track_sequence(frames, PipelineConfig(shrink_radius=radius))
        fp[radius] = evaluate(gt, rows, restored_count=tracker.restored_emitted).fp
    assert fp[3.0] <= fp[math.inf]

    # window budget: every per-target mask stays within (2*3+1)^2 cells
    first = frames[0]
    gt1 = sorted((b for b in gt if b.frame == 1), key=lambda b: b.id)
    vectors = []
    for b in gt1:
        cy = int((b.y + b.h / 2) / cfg.stride)
        cx = int((b.x + b.w / 2) / cfg.stride)
        vectors.append(first.embed[cy, cx])
    e_set = EmbeddingSet(np.stack(vectors))
    worst = 0
    for frame in frames:
        stack = cross_correlate(e_set, frame.embed)
        for i in range(len(e_set)):
            worst = max(worst, int(shrink_mask(stack[i], 3).sum()))
    assert worst <= 49
    report(5, f"look-alike clutter: FP {fp[3.0]} with shrinking vs "
              f"{fp[math.inf]} without; largest mask window {worst} cells")


def test_criterion_6_boundary_aware_regression():
    h_scale = 10.0
    raw_sweep = np.linspace(-50.0, 50.0, 2001)
    for offset in np.linspace(1.5, 3.0, 7):
        u = offset / h_scale + 0.5
        exact_raw = math.log(u) - math.log1p(-u)
        decoded, _ = decode_offset_bar((exact_raw, 0.0), h_scale)
        assert abs(decoded - offset) <= 0.1

        sigmoid_best = min(
            abs(offset - decode_offset_sigmoid((raw, 0.0))[0])
            for raw in raw_sweep
        )
        assert sigmoid_best >= offset - 1.0 - 1e-9
    report(6, "offsets of 1.5-3.0 cells decode within 0.1 cells in "
              "boundary-aware mode; plain sigmoid keeps >= offset-1 error")


def test_criterion_7_metrics_oracle():
    gt, pred = toy_swap_sequence()
    scored = evaluate(gt, pred)
    fp, fn, idsw, mota, value = scored.fp, scored.fn, scored.idsw, scored.mota, scored.idf1
    assert (fp, fn, idsw) == (0, 0, 2)
    assert abs(mota - 0.8) < 1e-12
    assert abs(value - idf1_bijection_oracle(gt, pred)) < 1e-12

    from omctrack.frame_io import MotBox
    relabeled = [MotBox(frame=b.frame, id=b.id * 13 + 5, x=b.x, y=b.y,
                        w=b.w, h=b.h, conf=b.conf) for b in pred]
    assert evaluate(gt, relabeled) == scored
    report(7, f"toy swap sequence: MOTA {mota}, IDSW {idsw}, IDF1 {value} "
              f"(= exhaustive bijection oracle), invariant under relabeling")


def test_criterion_8_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(108)
    frames = []
    for i in range(4):
        frames.append(FrameContainer(
            frame_index=i + 1,
            prob=rng.uniform(0, 1, size=(6, 5, 1)).astype(np.float32),
            boxes=rng.normal(size=(6, 5, 4)).astype(np.float32),
            embed=rng.normal(size=(6, 5, 32)).astype(np.float32),
            feat=rng.normal(size=(6, 5, 8)).astype(np.float32),
        ))
    p1 = tmp_path / "a.omcf"
    p2 = tmp_path / "b.omcf"
    write_container(frames, p1)
    back = list(iter_container(p1))
    for orig, rt in zip(frames, back):
        for name, arr in orig.tensors().items():
            assert np.array_equal(rt.tensors()[name], arr)
    write_container(back, p2)
    assert p1.read_bytes() == p2.read_bytes()

    from omctrack.frame_io import MotBox, read_mot_boxes, write_mot_results
    rows = [MotBox(frame=int(rng.integers(1, 30)), id=int(rng.integers(1, 7)),
                   x=float(rng.uniform(0, 300)), y=float(rng.uniform(0, 300)),
                   w=float(rng.uniform(1, 60)), h=float(rng.uniform(1, 60)),
                   conf=float(rng.uniform(0, 1))) for _ in range(30)]
    t1 = tmp_path / "r1.txt"
    t2 = tmp_path / "r2.txt"
    write_mot_results(rows, t1)
    write_mot_results(read_mot_boxes(t1), t2)
    assert t1.read_text() == t2.read_text()
    report(8, "binary container round-trips bit-exactly; MOT text "
              "round-trips at printed precision")


def test_criterion_9_determinism(tmp_path):
    container = tmp_path / "scene.omcf"
    gt = tmp_path / "gt.txt"
    assert main(["synth", "--out", str(container), "--gt", str(gt),
                 "--targets", "4", "--frames", "60", "--grid", "10x10",
                 "--dropout", "0.25", "--seed", "9"]) == 0
    outputs = []
    for name in ("run1.txt", "run2.txt"):
        out = tmp_path / name
        assert main(["track", "--container", str(container),
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    report(9, "same seed and config produce byte-identical results files")
