"""Deterministic synthetic scenarios for desk-scale tracker verification.

Each target carries a fixed unit identity embedding (targets are mutually
orthogonal so in-box responses are provably separable from clutter), moves
linearly with boundary reflection, and stamps its embedding into every grid
cell its box covers. Background cells receive unit vectors whose cosine
against every identity is bounded by the clutter level. The probability
map marks each target's center cell with 1 except on dropped (frame, id)
pairs, where it reads 0.01: the detector "sees" the target but scores it
as background, which is exactly the failure mode the re-check pipeline is
supposed to repair. Raw box regressions encode the true geometry through
the analytic inverse of the boundary-aware decode, so any covered cell
reconstructs the exact box.

`iter_generate` builds the world one frame at a time, so a written world
never holds more than a frame in memory. The seed's one `Generator` makes
every draw in a fixed order: identities, sizes, positions and velocities,
then per frame the dropout mask (from frame 2 on), one float64 normal per
background cell and channel, each cell's clutter cosine c and identity
pick j, and, with embedding noise, one noise vector per target. A frame's
draws (`_draw`) run on one worker thread, a frame ahead: while the calling
thread builds frame t from one float64 scratch grid, the worker fills the
other with frame t + 1's normals. Nothing else touches the generator once
the frames begin, so the draws, and the bytes, are those of one thread.

A background grid has its identity components projected out: the product
onto the identities is taken over the whole grid, and the product back
and the rest of the chain (subtract, normalize, mix in each cell's
identity, round to float32) run over row blocks of about
`numerics.BLOCK_CELLS` cells, straight into the frame's float32 grid. Each
element sees the same float64 operations in the same order as a
whole-grid pass. OpenBLAS bits could depend on a product's shape, but the
blockwise product back gives the whole-grid product's bits on every world
`tests/test_container_bytes.py` pins.

`restoration_report` scores each frame on one `metrics.row_iou` matrix.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple

import numpy as np

from .detection import DEFAULT_H_SCALE, DEFAULT_STRIDE
from .frame_io import FrameContainer, MotBox
from .metrics import _by_frame, row_iou
from .numerics import grid_row_blocks

__all__ = [
    "ScenarioConfig",
    "generate",
    "iter_generate",
    "restoration_report",
    "RESTORE_IOU",
]

RESTORE_IOU = 0.5

# Side, in cells, of the box every background cell decodes to.
CLUTTER_BOX_SIZE = 2.5


@dataclass
class ScenarioConfig:
    """Knobs of the generated world; everything derives from the seed.

    A config checks itself when it is made: values no world can be built
    from raise ValueError, and so do a float field that is not finite and
    an int field that is not an integer.
    """

    num_targets: int = 6
    height: int = 20
    width: int = 20
    frames: int = 200
    speed_min: float = 0.12
    speed_max: float = 0.35
    dropout_prob: float = 0.0
    embedding_noise: float = 0.0
    clutter_similarity: float = 0.3
    seed: int = 0
    size_min: float = 2.0
    size_max: float = 3.0
    embed_dim: int = 512
    feat_dim: int = 256
    stride: int = DEFAULT_STRIDE
    bar_h_scale: float = DEFAULT_H_SCALE

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.type == "int" and not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be an integer, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.num_targets < 1:
            raise ValueError("need at least one target")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must lie in [0, 1)")
        if not 0.0 <= self.clutter_similarity < 1.0:
            raise ValueError("clutter_similarity must lie in [0, 1)")
        if self.embedding_noise < 0.0:
            raise ValueError("embedding_noise must be >= 0")
        if not 1.0 <= self.size_min <= self.size_max:
            raise ValueError("sizes must satisfy 1 <= size_min <= size_max")
        if self.size_max > min(self.height, self.width):
            raise ValueError(
                f"targets of size {self.size_max} cannot fit a "
                f"{self.height}x{self.width} grid"
            )
        # Background cells need a direction orthogonal to every identity.
        if self.num_targets >= self.embed_dim:
            raise ValueError(
                f"num_targets ({self.num_targets}) must be below embed_dim "
                f"({self.embed_dim}): background cells need a direction "
                "orthogonal to every identity"
            )
        # Channels 0 and 1 of feat hold each cell's x and y.
        if self.feat_dim < 2:
            raise ValueError(f"feat_dim must be >= 2, got {self.feat_dim}")
        if not 0.0 < self.speed_min <= self.speed_max:
            raise ValueError("speeds must satisfy 0 < speed_min <= speed_max")
        # Offsets from any covered cell must stay decodable by the
        # boundary-aware inverse.
        if self.size_max / 2.0 + 0.5 >= self.bar_h_scale / 2.0:
            raise ValueError("bar_h_scale too small for the target sizes")
        if not 1.0 <= CLUTTER_BOX_SIZE <= min(self.height, self.width):
            raise ValueError("clutter boxes must fit the grid")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    for _ in range(8):
        if pos < lo:
            pos, vel = 2.0 * lo - pos, -vel
        elif pos > hi:
            pos, vel = 2.0 * hi - pos, -vel
        else:
            break
    return min(max(pos, lo), hi), vel


def _covered_cells(center: float, size: float, limit: int) -> range:
    """Indices of cells whose centers fall inside [center-size/2, center+size/2]."""
    lo = math.ceil(center - size / 2.0 - 0.5)
    hi = math.floor(center + size / 2.0 - 0.5)
    return range(max(lo, 0), min(hi, limit - 1) + 1)


def _logit(u: np.ndarray | float) -> np.ndarray | float:
    return np.log(u) - np.log1p(-u)


def generate(
    cfg: ScenarioConfig,
) -> tuple[list[FrameContainer], list[MotBox], list[tuple[int, int]]]:
    """Build the container sequence, its ground truth and the dropout log.

    Returns (frames, gt, dropped): gt rows are in pixel units (cell units
    times cfg.stride) with 1-based target ids, and dropped lists the
    (frame, id) pairs whose detector probability was suppressed. Dropout
    never hits a target's first frame, since a never-seen target has no
    tracklet to propagate from.
    """
    frames: list[FrameContainer] = []
    gt: list[MotBox] = []
    dropped: list[tuple[int, int]] = []
    for frame, frame_gt, frame_dropped in iter_generate(cfg):
        frames.append(frame)
        gt.extend(frame_gt)
        dropped.extend(frame_dropped)
    return frames, gt, dropped


def iter_generate(
    cfg: ScenarioConfig,
) -> Iterator[tuple[FrameContainer, list[MotBox], list[tuple[int, int]]]]:
    """Yield `generate`'s world one frame at a time.

    Each item is (frame, gt, dropped) for that frame alone; concatenated,
    they are exactly what `generate` returns. While a frame is in the
    caller's hands, one worker thread draws the next frame's random numbers;
    exhausting or closing the iterator, or an error on either thread, waits
    for that draw and ends the thread.
    """
    # Imported here, not with the module: the tracking process imports
    # this module for restoration_report and never starts the worker.
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_targets
    h, w = cfg.height, cfg.width

    # Mutually orthogonal unit identities: in the noise-free regime a
    # target's own cells respond with cosine exactly 1 and every other cell
    # with at most the clutter bound.
    q, _ = np.linalg.qr(rng.normal(size=(cfg.embed_dim, n)))
    identities = np.ascontiguousarray(q.T)  # (n, embed_dim) float64 rows

    sizes = rng.uniform(cfg.size_min, cfg.size_max, size=(n, 2))
    pos = np.zeros((n, 2))
    for i in range(n):
        half_w, half_h = sizes[i, 0] / 2.0, sizes[i, 1] / 2.0
        for _attempt in range(100):
            cx = rng.uniform(half_w, w - half_w)
            cy = rng.uniform(half_h, h - half_h)
            clear = all(
                abs(cx - pos[j, 0]) > (sizes[i, 0] + sizes[j, 0]) / 2.0
                or abs(cy - pos[j, 1]) > (sizes[i, 1] + sizes[j, 1]) / 2.0
                for j in range(i)
            )
            if clear:
                break
        pos[i] = (cx, cy)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    speeds = rng.uniform(cfg.speed_min, cfg.speed_max, size=n)
    vel = np.stack([speeds * np.cos(angles), speeds * np.sin(angles)], axis=1)

    # Each frame's feat is zero but for each cell's x and y in channels 0
    # and 1. It is built afresh, not copied from a whole template that would
    # stay in memory all along.
    xs = (np.arange(w, dtype=np.float64) + 0.5) / w
    ys = (np.arange(h, dtype=np.float64) + 0.5) / h
    cell_x = np.broadcast_to(xs[None, :], (h, w)).astype(np.float32)
    cell_y = np.broadcast_to(ys[:, None], (h, w)).astype(np.float32)

    # Frame t's normal grid is drawn into grids[t % 2] while frame t - 1 is
    # built from the other one.
    grids = (np.empty((h * w, cfg.embed_dim)), np.empty((h * w, cfg.embed_dim)))
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(_draw, rng, cfg, 1, grids[1])
        for t in range(1, cfg.frames + 1):
            draws = pending.result()
            if t < cfg.frames:
                pending = worker.submit(_draw, rng, cfg, t + 1, grids[(t + 1) % 2])
            if t > 1:
                for i in range(n):
                    half_w, half_h = sizes[i, 0] / 2.0, sizes[i, 1] / 2.0
                    x, vx = _reflect(pos[i, 0] + vel[i, 0], vel[i, 0], half_w, w - half_w)
                    y, vy = _reflect(pos[i, 1] + vel[i, 1], vel[i, 1], half_h, h - half_h)
                    pos[i] = (x, y)
                    vel[i] = (vx, vy)

            embed = _background(identities, h, w, draws)

            prob = np.zeros((h, w, 1), dtype=np.float32)
            # Background cells decode to a clutter-sized box at their own
            # center, so spurious responses turn into plausible-looking
            # candidates rather than degenerate slivers.
            raw = np.zeros((h, w, 4), dtype=np.float32)
            raw[:, :, 2] = math.log(CLUTTER_BOX_SIZE)
            raw[:, :, 3] = math.log(CLUTTER_BOX_SIZE)

            gt: list[MotBox] = []
            dropped: list[tuple[int, int]] = []
            for i in range(n):
                cx, cy = pos[i]
                bw, bh = sizes[i]
                vec = identities[i]
                if draws.noise is not None:
                    noisy = vec + draws.noise[i]
                    vec = noisy / np.linalg.norm(noisy)
                cols = _covered_cells(cx, bw, w)
                rows_r = _covered_cells(cy, bh, h)
                for r in rows_r:
                    for col in cols:
                        # Assignment rounds the float64 vector to float32.
                        embed[r, col] = vec
                        dx = cx - (col + 0.5)
                        dy = cy - (r + 0.5)
                        raw[r, col, 0] = _logit(dx / cfg.bar_h_scale + 0.5)
                        raw[r, col, 1] = _logit(dy / cfg.bar_h_scale + 0.5)
                        raw[r, col, 2] = math.log(bw)
                        raw[r, col, 3] = math.log(bh)
                center = (int(math.floor(cy)), int(math.floor(cx)))
                if draws.drop[i]:
                    prob[center[0], center[1], 0] = 0.01
                    dropped.append((t, i + 1))
                else:
                    prob[center[0], center[1], 0] = 1.0
                gt.append(
                    MotBox(
                        frame=t,
                        id=i + 1,
                        x=(cx - bw / 2.0) * cfg.stride,
                        y=(cy - bh / 2.0) * cfg.stride,
                        w=bw * cfg.stride,
                        h=bh * cfg.stride,
                        conf=1.0,
                    )
                )

            feat = np.zeros((h, w, cfg.feat_dim), dtype=np.float32)
            feat[:, :, 0] = cell_x
            feat[:, :, 1] = cell_y
            frame = FrameContainer(frame_index=t, prob=prob, boxes=raw, embed=embed, feat=feat)
            yield frame, gt, dropped


class _Draws(NamedTuple):
    """One frame's random draws (see `_draw`)."""

    drop: np.ndarray        # (n,) bool: the target's probability is suppressed
    normal: np.ndarray      # (h * w, embed_dim) float64 standard normals
    c: np.ndarray           # (h * w,) cosine of each cell to its drawn identity
    j: np.ndarray           # (h * w,) the identity each cell is drawn toward
    noise: np.ndarray | None  # (n, embed_dim) per-target embedding noise


def _draw(rng: np.random.Generator, cfg: ScenarioConfig, t: int, out: np.ndarray) -> _Draws:
    """Every random number frame t takes, in the order the world is defined by.

    The dropout mask (never on frame 1), the background's normal grid into
    out, the clutter cosines c and identity picks j, then one noise vector
    per target, in target order, when the embeddings are noisy.
    """
    n = cfg.num_targets
    cells = cfg.height * cfg.width
    if t > 1:
        drop = rng.random(n) < cfg.dropout_prob
    else:
        drop = np.zeros(n, dtype=bool)
    rng.standard_normal(out=out)  # the draws of rng.normal(size=out.shape)
    c = rng.uniform(0.0, cfg.clutter_similarity, size=cells)
    j = rng.integers(0, n, size=cells)
    noise = None
    if cfg.embedding_noise > 0.0:
        # One call draws what n calls of size embed_dim would, in turn.
        noise = rng.normal(0.0, cfg.embedding_noise, (n, cfg.embed_dim))
    return _Draws(drop, out, c, j, noise)


def _background(identities: np.ndarray, h: int, w: int, draws: _Draws) -> np.ndarray:
    """One frame's background embeddings as an (h, w, embed_dim) float32 grid.

    cos(cell, identity_k) = c * delta_jk <= clutter: each cell mixes its
    drawn identity j, at cosine c, with a unit vector orthogonal to every
    identity. The normal grid is overwritten.
    """
    cells = h * w
    v, c, j = draws.normal, draws.c, draws.j
    a = v @ identities.T  # (cells, n) components along each identity
    s = np.sqrt(1.0 - c * c)

    embed = np.empty((h, w, v.shape[1]), dtype=np.float32)
    out = embed.reshape(cells, -1)
    for rows in grid_row_blocks(embed):
        block = slice(rows.start * w, rows.stop * w)
        v_perp = np.subtract(v[block], a[block] @ identities, out=v[block])
        v_perp /= np.linalg.norm(v_perp, axis=1, keepdims=True)
        v_perp *= s[block, None]
        mix = identities[j[block]]
        mix *= c[block, None]
        v_perp += mix
        out[block] = v_perp
    return embed


def restoration_report(
    tracker_output: list[MotBox],
    gt: list[MotBox],
    dropped: list[tuple[int, int]],
) -> tuple[float, list[tuple[int, int, bool, int, float]]]:
    """Fraction of dropped (frame, id) pairs the tracker still produced.

    A dropped pair counts as restored when the output contains a row in
    that frame with IOU >= 0.5 against the ground-truth box and the same
    persistent tracker id that the target holds elsewhere in the sequence
    (majority vote over all frames). Returns (recall, breakdown) where
    breakdown rows are (frame, gt_id, restored, tracker_id, iou);
    tracker_id is -1 when nothing matched. recall is 1.0 when nothing was
    dropped.
    """
    out_by_frame = _by_frame(tracker_output)
    # Per frame: each gt box's IOU against each output row, 0 below the
    # gate, after a column of zeros that stands for "no row" (id -1).
    scored: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    box_index: dict[tuple[int, int], int] = {}
    votes: dict[int, Counter] = {}
    for f, boxes in _by_frame(gt).items():
        rows = out_by_frame.get(f, [])
        ov = row_iou(boxes, rows)
        gated = np.zeros((len(boxes), len(rows) + 1))
        gated[:, 1:] = np.where(ov >= RESTORE_IOU, ov, 0.0)
        ids = np.array([-1] + [r.id for r in rows])
        scored[f] = gated, ids
        # argmax takes the first row of highest IOU; 0 when none passes.
        for i, (b, k) in enumerate(zip(boxes, gated.argmax(axis=1))):
            box_index[(f, b.id)] = i  # a repeated key names its last box
            if k:
                votes.setdefault(b.id, Counter())[int(ids[k])] += 1
    mapping = {
        gid: min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        for gid, counter in votes.items()
    }

    breakdown: list[tuple[int, int, bool, int, float]] = []
    for frame, gid in dropped:
        gated, ids = scored[frame]
        row = gated[box_index[(frame, gid)]]
        k = 0
        if gid in mapping:
            k = int(np.argmax(np.where(ids == mapping[gid], row, 0.0)))
        breakdown.append((frame, gid, k > 0, int(ids[k]), float(row[k])))
    recall = sum(ok for _, _, ok, _, _ in breakdown) / len(dropped) if dropped else 1.0
    return recall, breakdown

