"""Effect of shrinking each response map to a window around its peak.

Objects with similar appearance light up a tracklet's similarity map far
from the true target. Zeroing everything outside a (2r+1)^2 window around
the peak removes that ambiguous mass before the maps are aggregated. The
ablation compares window radii against no shrinking on a clutter-heavy
world, both as raw off-target response mass and as end-to-end false
positives. The window cuts the off-target mass several-fold, but on this
world end-to-end FP is 0 at every radius: restored boxes only continue
tracks, and no clutter cell here outranks a target's own embedding.
"""

import math

import numpy as np

import omctrack as ot
from omctrack.numerics import normalize_cells
from omctrack.recheck import aggregate, cross_correlate

cfg = ot.ScenarioConfig(
    num_targets=4,
    height=12,
    width=12,
    frames=80,
    dropout_prob=0.2,
    clutter_similarity=0.6,
    seed=0,
)
frames, gt, _ = ot.generate(cfg)

# --- response-level view on one frame -------------------------------------
frame = frames[40]
gt_now = sorted((b for b in gt if b.frame == frame.frame_index), key=lambda b: b.id)
vectors, on_target = [], np.zeros((cfg.height, cfg.width), dtype=bool)
for b in gt_now:
    cy = int((b.y + b.h / 2) / cfg.stride)
    cx = int((b.x + b.w / 2) / cfg.stride)
    vectors.append(frame.embed[cy, cx])
    y0 = max(int(b.y / cfg.stride), 0)
    x0 = max(int(b.x / cfg.stride), 0)
    y1 = min(int((b.y + b.h) / cfg.stride) + 1, cfg.height)
    x1 = min(int((b.x + b.w) / cfg.stride) + 1, cfg.width)
    on_target[y0:y1, x0:x1] = True

# Templates are plain float32 rows, made as the tracker makes its own: by
# normalize_cells, from the targets' centre cells.
stack = cross_correlate(normalize_cells(np.stack(vectors)), frame.embed)
full = aggregate(stack, math.inf)
shrunk = aggregate(stack, 3)
print(f"frame {frame.frame_index}: off-target response mass "
      f"{full[~on_target].sum():.1f} unshrunk vs "
      f"{shrunk[~on_target].sum():.1f} with r=3\n")

# --- end-to-end view --------------------------------------------------------
print(f"{'radius':>8} {'MOTA':>9} {'FP':>6} {'FN':>5}")
for radius in (1.0, 3.0, 5.0, 7.0, 9.0, math.inf):
    pipeline = ot.PipelineConfig(shrink_radius=radius)
    rows, tracker = ot.track_sequence(frames, pipeline)
    report = ot.evaluate(gt, rows, restored_count=tracker.restored_emitted)
    label = "inf" if math.isinf(radius) else f"{radius:g}"
    print(f"{label:>8} {report.mota:>9.4f} {report.fp:>6d} {report.fn:>5d}")
