"""World scan: identities and re-check gain over random small honest worlds.

The identity gate pins a few worlds; this scan draws WORLD_COUNT of them
from one seeded generator, over settings no pinned test uses together: 1-6
targets on square grids of side 8-20, dropout 0-0.6, fast and slow
targets, and every `--alpha` from 0 to 1 (ROADMAP item 11). A world is
honest when no clutter cell outranks a target's own embedding: clutter is
capped at the target's expected cosine under noise, 1 / sqrt(1 + noise^2 *
C), minus 0.1.

Per world, the default pipeline must found at most max(2 x targets, the
detector-only identities) identities and lose at most GAIN_MARGIN MOTA to
the detector alone. A failure names the world's ScenarioConfig and alpha,
which reproduce it.
"""

import math
import random

import pytest

from omctrack.association import PipelineConfig, track_sequence
from omctrack.metrics import evaluate
from omctrack.synth import ScenarioConfig, generate

WORLD_COUNT = 80
EMBED_DIM = 64
# The passing worlds lose at most 0.017 MOTA to the detector alone, all at
# dropout 0, where re-check can only add boxes.
GAIN_MARGIN = 0.02


def honest_worlds(count, seed=0):
    """count (ScenarioConfig, alpha) pairs drawn from random.Random(seed)."""
    rng = random.Random(seed)
    worlds = []
    for _ in range(count):
        side = rng.randint(8, 20)
        noise = rng.choice([0.0, 0.0, 0.02, 0.05])
        cap = 1.0 / math.sqrt(1.0 + noise * noise * EMBED_DIM) - 0.1
        cfg = ScenarioConfig(
            num_targets=rng.randint(1, 6), height=side, width=side, frames=60,
            dropout_prob=rng.choice([0.0, 0.2, 0.4, 0.6]),
            speed_max=rng.choice([0.35, 0.8]),
            clutter_similarity=min(rng.choice([0.0, 0.3, 0.6, 0.8]), cap),
            embedding_noise=noise, embed_dim=EMBED_DIM, feat_dim=8,
            seed=rng.randint(0, 999),
        )
        worlds.append((cfg, rng.choice([0.0, 0.5, 0.9, 1.0])))
    return worlds


ITEM_10 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: restored matches teach tracklets and outbid detections",
)
# Positions in the scan of the worlds that lose more than the margin, each
# with restored boxes as FP or ID switches: 3 (-0.050, dropout 0, clutter
# 0.8), 13 (-0.073, dropout 0, 33 ID switches), 16 (-0.025, a 6-target 8x8
# grid at clutter 0.8) and 18 (-0.069, dropout 0, clutter 0.8, alpha 0).
FAILING = {3, 13, 16, 18}


@pytest.mark.parametrize("cfg, alpha", [
    pytest.param(cfg, alpha, id=f"world{i:02d}", marks=ITEM_10 if i in FAILING else ())
    for i, (cfg, alpha) in enumerate(honest_worlds(WORLD_COUNT))
])
def test_identities_and_gain(cfg, alpha):
    frames, gt, _ = generate(cfg)
    rows, tracker = track_sequence(frames, PipelineConfig(embedding_momentum=alpha))
    detector_rows, detector = track_sequence(
        frames, PipelineConfig(recheck_enabled=False, embedding_momentum=alpha))
    identities, detector_identities = tracker.next_id - 1, detector.next_id - 1
    gain = evaluate(gt, rows).mota - evaluate(gt, detector_rows).mota
    world = f"{cfg!r}, alpha={alpha}"
    assert identities <= max(2 * cfg.num_targets, detector_identities), (
        f"{identities} identities on {world}")
    assert gain >= -GAIN_MARGIN, f"gain {gain:.3f} on {world}"
