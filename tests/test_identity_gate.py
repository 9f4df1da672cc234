"""Identity gate: the identities founded follow the number of targets.

Restored boxes must not found identities (ROADMAP item 1). Each case runs
the default pipeline on one seeded world, seeds 0-9 of each, and asserts
that it founds at most two identities per target; on the desk world
re-check must also beat the detector alone by at least 0.15 MOTA. Before
restored boxes were barred from founding, desk seed 8 founded 280
identities and every clutter seed 153 to 175.
"""

import pytest

from omctrack.association import PipelineConfig, track_sequence
from omctrack.metrics import evaluate
from omctrack.synth import ScenarioConfig, generate

WORLDS = {
    "desk": dict(num_targets=6, height=20, width=20, frames=200,
                 dropout_prob=0.3, clutter_similarity=0.3),
    "clutter": dict(num_targets=4, height=12, width=12, frames=80,
                    dropout_prob=0.2, clutter_similarity=0.6),
}


@pytest.mark.parametrize("world, seed", [
    (world, seed) for world in WORLDS for seed in range(10)
])
def test_identities_follow_targets(world, seed):
    cfg = ScenarioConfig(seed=seed, **WORLDS[world])
    frames, gt, _ = generate(cfg)
    rows, tracker = track_sequence(frames, PipelineConfig())
    identities = tracker.next_id - 1
    assert identities <= 2 * cfg.num_targets
    if world == "desk":
        detector_rows, _ = track_sequence(frames, PipelineConfig(recheck_enabled=False))
        gain = evaluate(gt, rows).mota - evaluate(gt, detector_rows).mota
        assert gain >= 0.15


def test_clutter_mota():
    # Measured 0.978; ghost identities took it to -11.578.
    frames, gt, _ = generate(ScenarioConfig(seed=0, **WORLDS["clutter"]))
    rows, _ = track_sequence(frames, PipelineConfig())
    assert evaluate(gt, rows).mota >= 0.9


# Measured 7 and 12 identities at alpha 0, 6 and 10 at 0.5; seed 7 at alpha
# 0 sits on the bound. Restored matches still teach their tracklets
# (ROADMAP item 10); once they do not, this bound can tighten.
@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("seed", [0, 7])
def test_identities_follow_targets_below_default_alpha(seed, alpha):
    cfg = ScenarioConfig(seed=seed, **WORLDS["desk"])
    frames, _, _ = generate(cfg)
    _, tracker = track_sequence(frames, PipelineConfig(embedding_momentum=alpha))
    assert tracker.next_id - 1 <= 2 * cfg.num_targets
