"""Identity gate: the identities founded follow the number of targets.

Restored boxes must not found identities (ROADMAP item 1). Each case runs
the default pipeline on one seeded world, seeds 0-9 of each, and asserts
that it founds at most two identities per target; on the desk world
re-check must also beat the detector alone by at least 0.15 MOTA. The
cases that today's tracker fails are strict xfails, so the fix for item 1
must remove their marks.
"""

import pytest

from omctrack.association import PipelineConfig, track_sequence
from omctrack.metrics import clear_mot
from omctrack.synth import ScenarioConfig, generate

WORLDS = {
    "desk": dict(num_targets=6, height=20, width=20, frames=200,
                 dropout_prob=0.3, clutter_similarity=0.3),
    "clutter": dict(num_targets=4, height=12, width=12, frames=80,
                    dropout_prob=0.2, clutter_similarity=0.6),
}

GHOSTS = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: restored boxes found ghost identities",
)


# Desk seed 8 founds 280 identities and loses 0.589 MOTA to the detector
# alone; every clutter seed founds 153 to 175.
FAILING = {("desk", 8)} | {("clutter", seed) for seed in range(10)}


@pytest.mark.parametrize("world, seed", [
    pytest.param(world, seed, marks=GHOSTS if (world, seed) in FAILING else ())
    for world in WORLDS for seed in range(10)
])
def test_identities_follow_targets(world, seed):
    cfg = ScenarioConfig(seed=seed, **WORLDS[world])
    frames, gt, _ = generate(cfg)
    rows, tracker = track_sequence(frames, PipelineConfig())
    identities = tracker.next_id - 1
    assert identities <= 2 * cfg.num_targets
    if world == "desk":
        detector_rows, _ = track_sequence(frames, PipelineConfig(recheck_enabled=False))
        gain = clear_mot(gt, rows)[3] - clear_mot(gt, detector_rows)[3]
        assert gain >= 0.15
