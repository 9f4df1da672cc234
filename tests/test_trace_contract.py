"""The benchmark's tracer still fits the pipeline it wraps.

perfbench/tracing.py rebinds every stage name in `STEP_CHILDREN` on
`omctrack.association` and fails a benchmark run whose spans do not nest
directly under `Tracker.step`. A refactor that drops one of those names, or
calls one traced stage from inside another through the module's globals,
would break every benchmark run; this test catches it in the tier-1 suite.
So does a stage that reaches a traced name a second time: the benchmark's
counters must add up (basic_dets + restored == fused, matches + births ==
rows), and a transductive NMS sent through `association.greedy_nms` would
count its boxes as basic detections. The benchmark's files are imported as
they are, not edited.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import tracing
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(PERFBENCH))

from omctrack import association
from omctrack.association import PipelineConfig, Tracker
from omctrack.synth import ScenarioConfig, generate


def test_every_traced_stage_name_is_bound_in_association():
    missing = [attr for attr in tracing.STEP_CHILDREN.values()
               if not callable(getattr(association, attr, None))]
    assert missing == []


# The tiny workload, and a small world whose dropouts restoration recovers.
WORLDS = {
    "tiny": WORKLOADS["tiny"],
    "small": dict(num_targets=3, height=12, width=12, frames=20, dropout_prob=0.4),
}


def traced_run(scenario: dict) -> tracing.Tracer:
    frames, _, _ = generate(ScenarioConfig(seed=0, **scenario))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracker = Tracker(PipelineConfig(stride=scenario.get("stride", 8)))
        for frame in frames:
            tracer.frame = frame.frame_index
            tracker.step(frame)
    return tracer


def test_tiny_world_spans_nest_under_tracker_step():
    tracer = traced_run(WORLDS["tiny"])
    names = {span[0] for span in tracer.spans}
    assert tracing.STEP in names
    assert "recheck.cross_correlate" in names  # tracklets were propagated
    assert tracing.nesting_errors(tracer.spans) == []


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_counters_add_up(world):
    c = traced_run(WORLDS[world]).counts
    assert c["fusion.restored"] > 0  # restoration fired
    assert c["detection.basic_dets"] + c["fusion.restored"] == c["fusion.fused"]
    assert c["association.matches"] + c["association.births"] == c["association.rows"]


def test_live_count_is_the_largest_table_through_removals():
    # With the search off, a target the detector drops for two frames
    # running outlives a retention window of 2 frames, so tracklets are
    # dropped as well as founded (the table even empties). The tracer's live
    # count must still be the most rows the tracker held after any step, as
    # perfbench reads it off the lengths update_tracklets returns.
    scenario = WORLDS["small"]
    frames, _, _ = generate(ScenarioConfig(seed=0, **scenario))
    tracer = tracing.Tracer()
    held, removed = [], 0
    with tracing.instrumented(tracer):
        tracker = Tracker(PipelineConfig(stride=scenario.get("stride", 8),
                                         recheck_enabled=False, retention_frames=2))
        for frame in frames:
            tracer.frame = frame.frame_index
            before = set(tracker.live.ids.tolist())
            tracker.step(frame)
            removed += len(before - set(tracker.live.ids.tolist()))
            held.append(len(tracker.live))
    c = tracer.counts
    assert removed > 0 and 0 in held
    assert c["association.live_tracklets_max"] == max(held)
    assert c["association.births"] == tracker.next_id - 1
    assert c["association.matches"] + c["association.births"] == c["association.rows"]
