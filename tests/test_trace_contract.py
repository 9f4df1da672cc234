"""The benchmark's tracer still fits the pipeline it wraps.

perfbench/tracing.py rebinds every stage name in `STEP_CHILDREN` on
`omctrack.association` and fails a benchmark run whose spans do not nest
directly under `Tracker.step`. A refactor that drops one of those names, or
calls one traced stage from inside another through the module's globals,
would break every benchmark run; this test catches it in the tier-1 suite.
The benchmark's files are imported as they are, not edited.
"""

import sys
from pathlib import Path

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


def test_tiny_world_spans_nest_under_tracker_step():
    scenario = WORKLOADS["tiny"]
    frames, _, _ = generate(ScenarioConfig(seed=0, **scenario))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracker = Tracker(PipelineConfig(stride=scenario.get("stride", 8)))
        for frame in frames:
            tracer.frame = frame.frame_index
            tracker.step(frame)
    names = {span[0] for span in tracer.spans}
    assert tracing.STEP in names
    assert "recheck.cross_correlate" in names  # tracklets were propagated
    assert tracing.nesting_errors(tracer.spans) == []
