"""Multi-object tracking with a transductive detection double-check.

The pipeline decodes per-cell detector maps into boxes, propagates every
active tracklet into the current frame by a global identity-embedding
search, fuses the propagated (transductive) detections with the detector's
own output through an IOU vote, and associates the fused set into
identity-consistent tracks. One `Tracker.step` a frame runs it all.

The package exports what a user needs to run and score the tracker
(`__all__`): the tracker and its one config, the refinement weights, the
frame container and MOT readers and writers with their errors, the
scorer, and the synthetic world with its restoration report. The pipeline's kernels
and their types are imported from their modules, e.g.
`from omctrack.detection import iou`; they trust the checks the tracker
makes where a frame enters (`FrameContainer.validate`, the config classes,
`Tracker._match`).
"""

from .association import PipelineConfig, Tracker, track_sequence
from .frame_io import (
    ContainerFormatError,
    FrameContainer,
    MotBox,
    MotParseError,
    iter_container,
    read_mot_boxes,
    write_container,
    write_mot_results,
)
from .metrics import EvalReport, evaluate
from .numerics import FrameValueError
from .recheck import RefineWeights
from .synth import ScenarioConfig, generate, iter_generate, restoration_report

__all__ = [
    "Tracker",
    "PipelineConfig",
    "track_sequence",
    "RefineWeights",
    "FrameContainer",
    "iter_container",
    "write_container",
    "MotBox",
    "read_mot_boxes",
    "write_mot_results",
    "ContainerFormatError",
    "MotParseError",
    "FrameValueError",
    "evaluate",
    "EvalReport",
    "ScenarioConfig",
    "generate",
    "iter_generate",
    "restoration_report",
]

__version__ = "0.1.0"
