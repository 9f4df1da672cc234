"""Multi-object tracking with a transductive detection double-check.

The pipeline decodes per-cell detector maps into boxes, propagates every
active tracklet into the current frame by a global identity-embedding
search, fuses the propagated (transductive) detections with the detector's
own output through an IOU vote, and associates the fused set into
identity-consistent tracks. Companion modules provide the training math of
the propagation map, CLEAR MOT / IDF1 evaluation, a binary frame-container
format, and a synthetic harness that makes the restoration behaviour
measurable without any trained network.
"""

from .association import (
    PipelineConfig,
    Tracker,
    TrackerConfig,
    TrackletTable,
    associate,
    extract_embeddings,
    track_sequence,
    update_tracklets,
)
from .detection import (
    Box,
    Boxes,
    decode_boxes,
    decode_offset_bar,
    decode_offset_sigmoid,
    greedy_nms,
    iou,
)
from .frame_io import (
    ContainerFormatError,
    FrameContainer,
    MotBox,
    MotParseError,
    read_container,
    read_mot_boxes,
    write_container,
    write_mot_results,
)
from .fusion import fuse, targetness_score
from .metrics import EvalReport, clear_mot, evaluate, idf1, mt_ml
from .numerics import (
    FrameValueError,
    conv3x3_forward,
    l2_normalize_grid,
    sigmoid,
)
from .recheck import (
    EmbeddingSet,
    RefineWeights,
    aggregate,
    cross_correlate,
    refine,
    shrink_mask,
    transductive_detections,
)
from .supervision import gaussian_target, logistic_mse_loss, loss_gradient
from .synth import ScenarioConfig, generate, iter_generate, restoration_report

__version__ = "0.1.0"
