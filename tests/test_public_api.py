"""The package's declared surface: 19 names, each in the README's API section.

A name added to `omctrack.__all__` fails here until it is added to API
below and to the README, so the surface grows only on purpose. The
tracker's config fields and the parameters of `Tracker` and
`track_sequence` are pinned too, so changing them is a deliberate edit
here.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import omctrack

README = Path(__file__).resolve().parents[1] / "README.md"

API = [
    "Tracker", "PipelineConfig", "track_sequence", "RefineWeights",
    "FrameContainer", "iter_container", "write_container", "MotBox", "read_mot_boxes",
    "write_mot_results",
    "ContainerFormatError", "MotParseError", "FrameValueError",
    "evaluate", "EvalReport",
    "ScenarioConfig", "generate", "iter_generate", "restoration_report",
]

# Kernels and their types: importable from their modules, not exported.
KERNELS = {
    "association": ["TrackletTable", "associate", "extract_embeddings", "update_tracklets"],
    "detection": ["Box", "Boxes", "decode_boxes", "greedy_nms", "iou"],
    "fusion": ["fuse", "targetness_score"],
    "numerics": ["conv3x3_forward", "l2_normalize_grid", "sigmoid"],
    "recheck": ["aggregate", "cross_correlate", "refine", "transductive_detections"],
    "supervision": ["gaussian_target", "logistic_mse_loss", "loss_gradient"],
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from omctrack import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(omctrack.__all__)


def test_all_is_the_declared_api():
    assert len(API) == 19
    assert sorted(omctrack.__all__) == sorted(API)


def test_readme_api_section_names_each_export():
    section = README.read_text().split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)`", section))
    assert [name for name in API if name not in named] == []


@pytest.mark.parametrize("module", sorted(KERNELS))
def test_kernels_import_from_their_modules_only(module):
    mod = importlib.import_module(f"omctrack.{module}")
    for name in KERNELS[module]:
        assert name in mod.__all__
        assert not hasattr(omctrack, name)


def test_tracker_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(omctrack.PipelineConfig)] == [
        "h_scale", "score_thr", "nms_iou_thr", "fusion_epsilon", "shrink_radius", "stride",
        "recheck_enabled", "retention_frames", "embedding_momentum", "emb_match_thr",
        "iou_match_thr",
    ]


@pytest.mark.parametrize("name, params", [
    ("Tracker", ["pipeline", "weights"]),
    ("track_sequence", ["frames", "pipeline", "weights", "public_dets"]),
])
def test_tracker_parameters_are_pinned(name, params):
    assert list(inspect.signature(getattr(omctrack, name)).parameters) == params
