"""Pinned synthetic worlds: how synth builds a world must not move a byte.

Each case generates a seeded world, writes its container and hashes the
file, and hashes the exact ground-truth rows and dropout log. Every golden
row digest and acceptance number derives from these bytes, so a change to
how frames are built (streaming, row blocks, fewer copies) keeps them
identical. The digests were recorded before frames were built one at a
time; a change that alters them is a new world and has to say so.
"""

import dataclasses
import hashlib

import pytest

from omctrack.frame_io import write_container
from omctrack.synth import ScenarioConfig, generate

from test_golden_rows import CLUTTER, DESK

# 20 targets with embedding noise and dropout on small grids. 64-cell row
# blocks split the 17x24 grid into 2-row blocks and a last 1-row block, and
# the 9x70 grid into single rows.
NOISY = dict(num_targets=20, height=17, width=24, frames=6, dropout_prob=0.3,
             embedding_noise=0.05, seed=5, embed_dim=64, feat_dim=8,
             size_min=1.0, size_max=2.0)
WIDE = dict(NOISY, height=9, width=70, seed=11)

CASES = {
    "desk": (DESK,
             "ed22380e8d6b8286d295592f0e88a019b39a9cf19653d19452dad7c259263c57",
             "3f7783b290550fb03a993bb6f01fd7de112c643a270a874c9d7f3fa4f75f7cf5"),
    "clutter": (CLUTTER,
                "4d9dbac690a71964e0321c23744d3ec6004f9d388701789e98f14f6642d26e3d",
                "0de737f740e33e3fff921dcf847c6161f2933d99f7f0bae71bd72c44e4bec8e4"),
    "noisy20": (NOISY,
                "26c2e9cdad73108840616de2b1c73f56966633b80138ef73053928e94005a372",
                "aef01b05f01b74ac718a4433e92c753faf9a79a703300f8cfbca2102eb00bc7a"),
    "wide20": (WIDE,
               "a4cb52f9b247b9fbb719772eaa4052b6121d745f08642905ba3b660f073ea443",
               "8f179c8b8d79c34b1a27da9c25570872aaec0e710255a79baddfa6d7dd3b9aa8"),
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def gt_digest(gt, dropped) -> str:
    """Hash of the exact GT rows and dropped pairs (repr round-trips floats)."""
    text = repr(([dataclasses.astuple(b) for b in gt], list(dropped)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_world_bytes_match_pinned_digests(name, tmp_path):
    scenario, container_digest, truth_digest = CASES[name]
    frames, gt, dropped = generate(ScenarioConfig(**scenario))
    path = tmp_path / "world.omcf"
    write_container(frames, path)
    assert sha256_file(path) == container_digest
    assert gt_digest(gt, dropped) == truth_digest
