"""Pinned result rows: refactors of the pipeline must not move a single byte.

Each case tracks a seeded synthetic world and hashes the file that
write_mot_results produces. The digests were recorded before boxes became
struct-of-arrays and IOU became one pairwise kernel; a change that alters
them alters tracking output and has to explain every difference.
"""

import hashlib

import pytest

from omctrack.association import track_sequence
from omctrack.frame_io import MotBox, write_mot_results
from omctrack.synth import ScenarioConfig, generate

DESK = dict(num_targets=6, height=20, width=20, frames=40,
            dropout_prob=0.3, clutter_similarity=0.3, seed=0)
# The acceptance clutter world, shortened: look-alike clutter, so many
# restored boxes, which continue its 4 tracklets and found none. It keeps
# few tracklets alive; ROADMAP item 12's crowd world is to cover
# association under many live tracklets.
CLUTTER = dict(num_targets=4, height=12, width=12, frames=40,
               dropout_prob=0.2, clutter_similarity=0.6, seed=0)

CASES = {
    "desk": (DESK, False, "f5f460d3250ae241906fc6fcfaa6069c79e32c52afe1043dc048e43664f947ce"),
    # Re-pinned when restored boxes stopped founding identities: 116
    # identities and 1235 rows became 4 and 153.
    "clutter": (CLUTTER, False, "fc2a24dda1e22f805c55eb3af387ca4da7f7cc2f2b75037b070f772d37712ad6"),
    # Public mode: every ground-truth box that was not dropped, at conf 0.9.
    "desk_public": (DESK, True, "9a432277ad162ee77077642e91b65d7a9ed62a7ee8e95764d23659d36684348d"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_match_pinned_digest(name, tmp_path):
    scenario, public, digest = CASES[name]
    frames, gt, dropped = generate(ScenarioConfig(**scenario))
    dets = None
    if public:
        missing = set(dropped)
        dets = [MotBox(b.frame, -1, b.x, b.y, b.w, b.h, 0.9)
                for b in gt if (b.frame, b.id) not in missing]
    rows, _ = track_sequence(frames, public_dets=dets)
    path = tmp_path / "rows.txt"
    write_mot_results(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
