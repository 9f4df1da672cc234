"""Row contract of the float32 embedding search.

The golden worlds' rows must keep every frame, id and geometry field byte
for byte, while `conf` (printed with 6 decimals) may move by at most one
unit in its last printed place. `row_contract.json` holds, for each world
of `test_golden_rows.CASES`, the SHA-256 of its rows with the `conf` field
blanked and every `conf` in millionths, both recorded with the float64
search that preceded the float32 one; the clutter entry was re-recorded
with the float32 search when restored boxes stopped founding identities.
Re-record it with

    PYTHONPATH=src python tests/test_row_contract.py > tests/row_contract.json

only when a change is meant to move frame, id or geometry fields.
"""

import hashlib
import json
import pathlib

import pytest

from omctrack.association import track_sequence
from omctrack.frame_io import MotBox, write_mot_results
from omctrack.synth import ScenarioConfig, generate

from test_golden_rows import CASES

FIXTURE = pathlib.Path(__file__).with_name("row_contract.json")
CONF_FIELD = 6
# The largest |delta conf| allowed, in units of the last printed place.
CONF_ULPS = 1


def written_rows(name, tmp_dir):
    """The lines write_mot_results produces for a golden world."""
    scenario, public, _ = CASES[name]
    frames, gt, dropped = generate(ScenarioConfig(**scenario))
    dets = None
    if public:
        missing = set(dropped)
        dets = [MotBox(b.frame, -1, b.x, b.y, b.w, b.h, 0.9)
                for b in gt if (b.frame, b.id) not in missing]
    rows, _ = track_sequence(frames, public_dets=dets)
    path = pathlib.Path(tmp_dir) / f"{name}.txt"
    write_mot_results(rows, path)
    return path.read_text().splitlines()


def split_conf(lines):
    """(SHA-256 of the lines with conf blanked, conf in millionths)."""
    blanked, conf = [], []
    for line in lines:
        fields = line.split(",")
        whole, frac = fields[CONF_FIELD].split(".")
        conf.append(int(whole + frac))
        fields[CONF_FIELD] = ""
        blanked.append(",".join(fields))
    digest = hashlib.sha256("\n".join(blanked).encode()).hexdigest()
    return digest, conf


@pytest.mark.parametrize("name", sorted(CASES))
def test_geometry_identical_and_conf_within_one_millionth(name, tmp_path):
    want = json.loads(FIXTURE.read_text())[name]
    digest, conf = split_conf(written_rows(name, tmp_path))
    assert digest == want["blanked_sha256"]
    assert len(conf) == len(want["conf_micro"])
    worst = max((abs(a - b) for a, b in zip(conf, want["conf_micro"])), default=0)
    assert worst <= CONF_ULPS


def test_conf_parse_is_exact():
    digest, conf = split_conf(["1,2,3.00,4.00,5.00,6.00,0.123456,-1,-1,-1",
                               "1,3,3.00,4.00,5.00,6.00,1.000000,-1,-1,-1"])
    assert conf == [123456, 1000000]
    assert digest == hashlib.sha256(
        b"1,2,3.00,4.00,5.00,6.00,,-1,-1,-1\n1,3,3.00,4.00,5.00,6.00,,-1,-1,-1"
    ).hexdigest()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {}
        for name in sorted(CASES):
            digest, conf = split_conf(written_rows(name, tmp))
            record[name] = {"blanked_sha256": digest, "conf_micro": conf}
    print(json.dumps(record, separators=(",", ":")))
