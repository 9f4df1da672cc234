import builtins
import errno
import struct

import numpy as np
import pytest

from omctrack import frame_io
from omctrack.frame_io import (
    ContainerFormatError,
    FrameContainer,
    MotBox,
    MotParseError,
    read_container,
    read_mot_boxes,
    write_container,
    write_mot_results,
    write_omcf,
)


def random_frame(rng, index, h=4, w=4, embed_dim=16, feat_dim=8):
    prob = rng.uniform(0.0, 1.0, size=(h, w, 1)).astype(np.float32)
    return FrameContainer(
        frame_index=index,
        prob=prob,
        boxes=rng.normal(size=(h, w, 4)).astype(np.float32),
        embed=rng.normal(size=(h, w, embed_dim)).astype(np.float32),
        feat=rng.normal(size=(h, w, feat_dim)).astype(np.float32),
    )


class TestContainerRoundTrip:
    def test_single_frame_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = random_frame(rng, 1)
        path = tmp_path / "one.omcf"
        write_container([frame], path)
        (back,) = read_container(path)
        assert back.frame_index == 1
        for name, arr in frame.tensors().items():
            assert np.array_equal(back.tensors()[name], arr), name

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [random_frame(rng, i + 1) for i in range(3)]
        p1, p2 = tmp_path / "a.omcf", tmp_path / "b.omcf"
        write_container(frames, p1)
        write_container(read_container(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.omcf"
        assert write_container([], path) == 0
        assert read_container(path) == []

    def test_heterogeneous_sizes_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = [random_frame(rng, 1, h=4), random_frame(rng, 2, h=4),
                  random_frame(rng, 3, h=6)]
        with pytest.raises(ValueError, match="homogeneous"):
            write_container(frames, tmp_path / "bad.omcf")

    def test_nonconsecutive_numbering_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng, 1), random_frame(rng, 3)]
        with pytest.raises(ValueError, match="consecutively"):
            write_container(frames, tmp_path / "bad.omcf")


class TestContainerErrors:
    def test_corrupted_magic(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "x.omcf"
        write_container([random_frame(rng, 1)], path)
        data = bytearray(path.read_bytes())
        data[0:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="magic"):
            read_container(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "x.omcf"
        write_container([random_frame(rng, 1)], path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(ContainerFormatError) as err:
            read_container(path)
        assert err.value.offset is not None
        assert "offset" in str(err.value)

    def test_payload_cut_short_reports_its_start(self, tmp_path):
        rng = np.random.default_rng(10)
        frame = random_frame(rng, 1)
        path = tmp_path / "x.omcf"
        write_container([frame, random_frame(rng, 2)], path)
        data = path.read_bytes()
        start = data.index(frame.embed.tobytes())
        path.write_bytes(data[: start + 100])
        with pytest.raises(ContainerFormatError, match="tensor 'embed' payload") as err:
            read_container(path)
        assert err.value.offset == start

    def test_oversized_dims_are_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "x.omcf"
        header = struct.pack("<4sIII", b"OMCF", 1, 1, 1)
        tensor = struct.pack("<I4sI3IB", 4, b"prob", 3, 100_000, 100_000, 512, 0)
        path.write_bytes(header + tensor + bytes(64))
        with pytest.raises(ContainerFormatError, match="payload") as err:
            read_container(path)
        assert err.value.offset == len(header) + len(tensor)

    def test_unknown_dtype_code(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "x.omcf"
        write_container([random_frame(rng, 1)], path)
        data = bytearray(path.read_bytes())
        # First tensor header: magic(4) version(4) count(4) tcount(4)
        # name_len(4) name(4: 'prob') ndim(4) dims(12) -> dtype at 40
        offset = 4 + 4 + 4 + 4 + 4 + 4 + 4 + 12
        assert data[offset] == 0
        data[offset] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="dtype"):
            read_container(path)

    def test_channel_count_change_names_the_frame(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = [random_frame(rng, 1, embed_dim=16), random_frame(rng, 2, embed_dim=12)]
        path = tmp_path / "x.omcf"
        write_omcf(path, [f.tensors() for f in frames])
        with pytest.raises(ContainerFormatError, match="frame 2 tensor 'embed'"):
            read_container(path)

    def test_prob_out_of_range_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        frame = random_frame(rng, 1)
        frame.prob[0, 0, 0] = 1.5
        with pytest.raises(ValueError, match="prob"):
            write_container([frame], tmp_path / "x.omcf")


class TestContainerArrays:
    def test_arrays_are_writeable_and_independent(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = [random_frame(rng, i + 1) for i in range(2)]
        path = tmp_path / "x.omcf"
        write_container(frames, path)
        arrays = [a for fc in read_container(path) for a in fc.tensors().values()]
        assert all(a.flags.writeable and a.flags.owndata for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        arrays[0][...] = -1.0
        wanted = [a for fc in frames for a in fc.tensors().values()]
        assert all(np.array_equal(a, w) for a, w in zip(arrays[1:], wanted[1:]))

    def test_values_are_left_to_the_tracker(self, tmp_path):
        rng = np.random.default_rng(12)
        frame = random_frame(rng, 1)
        frame.embed[0, 0, 0] = np.nan
        frame.prob[1, 1, 0] = 1.5
        path = tmp_path / "x.omcf"
        write_omcf(path, [frame.tensors()])
        (back,) = read_container(path)
        with pytest.raises(ValueError, match="non-finite"):
            back.validate()


class TestMotText:
    def test_read_detection_row(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        (box,) = read_mot_boxes(path)
        assert box == MotBox(frame=1, id=-1, x=10.0, y=20.0, w=30.0, h=40.0, conf=0.9)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("")
        assert read_mot_boxes(path) == []

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,2,3,4,5,6,0.5\n1,2,x,4,5,6,0.5\n")
        with pytest.raises(MotParseError, match="line 2"):
            read_mot_boxes(path)

    @pytest.mark.parametrize("row", [
        "1,-1,10,20,0,40,0.9",
        "1,-1,10,20,30,-4,0.9",
        "1,-1,nan,20,30,40,0.9",
        "1,-1,10,20,inf,40,0.9",
        "1,-1,10,20,30,40,nan",
        "nan,-1,10,20,30,40,0.9",
    ])
    def test_degenerate_or_non_finite_box_rejected(self, tmp_path, row):
        path = tmp_path / "det.txt"
        path.write_text(f"1,-1,10,20,30,40,0.9\n{row}\n")
        with pytest.raises(MotParseError, match="line 2"):
            read_mot_boxes(path)

    def test_trailing_fields_ignored(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("3,7,1,2,3,4,0.25,9,9,9,extra-way-beyond\n")
        (box,) = read_mot_boxes(path)
        assert (box.frame, box.id, box.conf) == (3, 7, 0.25)

    def test_write_single_row_format(self, tmp_path):
        path = tmp_path / "res.txt"
        write_mot_results(
            [MotBox(frame=2, id=5, x=1.125, y=2.0, w=8.5, h=16.0, conf=0.8125)],
            path,
        )
        assert path.read_text() == "2,5,1.12,2.00,8.50,16.00,0.812500,-1,-1,-1\n"

    def test_output_sorted_by_frame_then_id(self, tmp_path):
        path = tmp_path / "res.txt"
        rows = [
            MotBox(frame=2, id=1, x=0, y=0, w=1, h=1, conf=1.0),
            MotBox(frame=1, id=2, x=0, y=0, w=1, h=1, conf=1.0),
            MotBox(frame=1, id=1, x=0, y=0, w=1, h=1, conf=1.0),
        ]
        write_mot_results(rows, path)
        ordering = [tuple(map(int, line.split(",")[:2]))
                    for line in path.read_text().splitlines()]
        assert ordering == [(1, 1), (1, 2), (2, 1)]

    def test_round_trip_preserves_printed_precision(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = [
            MotBox(
                frame=int(rng.integers(1, 50)),
                id=int(rng.integers(1, 9)),
                x=float(rng.uniform(0, 500)),
                y=float(rng.uniform(0, 500)),
                w=float(rng.uniform(1, 80)),
                h=float(rng.uniform(1, 80)),
                conf=float(rng.uniform(0, 1)),
            )
            for _ in range(40)
        ]
        path = tmp_path / "res.txt"
        write_mot_results(rows, path)
        back = read_mot_boxes(path)
        expected = sorted(rows, key=lambda b: (b.frame, b.id))
        for got, want in zip(back, expected):
            assert (got.frame, got.id) == (want.frame, want.id)
            for field in ("x", "y", "w", "h"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 0.005
            assert abs(got.conf - want.conf) <= 5e-7
        # a second round trip is exact: values are already at print precision
        path2 = tmp_path / "res2.txt"
        write_mot_results(back, path2)
        assert path.read_text() == path2.read_text()

    def test_rejects_detection_ids(self, tmp_path):
        with pytest.raises(ValueError, match="ids"):
            write_mot_results(
                [MotBox(frame=1, id=-1, x=0, y=0, w=1, h=1, conf=1.0)],
                tmp_path / "res.txt",
            )


class _DiskFullAfter:
    """Text file wrapper whose write fails once `limit` characters are out."""

    def __init__(self, f, limit):
        self.f, self.limit, self.written = f, limit, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        room = self.limit - self.written
        if len(text) > room:
            self.f.write(text[:room])
            self.f.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.written += len(text)
        return self.f.write(text)


class TestAtomicResults:
    def rows(self, frames):
        return [MotBox(frame=f, id=i, x=f, y=i, w=4.0, h=8.0, conf=0.5)
                for f in range(1, frames + 1) for i in (1, 2)]

    def test_failed_write_keeps_previous_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "res.txt"
        write_mot_results(self.rows(3), path)
        before = path.read_bytes()
        monkeypatch.setattr(
            frame_io, "open",
            lambda *args, **kwargs: _DiskFullAfter(builtins.open(*args, **kwargs), 500),
            raising=False,
        )
        with pytest.raises(OSError, match="No space"):
            write_mot_results(self.rows(200), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["res.txt"]

    def test_rewrite_replaces_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "res.txt"
        write_mot_results(self.rows(200), path)
        write_mot_results(self.rows(1), str(path))
        assert path.read_text() == (
            "1,1,1.00,1.00,4.00,8.00,0.500000,-1,-1,-1\n"
            "1,2,1.00,2.00,4.00,8.00,0.500000,-1,-1,-1\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["res.txt"]
