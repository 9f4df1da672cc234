import builtins
import errno
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from omctrack import association, frame_io, recheck
from omctrack.association import track_sequence
from omctrack.detection import Box, Boxes
from omctrack.numerics import FrameValueError
from omctrack.frame_io import (
    ContainerFormatError,
    FrameContainer,
    MotBox,
    MotParseError,
    iter_container,
    read_mot_boxes,
    read_omcf,
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
        (back,) = list(iter_container(path))
        assert back.frame_index == 1
        for name, arr in frame.tensors().items():
            assert np.array_equal(back.tensors()[name], arr), name

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [random_frame(rng, i + 1) for i in range(3)]
        p1, p2 = tmp_path / "a.omcf", tmp_path / "b.omcf"
        write_container(frames, p1)
        write_container(list(iter_container(p1)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.omcf"
        assert write_container([], path) == 0
        assert list(iter_container(path)) == []

    def test_zero_size_tensor_round_trips(self, tmp_path):
        path = tmp_path / "zero.omcf"
        empty = np.zeros((0, 3), dtype=np.float32)
        ones = np.ones((2, 2), dtype=np.float32)
        assert write_omcf(path, [{"empty": empty, "ones": ones}]) == 1
        (back,) = read_omcf(path)
        assert back["empty"].shape == (0, 3) and back["empty"].dtype == np.float32
        assert np.array_equal(back["ones"], ones)

    def test_heterogeneous_sizes_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = [random_frame(rng, 1, h=4), random_frame(rng, 2, h=4),
                  random_frame(rng, 3, h=6)]
        with pytest.raises(ValueError, match="homogeneous"):
            write_container(frames, tmp_path / "bad.omcf")

    def test_channel_count_change_rejected_before_frame_2_is_written(self, tmp_path,
                                                                      monkeypatch):
        # The reader's rule: every tensor keeps frame 1's shape, not just H x W.
        rng = np.random.default_rng(9)
        frames = [random_frame(rng, 1, embed_dim=16), random_frame(rng, 2, embed_dim=12)]
        written = []
        tensors = FrameContainer.tensors
        monkeypatch.setattr(FrameContainer, "tensors",
                            lambda self: written.append(self.frame_index) or tensors(self))
        with pytest.raises(ContainerFormatError,
                           match=r"frame 2 tensor 'embed' has shape \(4, 4, 12\), "
                                 r"expected \(4, 4, 16\)"):
            write_container(frames, tmp_path / "bad.omcf")
        assert written == [1]
        assert list(tmp_path.iterdir()) == []

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
            list(iter_container(path))

    def test_truncated_payload_reports_offset(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "x.omcf"
        write_container([random_frame(rng, 1)], path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(ContainerFormatError) as err:
            list(iter_container(path))
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
            list(iter_container(path))
        assert err.value.offset == start

    def test_oversized_dims_are_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "x.omcf"
        header = struct.pack("<4sIII", b"OMCF", 1, 1, 1)
        tensor = struct.pack("<I4sI3IB", 4, b"prob", 3, 100_000, 100_000, 512, 0)
        path.write_bytes(header + tensor + bytes(64))
        with pytest.raises(ContainerFormatError, match="payload") as err:
            list(iter_container(path))
        assert err.value.offset == len(header) + len(tensor)

    @pytest.mark.parametrize("reader", [lambda p: list(iter_container(p)), read_omcf])
    def test_huge_ndim_is_truncation_not_allocation(self, tmp_path, reader, traced_peak_bytes):
        rng = np.random.default_rng(6)
        path = tmp_path / "x.omcf"
        write_container([random_frame(rng, 1)], path)
        data = bytearray(path.read_bytes())
        # magic(4) version(4) count(4) tcount(4) name_len(4) name(4) -> ndim at 24
        data[24:28] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))

        def read():
            with pytest.raises(ContainerFormatError, match="while reading dims") as err:
                reader(path)
            assert err.value.offset == 28

        assert traced_peak_bytes(read) < 64 * 1024

    @pytest.mark.parametrize("reader", [lambda p: list(iter_container(p)), read_omcf])
    def test_name_not_utf8_reports_its_offset(self, tmp_path, reader):
        rng = np.random.default_rng(6)
        path = tmp_path / "x.omcf"
        write_container([random_frame(rng, 1)], path)
        data = bytearray(path.read_bytes())
        assert data[20:24] == b"prob"
        data[21] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="tensor name is not UTF-8") as err:
            reader(path)
        assert err.value.offset == 20

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
            list(iter_container(path))

    def test_channel_count_change_names_the_frame(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = [random_frame(rng, 1, embed_dim=16), random_frame(rng, 2, embed_dim=12)]
        path = tmp_path / "x.omcf"
        write_omcf(path, [f.tensors() for f in frames])
        with pytest.raises(ContainerFormatError, match="frame 2 tensor 'embed'"):
            list(iter_container(path))

    def test_prob_out_of_range_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        frame = random_frame(rng, 1)
        frame.prob[0, 0, 0] = 1.5
        with pytest.raises(ValueError, match="prob"):
            write_container([frame], tmp_path / "x.omcf")


class TestFormatRefusals:
    """`_check_tensor_format`'s, `validate`'s and `write_omcf`'s refusals."""

    # (tensor, the bad array made from its good one, the refusal)
    BAD_TENSORS = {
        "rank": ("prob", lambda a: a[..., 0], "tensor 'prob' must be a 3-d ndarray"),
        "prob channels": ("prob", lambda a: np.concatenate([a, a], axis=2),
                          "prob must have 1 channel, got 2"),
        "boxes channels": ("boxes", lambda a: a[..., :3], "boxes must have 4 channels, got 3"),
        # The one grid size that decode_boxes and refine trust.
        "boxes grid": ("boxes", lambda a: a[:, :3],
                       "tensor spatial sizes differ: {'prob': (4, 4, 1), 'boxes': (4, 3, 4), "
                       "'embed': (4, 4, 16), 'feat': (4, 4, 8)}"),
        "feat grid": ("feat", lambda a: a[:3],
                      "tensor spatial sizes differ: {'prob': (4, 4, 1), 'boxes': (4, 4, 4), "
                      "'embed': (4, 4, 16), 'feat': (3, 4, 8)}"),
        "dtype": ("embed", lambda a: a.astype(np.float64),
                  "tensor 'embed' must be float32, got float64"),
    }

    def bad_frame(self, index, case):
        frame = random_frame(np.random.default_rng(32), index)
        name, make, message = self.BAD_TENSORS[case]
        setattr(frame, name, make(getattr(frame, name)))
        return frame, message

    # A container's only dtype code is float32's.
    @pytest.mark.parametrize("case", ["rank", "prob channels", "boxes channels", "boxes grid",
                                      "feat grid"])
    def test_container_frame_names_the_frame(self, tmp_path, case):
        good = random_frame(np.random.default_rng(33), 1)
        bad, message = self.bad_frame(2, case)
        path = tmp_path / "x.omcf"
        write_omcf(path, [good.tensors(), bad.tensors()])
        reader = frame_io.iter_container(path)
        next(reader)
        with pytest.raises(ContainerFormatError) as err:
            next(reader)
        assert str(err.value) == f"frame 2: {message}"

    @pytest.mark.parametrize("case", sorted(BAD_TENSORS))
    def test_in_memory_frame(self, tmp_path, case):
        frame, message = self.bad_frame(1, case)
        with pytest.raises(ValueError) as err:
            write_container([frame], tmp_path / "x.omcf")
        assert str(err.value) == message
        assert list(tmp_path.iterdir()) == []
        tracker = association.Tracker()
        with pytest.raises(ValueError) as err:
            tracker.step(frame)
        assert str(err.value) == message
        assert len(tracker.live) == 0 and tracker.next_id == 1

    def test_frame_index_below_one(self, tmp_path):
        frame = random_frame(np.random.default_rng(34), 0)
        with pytest.raises(ValueError, match="frame_index must be >= 1, got 0"):
            frame.validate(())
        with pytest.raises(ValueError, match="frame_index must be >= 1, got 0"):
            write_container([frame], tmp_path / "x.omcf")
        assert list(tmp_path.iterdir()) == []

    def test_write_omcf_refuses_other_dtypes(self, tmp_path):
        path = tmp_path / "x.omcf"
        with pytest.raises(ValueError, match="tensor 'w' must be float32, got float64"):
            write_omcf(path, [{"w": np.zeros((2, 2))}])
        assert list(tmp_path.iterdir()) == []


class TestRepeatedName:
    """A frame names each tensor once; a repeated name raises at its offset."""

    @staticmethod
    def write_renamed(path, tensors, stand_in, name):
        """Write one frame of tensors, then rename stand_in to name, which the
        frame already holds; return the byte offset of the renamed name."""
        assert len(stand_in) == len(name) and name in tensors
        write_omcf(path, [tensors])
        data = bytearray(path.read_bytes())
        at = data.index(stand_in.encode())
        data[at:at + len(name)] = name.encode()
        path.write_bytes(bytes(data))
        return at

    @pytest.mark.parametrize("reader", [lambda p: list(iter_container(p)), read_omcf])
    def test_container_frame(self, tmp_path, reader):
        tensors = random_frame(np.random.default_rng(35), 1).tensors()
        tensors["xrob"] = np.zeros_like(tensors["prob"])
        path = tmp_path / "x.omcf"
        offset = self.write_renamed(path, tensors, "xrob", "prob")
        with pytest.raises(ContainerFormatError) as err:
            reader(path)
        assert str(err.value) == f"frame names tensor 'prob' twice (byte offset {offset})"
        assert err.value.offset == offset

    def test_weight_file(self, tmp_path):
        from test_recheck import tiny_weights

        w = tiny_weights(np.random.default_rng(36))
        tensors = {name: getattr(w, name.replace(".", "_")) for name in recheck._WEIGHT_NAMES}
        tensors["xonv1.w"] = np.zeros_like(w.conv1_w)
        path = tmp_path / "weights.omcf"
        offset = self.write_renamed(path, tensors, "xonv1.w", "conv1.w")
        with pytest.raises(ContainerFormatError) as err:
            recheck.RefineWeights.load(path)
        assert err.value.offset == offset
        assert "'conv1.w' twice" in str(err.value)


class TestBytesAfterLastFrame:
    """Bytes after the last frame the header counts are a format error,
    raised once that frame is yielded."""

    @pytest.mark.parametrize("fault", ["appended bytes", "lowered count"])
    def test_container(self, tmp_path, fault):
        rng = np.random.default_rng(37)
        written = [random_frame(rng, i + 1) for i in range(3)]
        path = tmp_path / "x.omcf"
        write_container(written, path)
        data = bytearray(path.read_bytes())
        if fault == "appended bytes":
            end, count = len(data), 3
            data += bytes(7)
        else:
            end, count = data.index(written[1].feat.tobytes()) + written[1].feat.nbytes, 2
            data[8:12] = struct.pack("<I", count)
        path.write_bytes(bytes(data))
        message = (f"bytes after the last frame the header counts ({count}): "
                   f"{len(data) - end} (byte offset {end})")
        reader = iter_container(path)
        for want in written[:count]:
            assert np.array_equal(next(reader).prob, want.prob)
        with pytest.raises(ContainerFormatError) as err:
            next(reader)
        assert str(err.value) == message and err.value.offset == end
        with pytest.raises(ContainerFormatError) as err:
            read_omcf(path)
        assert str(err.value) == message and err.value.offset == end

    def test_weight_file(self, tmp_path):
        from test_recheck import tiny_weights

        w = tiny_weights(np.random.default_rng(38))
        path = tmp_path / "weights.omcf"
        write_omcf(path, [{name: getattr(w, name.replace(".", "_"))
                           for name in recheck._WEIGHT_NAMES}])
        end = path.stat().st_size
        with open(path, "ab") as f:
            f.write(b"\n")
        with pytest.raises(ContainerFormatError) as err:
            recheck.RefineWeights.load(path)
        assert str(err.value) == (f"bytes after the last frame the header counts (1): 1 "
                                  f"(byte offset {end})")


class TestCorruptBytes:
    """Every single-byte corruption of a container reads, or raises
    ContainerFormatError, and allocates about what a clean read does."""

    @pytest.mark.parametrize("reader", [lambda p: list(iter_container(p)), read_omcf])
    def test_every_byte_at_three_values(self, tmp_path, reader):
        rng = np.random.default_rng(30)
        path = tmp_path / "x.omcf"
        write_container([random_frame(rng, i, h=3, w=2, embed_dim=4, feat_dim=4)
                         for i in (1, 2)], path)
        clean = path.read_bytes()

        def outcome():
            """reader's outcome on path and the peak bytes it allocated."""
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                reader(path)
                result = "read"
            except ContainerFormatError:
                result = "rejected"
            except Exception as exc:  # any other exception is the failure
                result = f"{type(exc).__name__}: {exc}"
            return result, tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            # A corrupt ndim can have the walk parse up to a file's worth of
            # dims, each 4 bytes a 36-byte Python int in a tuple, so the
            # bound is a small multiple of the file's size beyond a clean
            # read's peak.
            bound = outcome()[1] + 8 * len(clean)
            counts = {"read": 0, "rejected": 0}
            faults = []
            fd = os.open(path, os.O_WRONLY)
            try:
                for offset, byte in enumerate(clean):
                    for value in (0x00, 0x7F, 0xFF):
                        if value == byte:
                            continue
                        os.pwrite(fd, bytes([value]), offset)
                        result, peak = outcome()
                        if result in counts and peak <= bound:
                            counts[result] += 1
                        elif len(faults) < 5:
                            faults.append((offset, value, result, peak))
                    os.pwrite(fd, bytes([byte]), offset)
            finally:
                os.close(fd)
        finally:
            tracemalloc.stop()
        assert faults == []
        assert counts["read"] > 0 and counts["rejected"] > 0


class TestContainerArrays:
    def test_arrays_are_writeable_and_independent(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = [random_frame(rng, i + 1) for i in range(2)]
        path = tmp_path / "x.omcf"
        write_container(frames, path)
        arrays = [a for fc in iter_container(path) for a in fc.tensors().values()]
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
        (back,) = list(iter_container(path))
        with pytest.raises(ValueError, match="non-finite"):
            back.validate()


class TestValidateValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["prob", "boxes", "embed", "feat"])
    def test_non_finite_last_element_raises(self, name, bad):
        frame = random_frame(np.random.default_rng(13), 1)
        frame.tensors()[name][-1, -1, -1] = bad
        with pytest.raises(ValueError, match=f"tensor '{name}' contains non-finite"):
            frame.validate()

    @pytest.mark.parametrize("name", ["boxes", "embed", "feat"])
    def test_finite_values_whose_squares_overflow_validate(self, name):
        # 1e20 squared overflows float32; every value is still finite.
        frame = random_frame(np.random.default_rng(14), 1)
        frame.tensors()[name][...] = 1e20
        frame.validate()

    def test_non_contiguous_tensor_still_checked(self):
        frame = random_frame(np.random.default_rng(15), 1)
        embed = np.zeros((4, 4, 32), dtype=np.float32)
        embed[-1, -1, -2] = np.nan
        frame.embed = embed[:, :, ::2]
        assert not frame.embed.flags.c_contiguous
        with pytest.raises(ValueError, match="tensor 'embed' contains non-finite"):
            frame.validate()


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

    @pytest.mark.parametrize("row, fault", [
        ("1.5,-1,10,20,30,40,0.9", "must be integers"),
        ("2,2.7,10,20,30,40,0.9", "must be integers"),
        ("-3,2.7,10,20,30,40,0.9", "must be integers"),
        ("0,-1,10,20,30,40,0.9", "must be >= 1"),
        ("-3,2,10,20,30,40,0.9", "must be >= 1"),
    ])
    def test_fractional_or_non_positive_frame_rejected(self, tmp_path, row, fault):
        path = tmp_path / "det.txt"
        path.write_text(f"1,-1,10,20,30,40,0.9\n{row}\n")
        with pytest.raises(MotParseError, match=f"line 2: .*{fault}"):
            read_mot_boxes(path)

    def test_short_row_rejected_and_blank_line_skipped(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,10,20,30,40,0.9\n\n   \n2,-1,10,20,30,40\n")
        with pytest.raises(MotParseError) as err:
            read_mot_boxes(path)
        assert str(err.value) == "line 4: expected at least 7 comma-separated fields, got 6"
        assert err.value.line == 4
        path.write_text("1,-1,10,20,30,40,0.9\n\n2,-1,10,20,30,40,0.9\n")
        assert [b.frame for b in read_mot_boxes(path)] == [1, 2]

    def test_integral_float_frame_and_id_accepted(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("3.0,7.0,1,2,3,4,0.25\n")
        (box,) = read_mot_boxes(path)
        assert (box.frame, box.id) == (3, 7)
        assert type(box.frame) is int and type(box.id) is int

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


class TestAtomicContainer:
    """A container write that fails partway leaves any earlier file as it was."""

    def frames(self, count, bad_at=None):
        rng = np.random.default_rng(21)
        for i in range(1, count + 1):
            frame = random_frame(rng, i)
            if i == bad_at:
                frame.embed[0, 0, 0] = np.nan
            yield frame

    def test_raising_frame_stream_keeps_previous_file(self, tmp_path):
        path = tmp_path / "world.omcf"
        write_container(self.frames(3), path)
        before = path.read_bytes()

        def failing():
            frames = self.frames(4)
            yield next(frames)
            raise RuntimeError("generator failed on frame 2")

        with pytest.raises(RuntimeError, match="frame 2"):
            write_container(failing(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["world.omcf"]

    def test_invalid_frame_keeps_previous_file(self, tmp_path):
        path = tmp_path / "world.omcf"
        write_container(self.frames(3), path)
        before = path.read_bytes()
        with pytest.raises(FrameValueError, match="embed"):
            write_container(self.frames(4, bad_at=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["world.omcf"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(FrameValueError):
            write_container(self.frames(2, bad_at=2), tmp_path / "world.omcf")
        assert list(tmp_path.iterdir()) == []


class TestLazyFeat:
    """iter_container reads no payload; feat is read only when frame.feat is first used."""

    def write(self, tmp_path, frames=3):
        rng = np.random.default_rng(16)
        written = [random_frame(rng, i + 1, h=6, w=5, feat_dim=24) for i in range(frames)]
        path = tmp_path / "x.omcf"
        write_container(written, path)
        return written, path

    def test_iteration_and_bypass_tracking_read_no_feat_byte(self, tmp_path, monkeypatch,
                                                              read_calls):
        written, path = self.write(tmp_path)
        frames = list(frame_io.iter_container(path))
        for fc in frames:
            fc.validate(())
            repr(fc)
        data = path.read_bytes()
        spans = {name: [(data.index(getattr(f, name).tobytes()), getattr(f, name).nbytes)
                        for f in written] for name in frame_io.REQUIRED_TENSORS}

        def reads_in(name, calls):
            """(offset, bytes) of each call that reads a byte of a name payload."""
            return [(offset, n) for _, offset, n in calls for start, size in spans[name]
                    if offset < start + size and start < offset + n]

        for name in frame_io.REQUIRED_TENSORS:
            assert reads_in(name, read_calls) == []
        # Four ragged blocks of 7 or 8 cells, so the search reads embed in parts.
        monkeypatch.setattr(recheck, "SEARCH_BLOCK_VALUES", 130)
        by_kernel = {"cross_correlate": [], "extract_embeddings": []}
        for name, calls in by_kernel.items():
            def recorded(boxes_or_set, embed, kernel=getattr(association, name), calls=calls):
                before = len(read_calls)
                out = kernel(boxes_or_set, embed)
                calls.append((embed.offset, len(boxes_or_set), read_calls[before:]))
                return out
            monkeypatch.setattr(association, name, recorded)
        before = len(read_calls)
        track_sequence(frames)

        tracking = read_calls[before:]
        # Each prob and boxes payload is read once and whole, and no feat byte.
        for name in ("prob", "boxes"):
            assert sorted(reads_in(name, tracking)) == sorted(spans[name])
        assert reads_in("feat", tracking) == []
        # Every other read is the kernels' reads of embed.
        kernel_reads = [r for calls in by_kernel.values() for *_, rs in calls for r in rs]
        whole = [("preadv", *span) for name in ("prob", "boxes") for span in spans[name]]
        assert sorted(kernel_reads + whole) == sorted(tracking)
        nbytes = written[0].embed.nbytes
        assert by_kernel["cross_correlate"]
        for start, _, search in by_kernel["cross_correlate"]:
            # Each embed byte is read at most once, and none outside embed.
            spans = sorted((offset, offset + n) for _, offset, n in search)
            assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
            assert start <= spans[0][0] and spans[-1][1] <= start + nbytes
            assert sum(b - a for a, b in spans) == nbytes and len(spans) >= 4
        cell_bytes = 4 * written[0].embed.shape[2]
        for start, boxes, readout in by_kernel["extract_embeddings"]:
            assert sum(n for *_, n in readout) == cell_bytes * boxes
            assert all(start <= offset < start + nbytes for _, offset, _ in readout)

    def test_feat_reads_the_written_values_once(self, tmp_path, read_calls):
        written, path = self.write(tmp_path)
        frames = list(iter_container(path))
        read_calls.clear()
        for fc, want in zip(frames, written):
            assert np.array_equal(fc.feat, want.feat)
            assert fc.feat is fc.feat
        assert sum(n for *_, n in read_calls) == sum(f.feat.nbytes for f in written)

    def test_assigned_feat_replaces_the_unread_payload(self, tmp_path, read_calls):
        _, path = self.write(tmp_path, frames=1)
        (fc,) = list(iter_container(path))
        feat = fc.held()["feat"]
        read_calls.clear()
        fc.feat = np.zeros((6, 5, 24), dtype=np.float32)
        assert not fc.feat.any() and not fc.tensors()["feat"].any()
        # tensors() reads the unread tensors; nothing reads the feat payload.
        feat_bytes = range(feat.offset, feat.offset + 4 * 6 * 5 * 24)
        assert not any(offset in feat_bytes for _, offset, _ in read_calls)

    def test_file_cut_after_iteration_fails_on_access(self, tmp_path):
        written, path = self.write(tmp_path, frames=2)
        frames = list(iter_container(path))
        data = path.read_bytes()
        start = data.index(written[1].feat.tobytes())
        path.write_bytes(data[: start + 10])
        assert np.array_equal(frames[0].feat, written[0].feat)
        with pytest.raises(ContainerFormatError, match="tensor 'feat' payload") as err:
            frames[1].feat
        assert err.value.offset == start

    def test_malformed_feat_header_fails_before_any_payload_read(self, tmp_path, read_calls):
        rng = np.random.default_rng(17)
        frame = random_frame(rng, 1)
        tensors = {**frame.tensors(), "feat": frame.feat[:3]}
        path = tmp_path / "x.omcf"
        write_omcf(path, [tensors])
        with pytest.raises(ContainerFormatError, match="frame 1: tensor spatial sizes differ"):
            list(iter_container(path))
        # Headers are read by pread, payloads by preadv.
        assert [call for call, *_ in read_calls] == ["pread"] * len(read_calls)


class TestStreamedEmbed:
    """iter_container leaves embed in the file; the kernels read it there."""

    def write(self, tmp_path, frames=2):
        rng = np.random.default_rng(18)
        written = [random_frame(rng, i + 1, h=6, w=5, embed_dim=24) for i in range(frames)]
        path = tmp_path / "x.omcf"
        write_container(written, path)
        return written, path

    @staticmethod
    def search(embed):
        templates = np.eye(3, 24, dtype=np.float32)
        return recheck.cross_correlate(templates, embed)

    @staticmethod
    def readout(embed):
        boxes = Boxes.of([Box(cx=4.5, cy=5.5, w=1.0, h=1.0, score=1.0)])
        return association.extract_embeddings(boxes, embed)

    @pytest.mark.parametrize("reader", ["whole", "search", "readout"])
    def test_file_cut_after_iteration_fails_on_read(self, tmp_path, reader):
        written, path = self.write(tmp_path)
        frames = list(iter_container(path))
        data = path.read_bytes()
        start = data.index(written[1].embed.tobytes())
        path.write_bytes(data[: start + 10])
        read = {"whole": lambda fc: fc.embed,
                "search": lambda fc: self.search(fc.held()["embed"]),
                "readout": lambda fc: self.readout(fc.held()["embed"])}[reader]
        read(frames[0])
        with pytest.raises(ContainerFormatError, match="tensor 'embed' payload") as err:
            read(frames[1])
        assert err.value.offset == start

    def test_bypass_tracking_leaves_embed_unread(self, tmp_path):
        written, path = self.write(tmp_path, frames=4)
        frames = list(iter_container(path))
        rows, _ = track_sequence(frames)
        assert rows
        assert all(isinstance(fc.held()["embed"], frame_io.Payload) for fc in frames)
        for fc, want in zip(frames, written):
            assert np.array_equal(fc.embed, want.embed)


class TestLaidOutFrames:
    """Frames after the first are read at frame 1's layout, or walked."""

    def write(self, tmp_path, frames=4, tensors=None):
        rng = np.random.default_rng(19)
        written = [random_frame(rng, i + 1, h=5, w=3) for i in range(frames)]
        path = tmp_path / "x.omcf"
        write_omcf(path, tensors or [f.tensors() for f in written])
        return written, path

    def test_later_frame_reads_only_frame_1s_header_runs(self, tmp_path, read_calls):
        written, path = self.write(tmp_path)
        data = path.read_bytes()
        frames = frame_io.iter_container(path)

        def runs(start, fc):
            """(offset, length) of each header run of the frame at start, and its end."""
            out = []
            for p in fc.held().values():  # in file order
                out.append((start, p.offset - start))
                start = p.offset + 4 * math.prod(p.shape)
            return out, start

        first, start = runs(len(frame_io.MAGIC) + 8, next(frames))
        for want in written[1:]:
            read_calls.clear()
            fc = next(frames)
            later, start = runs(start, fc)
            assert read_calls == [("pread", offset, n) for offset, n in later]
            assert [data[o:o + n] for o, n in later] == [data[o:o + n] for o, n in first]
            for name in frame_io.REQUIRED_TENSORS:
                assert np.array_equal(getattr(fc, name), getattr(want, name))

    @staticmethod
    def patched_frame_2(path, old: bytes, new: bytes):
        """Replace the first occurrence of old after frame 1's feat payload."""
        data = bytearray(path.read_bytes())
        at = data.index(old, data.index(b"feat") + 4)
        data[at:at + len(old)] = new
        path.write_bytes(bytes(data))
        return at

    @pytest.mark.parametrize("change", ["shape", "channels", "dtype code", "name"])
    def test_differing_header_raises_the_walk_error(self, tmp_path, change):
        rng = np.random.default_rng(20)
        frames = [random_frame(rng, 1, h=5, w=3), random_frame(rng, 2, h=5, w=3)]
        tensors = [f.tensors() for f in frames]
        path = tmp_path / "x.omcf"
        offset = None
        if change == "shape":
            tensors[1] = random_frame(rng, 2, h=6, w=3).tensors()
            message = ("sequence must be homogeneous: frame 2 tensor 'prob' has "
                       "shape (6, 3, 1), expected (5, 3, 1)")
        elif change == "channels":
            tensors[1] = random_frame(rng, 2, h=5, w=3, embed_dim=12).tensors()
            message = ("sequence must be homogeneous: frame 2 tensor 'embed' has "
                       "shape (5, 3, 12), expected (5, 3, 16)")
        write_omcf(path, tensors)
        if change == "dtype code":
            # boxes' header: name, ndim 3, dims 5 x 3 x 4, dtype code.
            header = b"boxes" + struct.pack("<4I", 3, 5, 3, 4)
            offset = self.patched_frame_2(path, header + b"\0", header + b"\x09") + len(header)
            message = f"unknown dtype code 9 (byte offset {offset})"
        elif change == "name":
            self.patched_frame_2(path, b"feat", b"fear")
            message = "frame 2: container frame missing tensors: ['feat']"
        reader = frame_io.iter_container(path)
        assert np.array_equal(next(reader).prob, frames[0].prob)
        with pytest.raises(ContainerFormatError) as err:
            next(reader)
        assert str(err.value) == message
        assert err.value.offset == offset

    def test_frame_in_another_tensor_order_is_walked(self, tmp_path):
        rng = np.random.default_rng(21)
        frames = [random_frame(rng, i + 1, h=5, w=3) for i in range(3)]
        tensors = [f.tensors() for f in frames]
        tensors[1] = {name: tensors[1][name] for name in ("feat", "boxes", "embed", "prob")}
        path = tmp_path / "x.omcf"
        write_omcf(path, tensors)
        for fc, want in zip(list(iter_container(path)), frames, strict=True):
            for name in frame_io.REQUIRED_TENSORS:
                assert np.array_equal(getattr(fc, name), getattr(want, name))

    def test_prob_and_boxes_after_embed_and_feat_read_at_the_layout(self, tmp_path,
                                                                    monkeypatch):
        # prob and boxes last: the layout's last span runs to the frame's end.
        rng = np.random.default_rng(22)
        frames = [random_frame(rng, i + 1, h=5, w=3) for i in range(3)]
        order = ("embed", "feat", "prob", "boxes")
        path = tmp_path / "x.omcf"
        write_omcf(path, [{name: f.tensors()[name] for name in order} for f in frames])
        walks = []
        walk = frame_io._walk_frame
        monkeypatch.setattr(frame_io, "_walk_frame",
                            lambda *args: walks.append(1) or walk(*args))
        for fc, want in zip(list(iter_container(path)), frames, strict=True):
            for name in frame_io.REQUIRED_TENSORS:
                assert np.array_equal(getattr(fc, name), getattr(want, name))
        assert len(walks) == 1

    @pytest.mark.parametrize("where", ["tensor count", "prob", "embed", "feat header", "feat"])
    def test_cut_inside_frame_k_yields_the_frames_before(self, tmp_path, where):
        written, path = self.write(tmp_path)
        data = path.read_bytes()
        third = written[2]
        start = data.index(written[1].feat.tobytes()) + written[1].feat.nbytes
        embed_end = data.index(third.embed.tobytes()) + third.embed.nbytes
        cut, message, offset = {
            "tensor count": (start + 2, "tensor count", start),
            "prob": (data.index(third.prob.tobytes()) + 8, "tensor 'prob' payload",
                     data.index(third.prob.tobytes())),
            "embed": (embed_end - 4, "tensor 'embed' payload",
                      data.index(third.embed.tobytes())),
            # name length, "feat", then 2 of ndim's 4 bytes.
            "feat header": (embed_end + 10, "ndim", embed_end + 8),
            "feat": (data.index(third.feat.tobytes()) + 4, "tensor 'feat' payload",
                     data.index(third.feat.tobytes())),
        }[where]
        path.write_bytes(data[:cut])
        reader = frame_io.iter_container(path)
        for want in written[:2]:
            assert np.array_equal(next(reader).boxes, want.boxes)
        with pytest.raises(ContainerFormatError) as err:
            next(reader)
        assert str(err.value) == f"truncated file while reading {message} (byte offset {offset})"
        assert err.value.offset == offset

    # Grid side and channels of embed and feat: frames of 1.5 KB, 3.5 KB
    # and 213 KB, so frame 2's headers lie within, and past, the first
    # block a buffered reader would have read.
    @pytest.mark.parametrize("side, channels", [(4, 8), (4, 24), (20, 64)])
    def test_file_cut_after_frame_1_is_yielded_raises_on_next(self, tmp_path, side, channels):
        # The reader sized the file when it opened it, so frame 2's read at
        # frame 1's layout comes up short, and the walk then names the cut:
        # it reads the file as it is now, not bytes read before the cut.
        rng = np.random.default_rng(23)
        written = [random_frame(rng, i + 1, h=side, w=side, embed_dim=channels,
                                feat_dim=channels) for i in range(3)]
        path = tmp_path / "x.omcf"
        write_container(written, path)
        data = path.read_bytes()
        start = data.index(written[0].feat.tobytes()) + written[0].feat.nbytes
        reader = frame_io.iter_container(path)
        assert np.array_equal(next(reader).boxes, written[0].boxes)
        with open(path, "r+b") as f:
            f.truncate(start + 4)  # frame 2's tensor count only
        with pytest.raises(ContainerFormatError) as err:
            next(reader)
        assert str(err.value) == (f"truncated file while reading name length "
                                  f"(byte offset {start + 4})")
        assert err.value.offset == start + 4


class TestOneGridRead:
    """On a one-block grid the search reads embed whole and the readout its cells."""

    def test_search_reads_the_grid_once_and_readout_reads_centre_cells(
            self, tmp_path, monkeypatch, read_calls):
        from omctrack.synth import ScenarioConfig, generate

        frames, _, _ = generate(ScenarioConfig(seed=0, num_targets=2, height=8, width=8,
                                               frames=5))
        path = tmp_path / "x.omcf"
        write_container(frames, path)
        fused = []
        extract = association.extract_embeddings

        def recording(boxes, embed):
            fused.append(len(boxes))
            return extract(boxes, embed)

        monkeypatch.setattr(association, "extract_embeddings", recording)
        tracker = association.Tracker()
        propagated = 0
        for fc in frame_io.iter_container(path):
            embed = fc.held()["embed"]
            h, w, c = embed.shape
            assert len(list(recheck._search_blocks(h * w, c))) == 1
            nbytes, cell = 4 * h * w * c, 4 * c
            live = len(tracker.live) > 0
            before = len(read_calls)
            assert tracker.step(fc)
            in_embed = [(offset, n) for _, offset, n in read_calls[before:]
                        if embed.offset <= offset < embed.offset + nbytes]
            if live:
                # The search reads the whole one-block grid in one read.
                propagated += 1
                assert in_embed[0] == (embed.offset, nbytes)
                in_embed = in_embed[1:]
            # The readout reads one centre cell per fused box, and a step
            # with no tracklets reads nothing else.
            assert [n for _, n in in_embed] == [cell] * fused[-1]
            assert fused[-1] > 0
            assert isinstance(fc.held()["embed"], frame_io.Payload)
        assert propagated == 4
