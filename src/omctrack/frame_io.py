"""Frame container serialization (OMCF binary) and MOT Challenge text I/O.

OMCF layout, all integers little-endian:

    magic "OMCF" (4 bytes)
    version      u32 = 1
    frame_count  u32
    per frame:
        tensor_count u32
        per tensor:
            name_len u32
            name     UTF-8 bytes
            ndim     u32
            dims     u32 x ndim
            dtype    u8 (0 = float32)
            payload  raw little-endian values

A frame names each tensor once; a reader refuses a repeated name.
The format carries no explicit frame numbers, so container sequences must be
numbered consecutively from 1; readers re-derive the index from position.
Readers are reentrant; a writer needs exclusive access to its output path.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import uuid
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .numerics import FrameValueError, check_finite

__all__ = [
    "ContainerFormatError",
    "MotParseError",
    "FrameContainer",
    "Payload",
    "MotBox",
    "write_omcf",
    "read_omcf",
    "write_container",
    "iter_container",
    "mot_box_fault",
    "read_mot_boxes",
    "write_mot_results",
    "mot_results_writer",
]

MAGIC = b"OMCF"
VERSION = 1
DTYPE_F32 = 0

REQUIRED_TENSORS = ("prob", "boxes", "embed", "feat")


class ContainerFormatError(ValueError):
    """Raised on malformed OMCF data; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class MotParseError(ValueError):
    """Raised on malformed MOT text rows; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Frame container
# ---------------------------------------------------------------------------


class _ReadOnFirstAccess:
    """A FrameContainer tensor that the frame may hold as an unread Payload.

    The first read of the attribute reads the payload and keeps the array;
    assigning replaces whatever the frame held.
    """

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, frame, owner=None):
        if frame is None:
            return self
        value = getattr(frame, self.slot)
        if isinstance(value, Payload):
            value = value.read()
            setattr(frame, self.slot, value)
        return value

    def __set__(self, frame, value):
        setattr(frame, self.slot, value)


class FrameContainer:
    """Per-frame detector outputs on the feature grid.

    prob   (H, W, 1)  foreground probability in [0, 1]
    boxes  (H, W, 4)  raw box regression values
    embed  (H, W, C)  identity-embedding map (512 channels in production)
    feat   (H, W, C)  visual-feature map (256 channels in production)

    A frame from iter_container holds `embed` and `feat` unread, as their
    places in the file (`held`), and reads each whole on first access to
    the attribute. The tracker never does, and the frame keeps holding them
    unread: the embedding search reads `embed` from the file block by block
    and the readout cell by cell. Only learned refinement reads `feat`.
    Assigning `embed` or `feat` replaces it like any other attribute.

    `validate` is the one check of prob's and boxes' values: the tracker
    calls it before it decodes a frame, and `decode_boxes` checks only the
    sizes it decodes from boxes.
    """

    embed = _ReadOnFirstAccess()
    feat = _ReadOnFirstAccess()

    def __init__(self, frame_index: int, prob: np.ndarray, boxes: np.ndarray,
                 embed: np.ndarray | Payload, feat: np.ndarray | Payload):
        self.frame_index = frame_index
        self.prob = prob
        self.boxes = boxes
        self.embed = embed
        self.feat = feat

    def __repr__(self) -> str:
        shapes = ", ".join(f"{name}={arr.shape}" for name, arr in self.held().items())
        return f"FrameContainer(frame_index={self.frame_index}, {shapes})"

    def held(self) -> dict[str, np.ndarray | Payload]:
        """The four tensors by name as the frame holds them; reads nothing.

        `embed` and `feat` may be a Payload not yet read.
        """
        return {"prob": self.prob, "boxes": self.boxes, "embed": self._embed,
                "feat": self._feat}

    def tensors(self) -> dict[str, np.ndarray]:
        """The four tensors by name as arrays; reads any still unread."""
        return {name: getattr(self, name) for name in REQUIRED_TENSORS}

    def validate(self, names: Iterable[str] = REQUIRED_TENSORS) -> None:
        """Check the format, then the named tensors' values (all by default).

        The format is the index (>= 1) and each tensor's rank, dtype and
        shape, read without reading a value; `validate(())` checks only
        that. Each named tensor's values must be finite (`check_finite`),
        and prob's must lie within [0, 1]. A bad format raises ValueError,
        a bad value FrameValueError.
        """
        if self.frame_index < 1:
            raise ValueError(f"frame_index must be >= 1, got {self.frame_index}")
        _check_tensor_format(self.held())
        for name in names:
            check_finite(getattr(self, name), name)
        if "prob" in names and (self.prob.min() < 0.0 or self.prob.max() > 1.0):
            raise FrameValueError("prob values must lie in [0, 1]")


def _check_tensor_format(tensors: Mapping) -> None:
    """Check that the four tensors are 3-d float32 with one grid size.

    Reads only each tensor's ndim, dtype and shape, which an unread payload
    carries too.
    """
    missing = [n for n in REQUIRED_TENSORS if n not in tensors]
    if missing:
        raise ValueError(f"container frame missing tensors: {missing}")
    shapes = {}
    for name in REQUIRED_TENSORS:
        arr = tensors[name]
        if not isinstance(arr, (np.ndarray, Payload)) or arr.ndim != 3:
            raise ValueError(f"tensor {name!r} must be a 3-d ndarray")
        if arr.dtype != np.float32:
            raise ValueError(f"tensor {name!r} must be float32, got {arr.dtype}")
        shapes[name] = arr.shape
    hw = {s[:2] for s in shapes.values()}
    if len(hw) != 1:
        raise ValueError(f"tensor spatial sizes differ: {shapes}")
    if shapes["prob"][2] != 1:
        raise ValueError(f"prob must have 1 channel, got {shapes['prob'][2]}")
    if shapes["boxes"][2] != 4:
        raise ValueError(f"boxes must have 4 channels, got {shapes['boxes'][2]}")


# ---------------------------------------------------------------------------
# OMCF low-level tensor I/O
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _staged(*paths) -> Iterator[list[str]]:
    """New paths beside paths; once the block ends cleanly, each replaces its own.

    The block writes the new paths. On an exception every one of them is
    removed, so a failed write leaves every earlier file at paths intact.
    """
    paths = [os.fspath(p) for p in paths]
    # Not tempfile.mkstemp: its files are private (0600), while open(..., "x")
    # creates the file with the permissions a plain open would give path.
    tmps = [f"{path}.{uuid.uuid4().hex}.tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """Open a new file beside path; once the block ends cleanly, it replaces path.

    On an exception the new file is removed, so a failed write leaves any
    earlier file at path intact.
    """
    with _staged(path) as (tmp,), open(tmp, mode, **kwargs) as f:
        yield f


def _read_exact(f, n: int, what: str, size: int) -> bytes:
    """n bytes at f's position in a file of size bytes.

    A field longer than the bytes left raises before anything is read, so
    a corrupt length cannot ask for more memory than the file holds.
    """
    offset = f.tell()
    data = f.read(n) if n <= size - offset else b""
    if len(data) != n:
        raise ContainerFormatError(f"truncated file while reading {what}", offset)
    return data


class _OmcfFile:
    """An open OMCF file, closed once its header walk and every unread
    payload that refers to it are gone."""

    def __init__(self, path):
        self.f = open(path, "rb")
        weakref.finalize(self, self.f.close)


class Payload:
    """A float32 tensor's header and its place in an OMCF file, unread.

    Reads use `preadv`, which does not move the file position, so a
    payload can be read while the header walk goes on, or after it has
    ended. `read` reads the whole tensor; `read_cells` and `take_cells`
    read cells of an (H, W, C) tensor, taken in row-major order as the
    rows of an (H*W, C) matrix, without reading the rest.
    """

    dtype = np.dtype(np.float32)

    def __init__(self, source: _OmcfFile, name: str, shape: tuple[int, ...], offset: int):
        self.source = source
        self.name = name
        self.shape = shape
        self.offset = offset

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def read(self) -> np.ndarray:
        """Read the little-endian payload straight into a new array."""
        arr = np.empty(self.shape, dtype="<f4")
        self._read_into(_bytes_of(arr), 0)
        return arr

    def read_cells(self, start: int, out: np.ndarray) -> np.ndarray:
        """Read cells start .. start + len(out) into out, a (n, C) float32 array."""
        self._read_into(_bytes_of(out), start * out.shape[1] * 4)
        return out

    def take_cells(self, index: np.ndarray) -> np.ndarray:
        """The cells at the given row-major indices, as a new (n, C) array.

        Each cell is one `preadv` straight into its row of the array; only
        a short read goes on through `_read_into`, which raises on a file
        cut short.
        """
        out = np.empty((len(index), self.shape[-1]), dtype="<f4")
        buf, size = _bytes_of(out), 4 * out.shape[1]
        fd = self.source.f.fileno()
        for k, cell in enumerate(index.tolist()):
            row = buf[k * size:(k + 1) * size]
            if os.preadv(fd, [row], self.offset + cell * size) != size:
                self._read_into(row, cell * size)
        return out

    def _read_into(self, buf: memoryview, start: int) -> None:
        """Fill buf from the payload's bytes at start onward."""
        fd = self.source.f.fileno()
        done = 0
        while done < len(buf):
            n = os.preadv(fd, [buf[done:]], self.offset + start + done)
            if n == 0:
                raise ContainerFormatError(
                    f"truncated file while reading tensor {self.name!r} payload",
                    self.offset,
                )
            done += n


def _bytes_of(arr: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, writable in place."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def _read_preamble(f, size: int) -> int:
    """Check the magic and version at the start of f; return the frame count."""
    magic = _read_exact(f, 4, "magic", size)
    if magic != MAGIC:
        raise ContainerFormatError(f"bad magic {magic!r}", 0)
    version, frame_count = struct.unpack("<II", _read_exact(f, 8, "header", size))
    if version != VERSION:
        raise ContainerFormatError(f"unsupported version {version}", 4)
    return frame_count


def _walk_frame(source: _OmcfFile, size: int) -> list[Payload]:
    """Walk the headers of the frame at the file position, reading no payload.

    Returns its tensors in file order and leaves the file at the frame's
    end. Each header field and payload is checked against the file's size
    before the walk reads or seeks past it, so a corrupt header cannot ask
    for more than the file holds. A frame names each tensor once: a
    repeated name raises at its offset.
    """
    f = source.f
    (tensor_count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count", size))
    payloads = []
    for _ in range(tensor_count):
        (name_len,) = struct.unpack("<I", _read_exact(f, 4, "name length", size))
        name_offset = f.tell()
        try:
            name = _read_exact(f, name_len, "tensor name", size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerFormatError(f"tensor name is not UTF-8: {exc.reason}",
                                       name_offset) from exc
        if any(p.name == name for p in payloads):
            raise ContainerFormatError(f"frame names tensor {name!r} twice", name_offset)
        (ndim,) = struct.unpack("<I", _read_exact(f, 4, "ndim", size))
        dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "dims", size))
        dtype_offset = f.tell()
        (dtype_code,) = struct.unpack("<B", _read_exact(f, 1, "dtype code", size))
        if dtype_code != DTYPE_F32:
            raise ContainerFormatError(
                f"unknown dtype code {dtype_code}", dtype_offset
            )
        offset = f.tell()
        nbytes = 4 * math.prod(dims)
        if nbytes > size - offset:
            raise ContainerFormatError(
                f"truncated file while reading tensor {name!r} payload", offset
            )
        f.seek(nbytes, os.SEEK_CUR)
        payloads.append(Payload(source, name, dims, offset))
    return payloads


def write_omcf(path, frames: Iterable[Mapping[str, np.ndarray]]) -> int:
    """Write named-tensor frames to an OMCF file; returns the frame count.

    Accepts any iterable, so large sequences can be streamed; the frame
    count in the header is patched in after the payload is written. Each
    payload is written from the array's own memory. The file is written
    beside path and then replaces it, so if the frames raise partway, any
    earlier file at path is left as it was.
    """
    count = 0
    with _replacing(path, "xb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, 0))
        for tensors in frames:
            f.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                if arr.dtype != np.float32:
                    raise ValueError(
                        f"tensor {name!r} must be float32, got {arr.dtype}"
                    )
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<I", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(struct.pack("<B", DTYPE_F32))
                # A byte view, not memoryview(...).cast, which rejects
                # zero-size arrays.
                payload = np.ascontiguousarray(arr, dtype="<f4")
                f.write(payload.reshape(-1).view(np.uint8))
            count += 1
        f.seek(len(MAGIC) + 4)
        f.write(struct.pack("<I", count))
    return count


def read_omcf(path) -> list[dict[str, np.ndarray]]:
    """Read every named-tensor frame of an OMCF file, every payload read."""
    source = _OmcfFile(path)
    size = os.fstat(source.f.fileno()).st_size
    return [{p.name: p.read() for p in _walk_frame(source, size)}
            for _ in range(_read_preamble(source.f, size))]


# ---------------------------------------------------------------------------
# Frame container I/O
# ---------------------------------------------------------------------------


def _check_homogeneous(index: int, tensors: Mapping, first: dict) -> None:
    """Check that frame index's required tensors keep frame 1's shapes.

    first maps each tensor's name to frame 1's shape, filled from frame 1
    itself. The writer and the reader both keep a sequence to this rule.
    """
    for name in REQUIRED_TENSORS:
        shape = tensors[name].shape
        expected = first.setdefault(name, shape)
        if shape != expected:
            raise ContainerFormatError(
                f"sequence must be homogeneous: frame {index} tensor "
                f"{name!r} has shape {shape}, expected {expected}"
            )


def write_container(frames: Iterable[FrameContainer], path) -> int:
    """Write a homogeneous, consecutively numbered container sequence.

    A frame that breaks the sequence (`_check_homogeneous`) raises before
    any of it is written, and no file is left at path.
    """

    def tensor_stream():
        expected = 1
        first: dict[str, tuple[int, ...]] = {}
        for fc in frames:
            fc.validate()
            if fc.frame_index != expected:
                raise ValueError(
                    f"frames must be numbered consecutively from 1; "
                    f"expected {expected}, got {fc.frame_index}"
                )
            _check_homogeneous(fc.frame_index, fc.held(), first)
            expected += 1
            yield fc.tensors()

    return write_omcf(path, tensor_stream())


# The tensors iter_container reads with each frame; the rest stay in the file.
_READ_WITH_FRAME = ("prob", "boxes")


class _FrameLayout:
    """Frame 1's bytes, for reading each later frame of a container at them.

    A frame is header bytes and payloads in file order. The layout cuts it
    into spans at every payload not read with the frame (embed, feat, any
    other tensor): each span is a run of header bytes with the prob and
    boxes payloads between them, read by one `preadv` straight into the
    header buffer and the new arrays. In the order the writer uses, that is
    one span for the headers, prob, boxes and embed's header, and one for
    feat's header. A later frame whose header bytes equal frame 1's has
    frame 1's tensors, shapes and dtype codes, so it passes the format and
    homogeneity checks frame 1 passed; `read` gives None for any other
    frame, which the caller then walks. payloads are frame 1's walked
    headers and tensors its checked tensors (`_checked_tensors`).
    """

    def __init__(self, source: _OmcfFile, start: int, end: int, payloads: list[Payload],
                 tensors: list):
        fd = source.f.fileno()
        self.size = end - start
        self.shapes = [t.shape for t in tensors if not isinstance(t, Payload)]
        self.unread = [(t.name, t.shape, t.offset - start) for t in tensors
                       if isinstance(t, Payload)]
        # Per span: its offset in the frame, its length and its parts, each
        # a header's (start, stop) in self.header or the index of a read tensor.
        self.spans: list[tuple[int, int, list]] = []
        headers, parts = bytearray(), []
        cursor = span_start = start
        for p in payloads:
            parts.append((len(headers), len(headers) + p.offset - cursor))
            headers += os.pread(fd, p.offset - cursor, cursor)
            cursor = p.offset + 4 * math.prod(p.shape)
            if p.name in _READ_WITH_FRAME:
                parts.append(_READ_WITH_FRAME.index(p.name))
            else:
                self.spans.append((span_start - start, p.offset - span_start, parts))
                parts, span_start = [], cursor
        if parts:
            self.spans.append((span_start - start, cursor - span_start, parts))
        self.header = bytes(headers)

    def read(self, source: _OmcfFile, start: int, size: int) -> list | None:
        """The frame at start laid out as frame 1, or None if it is not.

        Returns [prob, boxes, embed, feat]: the first two read, the others
        as unread payloads. None when the frame would run past size, a read
        comes up short or its header bytes differ from frame 1's.
        """
        if size - start < self.size:
            return None
        fd = source.f.fileno()
        header = bytearray(len(self.header))
        view = memoryview(header)
        arrays = [np.empty(shape, dtype="<f4") for shape in self.shapes]
        for offset, length, parts in self.spans:
            buffers = [_bytes_of(arrays[part]) if isinstance(part, int)
                       else view[part[0]:part[1]] for part in parts]
            if os.preadv(fd, buffers, start + offset) != length:
                return None
        if header != self.header:
            return None
        return arrays + [Payload(source, name, shape, start + offset)
                         for name, shape, offset in self.unread]


def _checked_tensors(index: int, payloads: list[Payload],
                     first: dict[str, tuple[int, ...]]) -> list:
    """A walked frame's tensors, [prob, boxes, embed, feat], once its format holds.

    Checks the format and each tensor's shape against `first`, frame 1's
    shapes (filled from frame 1), then reads prob and boxes.
    """
    tensors = {p.name: p for p in payloads}
    try:
        _check_tensor_format(tensors)
    except ValueError as exc:
        raise ContainerFormatError(f"frame {index}: {exc}") from exc
    _check_homogeneous(index, tensors, first)
    return [tensors[name].read() if name in _READ_WITH_FRAME else tensors[name]
            for name in REQUIRED_TENSORS]


def iter_container(path) -> Iterator[FrameContainer]:
    """Stream frames whose format is checked; each tensor keeps frame 1's shape.

    Frame 1's headers are walked and checked before any payload is read.
    Each later frame is read at frame 1's layout (`_FrameLayout`): one
    `preadv` fills its headers, prob and boxes, one small read the header
    after embed, and the frame's format holds when its header bytes equal
    frame 1's. A frame laid out otherwise, or cut short, is walked and
    checked like frame 1, so a fault raises the ContainerFormatError the
    walk gives, with its frame number or byte offset, after the frames
    before it have been yielded.

    prob and boxes are read with the frame; embed and feat are only
    size-checked and stay in the file as payloads (`FrameContainer.held`).
    The tracker reads embed from there, block by block in the embedding
    search and cell by cell in the readout, and feat only under learned
    refinement; the first access to `frame.embed` or `frame.feat` reads
    that tensor whole. A file cut short after the walk makes any of these
    reads raise ContainerFormatError naming the tensor.

    Tensor values are not checked here: Tracker.step checks prob and boxes
    (`FrameContainer.validate`) and the other values it reads, and counts
    a frame with a non-finite value it reads, or a prob outside [0, 1], as
    all-miss.
    """
    source = _OmcfFile(path)
    f = source.f
    size = os.fstat(f.fileno()).st_size
    first: dict[str, tuple[int, ...]] = {}
    layout = None
    start = len(MAGIC) + 8
    for index in range(1, _read_preamble(f, size) + 1):
        tensors = None if layout is None else layout.read(source, start, size)
        if tensors is None:
            f.seek(start)
            payloads = _walk_frame(source, size)
            tensors = _checked_tensors(index, payloads, first)
            end = f.tell()
            if layout is None:
                layout = _FrameLayout(source, start, end, payloads, tensors)
        else:
            end = start + layout.size
        start = end
        yield FrameContainer(index, *tensors)


# ---------------------------------------------------------------------------
# MOT Challenge text formats
# ---------------------------------------------------------------------------


@dataclass
class MotBox:
    """One MOT Challenge row: pixel box with frame, identity and confidence.

    id is -1 for raw detections; x, y are the top-left corner.
    """

    frame: int
    id: int
    x: float
    y: float
    w: float
    h: float
    conf: float


def mot_box_fault(box: MotBox) -> str | None:
    """What keeps box from being well-formed, naming the field, or None.

    A well-formed box has finite x, y, w, h and conf, and w > 0 and h > 0.
    Both readers of outside boxes refuse any other: `read_mot_boxes` and
    `Tracker.step`, for its public detections.
    """
    for name in ("x", "y", "w", "h", "conf"):
        value = getattr(box, name)
        if not math.isfinite(value):
            return f"{name} must be finite, got {value}"
    if box.w <= 0.0 or box.h <= 0.0:
        return f"box size must be positive, got w={box.w} h={box.h}"
    return None


def read_mot_boxes(path) -> list[MotBox]:
    """Parse "frame,id,x,y,w,h,conf,..." rows in file order.

    Fields beyond conf are ignored. Blank lines are skipped. A non-numeric
    field, a frame or id that is not integral (3.0 is), a frame below 1,
    or a box that is not well-formed (`mot_box_fault`), raises
    MotParseError with the offending line number, so readers downstream
    see only well-formed boxes.
    """
    boxes: list[MotBox] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise MotParseError(
                    f"expected at least 7 comma-separated fields, got {len(parts)}",
                    lineno,
                )
            try:
                values = [float(p) for p in parts[:7]]
            except ValueError as exc:
                raise MotParseError(f"non-numeric field: {exc}", lineno) from exc
            frame, track_id, x, y, w, h, conf = values
            # A non-finite frame or id is not integral either.
            if not (frame.is_integer() and track_id.is_integer()):
                raise MotParseError(
                    f"frame and id must be integers, got {parts[0]} and {parts[1]}", lineno)
            if frame < 1:
                raise MotParseError(f"frame must be >= 1, got {parts[0]}", lineno)
            box = MotBox(int(frame), int(track_id), x, y, w, h, conf)
            if (fault := mot_box_fault(box)) is not None:
                raise MotParseError(fault, lineno)
            boxes.append(box)
    return boxes


def write_mot_results(tracks: list[MotBox], path) -> None:
    """Write tracker output rows sorted by (frame, id).

    Coordinates are printed with 2 decimal places and confidence with 6,
    which fixes the precision preserved by a read/write round trip. The
    rows go to a temporary file in the same directory, which then replaces
    path, so a failed write leaves any earlier file at path intact.
    """
    with mot_results_writer(path) as write:
        write(tracks)


@contextlib.contextmanager
def mot_results_writer(path) -> Iterator[Callable[[list[MotBox]], None]]:
    """Write result rows as they come; path is replaced when the block ends.

    Yields a function that writes one batch of rows, sorted by (frame, id),
    in the format of `write_mot_results`. Batches go to a temporary file
    beside path in call order, so writing each frame's rows in frame order
    gives the bytes of one `write_mot_results` call with every row. When
    the block ends cleanly the file replaces path; on an exception it is
    removed and any earlier file at path stays.
    """
    with _replacing(path, "x", encoding="utf-8") as f:
        def write(tracks: list[MotBox]) -> None:
            for b in tracks:
                if b.id < 1:
                    raise ValueError(f"result rows need ids >= 1, got {b.id}")
            for b in sorted(tracks, key=lambda b: (b.frame, b.id)):
                f.write(
                    f"{b.frame},{b.id},{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},"
                    f"{b.conf:.6f},-1,-1,-1\n"
                )

        yield write
