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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .numerics import grid_row_blocks

__all__ = [
    "ContainerFormatError",
    "MotParseError",
    "FrameContainer",
    "MotBox",
    "write_omcf",
    "read_omcf",
    "write_container",
    "read_container",
    "iter_container",
    "read_mot_boxes",
    "write_mot_results",
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


@dataclass
class FrameContainer:
    """Per-frame detector outputs on the feature grid.

    prob   (H, W, 1)  foreground probability in [0, 1]
    boxes  (H, W, 4)  raw box regression values
    embed  (H, W, C)  identity-embedding map (512 channels in production)
    feat   (H, W, C)  visual-feature map (256 channels in production)
    """

    frame_index: int
    prob: np.ndarray
    boxes: np.ndarray
    embed: np.ndarray
    feat: np.ndarray

    @property
    def height(self) -> int:
        return self.prob.shape[0]

    @property
    def width(self) -> int:
        return self.prob.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "prob": self.prob,
            "boxes": self.boxes,
            "embed": self.embed,
            "feat": self.feat,
        }

    def check_format(self) -> None:
        """Check index, rank, dtype and shapes; reads no tensor values."""
        if self.frame_index < 1:
            raise ValueError(f"frame_index must be >= 1, got {self.frame_index}")
        shapes = {}
        for name, arr in self.tensors().items():
            if not isinstance(arr, np.ndarray) or arr.ndim != 3:
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

    def validate(self) -> None:
        """check_format, then the values: all finite, prob within [0, 1].

        Finiteness is checked one row block at a time, so no bool array the
        size of a whole tensor is allocated.
        """
        self.check_format()
        for name, arr in self.tensors().items():
            for rows in grid_row_blocks(arr):
                if not np.isfinite(arr[rows]).all():
                    raise ValueError(f"tensor {name!r} contains non-finite values")
        if self.prob.min() < 0.0 or self.prob.max() > 1.0:
            raise ValueError("prob values must lie in [0, 1]")

    @classmethod
    def from_tensors(cls, frame_index: int, tensors: Mapping[str, np.ndarray]) -> "FrameContainer":
        """Build a frame from named tensors and check its format, not its values."""
        missing = [n for n in REQUIRED_TENSORS if n not in tensors]
        if missing:
            raise ValueError(f"container frame missing tensors: {missing}")
        fc = cls(frame_index, *(np.asarray(tensors[n]) for n in REQUIRED_TENSORS))
        fc.check_format()
        return fc


# ---------------------------------------------------------------------------
# OMCF low-level tensor I/O
# ---------------------------------------------------------------------------


def _read_exact(f, n: int, what: str) -> bytes:
    offset = f.tell()
    data = f.read(n)
    if len(data) != n:
        raise ContainerFormatError(f"truncated file while reading {what}", offset)
    return data


def _read_array(f, dims: tuple[int, ...], what: str) -> np.ndarray:
    """Read a little-endian float32 payload straight into a new array.

    The size is checked against the bytes left in the file before anything
    is allocated, so a corrupt header cannot ask for more than the file holds.
    """
    offset = f.tell()
    nbytes = 4 * math.prod(dims)
    if nbytes > os.fstat(f.fileno()).st_size - offset:
        raise ContainerFormatError(f"truncated file while reading {what}", offset)
    arr = np.empty(dims, dtype="<f4")
    if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
        raise ContainerFormatError(f"truncated file while reading {what}", offset)
    return arr


def write_omcf(path, frames: Iterable[Mapping[str, np.ndarray]]) -> int:
    """Write named-tensor frames to an OMCF file; returns the frame count.

    Accepts any iterable, so large sequences can be streamed; the frame
    count in the header is patched in after the payload is written.
    """
    count = 0
    with open(path, "wb") as f:
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
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            count += 1
        f.seek(len(MAGIC) + 4)
        f.write(struct.pack("<I", count))
    return count


def iter_omcf(path) -> Iterator[dict[str, np.ndarray]]:
    """Stream named-tensor frames from an OMCF file."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise ContainerFormatError(f"bad magic {magic!r}", 0)
        version, frame_count = struct.unpack("<II", _read_exact(f, 8, "header"))
        if version != VERSION:
            raise ContainerFormatError(f"unsupported version {version}", 4)
        for _ in range(frame_count):
            (tensor_count,) = struct.unpack(
                "<I", _read_exact(f, 4, "tensor count")
            )
            tensors: dict[str, np.ndarray] = {}
            for _ in range(tensor_count):
                (name_len,) = struct.unpack(
                    "<I", _read_exact(f, 4, "name length")
                )
                name = _read_exact(f, name_len, "tensor name").decode("utf-8")
                (ndim,) = struct.unpack("<I", _read_exact(f, 4, "ndim"))
                dims = struct.unpack(
                    f"<{ndim}I", _read_exact(f, 4 * ndim, "dims")
                )
                dtype_offset = f.tell()
                (dtype_code,) = struct.unpack(
                    "<B", _read_exact(f, 1, "dtype code")
                )
                if dtype_code != DTYPE_F32:
                    raise ContainerFormatError(
                        f"unknown dtype code {dtype_code}", dtype_offset
                    )
                tensors[name] = _read_array(f, dims, f"tensor {name!r} payload")
            yield tensors


def read_omcf(path) -> list[dict[str, np.ndarray]]:
    return list(iter_omcf(path))


# ---------------------------------------------------------------------------
# Frame container I/O
# ---------------------------------------------------------------------------


def write_container(frames: Iterable[FrameContainer], path) -> int:
    """Write a homogeneous, consecutively numbered container sequence."""

    def tensor_stream():
        expected = 1
        hw: tuple[int, int] | None = None
        for fc in frames:
            fc.validate()
            if fc.frame_index != expected:
                raise ValueError(
                    f"frames must be numbered consecutively from 1; "
                    f"expected {expected}, got {fc.frame_index}"
                )
            size = (fc.height, fc.width)
            if hw is None:
                hw = size
            elif hw != size:
                raise ValueError(
                    f"sequence must be homogeneous: frame {fc.frame_index} "
                    f"has size {size}, expected {hw}"
                )
            expected += 1
            yield fc.tensors()

    return write_omcf(path, tensor_stream())


def iter_container(path) -> Iterator[FrameContainer]:
    """Stream frames whose format is checked; each tensor keeps frame 1's shape.

    Tensor values are not read here: Tracker.step checks them and counts a
    frame with a non-finite value or a prob outside [0, 1] as all-miss.
    """
    first: dict[str, tuple[int, ...]] = {}
    for i, tensors in enumerate(iter_omcf(path)):
        try:
            fc = FrameContainer.from_tensors(i + 1, tensors)
        except ValueError as exc:
            raise ContainerFormatError(f"frame {i + 1}: {exc}") from exc
        for name, arr in fc.tensors().items():
            expected = first.setdefault(name, arr.shape)
            if arr.shape != expected:
                raise ContainerFormatError(
                    f"sequence must be homogeneous: frame {i + 1} tensor "
                    f"{name!r} has shape {arr.shape}, expected {expected}"
                )
        yield fc


def read_container(path) -> list[FrameContainer]:
    return list(iter_container(path))


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


def read_mot_boxes(path) -> list[MotBox]:
    """Parse "frame,id,x,y,w,h,conf,..." rows in file order.

    Fields beyond conf are ignored. Blank lines are skipped. A non-numeric
    or non-finite field, or a box with w <= 0 or h <= 0, raises
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
            if not all(math.isfinite(v) for v in values):
                raise MotParseError(f"non-finite field in {values}", lineno)
            if w <= 0.0 or h <= 0.0:
                raise MotParseError(f"box size must be positive, got w={w} h={h}", lineno)
            boxes.append(MotBox(int(frame), int(track_id), x, y, w, h, conf))
    return boxes


def write_mot_results(tracks: list[MotBox], path) -> None:
    """Write tracker output rows sorted by (frame, id).

    Coordinates are printed with 2 decimal places and confidence with 6,
    which fixes the precision preserved by a read/write round trip. The
    rows go to a temporary file in the same directory, which then replaces
    path, so a failed write leaves any earlier file at path intact.
    """
    for b in tracks:
        if b.id < 1:
            raise ValueError(f"result rows need ids >= 1, got {b.id}")
    rows = sorted(tracks, key=lambda b: (b.frame, b.id))
    path = os.fspath(path)
    # Not tempfile.mkstemp: its files are private (0600), while open(..., "x")
    # creates the file with the permissions a plain open would give path.
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            for b in rows:
                f.write(
                    f"{b.frame},{b.id},{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},"
                    f"{b.conf:.6f},-1,-1,-1\n"
                )
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
