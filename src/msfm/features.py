"""Per-image feature sets: binary I/O, scale ordering and tier selection.

Feature file layout (little-endian):

    magic   4 bytes  b"MSFT"
    version u32      = 1
    image_id u32     < 2^31, as refs pack into int64 as image << 32 | feature
    width    u32
    height   u32
    count    u32
    count records of {x f32, y f32, scale f32, orientation f32, descriptor 128 x u8}

Features are held sorted by descending scale (ties keep file order), so the
coarse tier of a set is always the prefix ``[:coarse_count]``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"MSFT"
VERSION = 1
DESCRIPTOR_DIM = 128
RECORD_BYTES = 16 + DESCRIPTOR_DIM
HEADER = struct.Struct("<4sIIIII")

# all-features fallback: tiny sets are not worth tiering
MIN_FEATURES_FOR_TIER = 1000

DEFAULT_ETA = 20.0

# scale-space constants used to quantize scales into (octave, interval) levels
SIGMA0 = 1.6
INTERVALS_PER_OCTAVE = 3


@dataclass
class FeatureSet:
    """All features of one image, sorted by descending scale.

    ``coarse_count`` marks the end of the selected high-scale tier; freshly
    constructed sets default to the full set.
    """

    image_id: int
    width: int
    height: int
    xy: np.ndarray          # (n, 2) float32 pixel positions
    scale: np.ndarray       # (n,) float32, descending
    orientation: np.ndarray  # (n,) float32 radians
    descriptors: np.ndarray  # (n, 128) uint8
    coarse_count: int = -1

    def __post_init__(self):
        if self.coarse_count < 0:
            self.coarse_count = len(self.scale)

    def __len__(self) -> int:
        return len(self.scale)

    @property
    def tier_indices(self) -> np.ndarray:
        return np.arange(self.coarse_count)

    @classmethod
    def from_arrays(cls, image_id, width, height, xy, scale, orientation, descriptors):
        """Build a set from unordered arrays; sorts by descending scale (stable)."""
        xy = np.asarray(xy, dtype=np.float32).reshape(-1, 2)
        scale = np.asarray(scale, dtype=np.float32).reshape(-1)
        orientation = np.asarray(orientation, dtype=np.float32).reshape(-1)
        descriptors = np.asarray(descriptors, dtype=np.uint8).reshape(-1, DESCRIPTOR_DIM)
        order = np.argsort(-scale, kind="stable")
        return cls(
            image_id=int(image_id),
            width=int(width),
            height=int(height),
            xy=np.ascontiguousarray(xy[order]),
            scale=np.ascontiguousarray(scale[order]),
            orientation=np.ascontiguousarray(orientation[order]),
            descriptors=np.ascontiguousarray(descriptors[order]),
        )


def load_features(path) -> FeatureSet:
    """Read one feature file, validating structure against the header."""
    data = Path(path).read_bytes()
    if len(data) < HEADER.size:
        raise FormatError(f"{path}: truncated header, file ends at byte {len(data)}")
    magic, version, image_id, width, height, count = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    if image_id >= 2 ** 31:
        raise FormatError(f"{path}: image id {image_id} at byte 8 is not below 2^31")
    expected = HEADER.size + count * RECORD_BYTES
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload ends at byte {len(data)}, expected {expected} "
            f"({count} records of {RECORD_BYTES} bytes)"
        )
    raw = np.frombuffer(data, dtype=np.uint8, offset=HEADER.size).reshape(count, RECORD_BYTES)
    head = raw[:, :16].reshape(-1).tobytes()
    floats = np.frombuffer(head, dtype="<f4").reshape(count, 4) if count else np.zeros((0, 4), np.float32)
    descriptors = raw[:, 16:].copy()
    xy = floats[:, 0:2]
    scale = floats[:, 2]
    orientation = floats[:, 3]
    bad = np.flatnonzero(
        (xy[:, 0] < 0) | (xy[:, 0] >= width) | (xy[:, 1] < 0) | (xy[:, 1] >= height) | (scale <= 0)
    )
    if bad.size:
        i = int(bad[0])
        raise FormatError(
            f"{path}: record {i} at byte {HEADER.size + i * RECORD_BYTES} "
            f"violates bounds (x={xy[i, 0]}, y={xy[i, 1]}, scale={scale[i]})"
        )
    return FeatureSet.from_arrays(image_id, width, height, xy, scale, orientation, descriptors)


def write_features(fs: FeatureSet, path) -> None:
    """Write a feature set in stored order; write(load(p)) reproduces p byte for byte."""
    n = len(fs)
    buf = bytearray(HEADER.size + n * RECORD_BYTES)
    HEADER.pack_into(buf, 0, MAGIC, VERSION, fs.image_id, fs.width, fs.height, n)
    rec = np.zeros((n, RECORD_BYTES), dtype=np.uint8)
    floats = np.empty((n, 4), dtype="<f4")
    floats[:, 0:2] = fs.xy
    floats[:, 2] = fs.scale
    floats[:, 3] = fs.orientation
    rec[:, :16] = floats.view(np.uint8).reshape(n, 16)
    rec[:, 16:] = fs.descriptors
    buf[HEADER.size:] = rec.tobytes()
    Path(path).write_bytes(bytes(buf))


def select_top_scale(fs: FeatureSet, eta: float = DEFAULT_ETA) -> FeatureSet:
    """Return a copy with the high-scale tier boundary set to the top eta percent.

    Sets with fewer than MIN_FEATURES_FOR_TIER features keep everything.
    """
    if not 0 < eta <= 100:
        raise ValueError(f"eta must be in (0, 100], got {eta}")
    n = len(fs)
    if n < MIN_FEATURES_FOR_TIER:
        count = n
    else:
        count = math.ceil(eta / 100.0 * n)
    return replace(fs, coarse_count=count)


def quantize_scale_levels(scale: np.ndarray) -> np.ndarray:
    """Map scales to integer (octave, interval) levels of the scale pyramid."""
    levels = np.log2(np.asarray(scale, dtype=np.float64) / SIGMA0) * INTERVALS_PER_OCTAVE
    return np.round(levels).astype(np.int64)


def scale_coverage(fs: FeatureSet, eta: float = DEFAULT_ETA) -> float:
    """Fraction of distinct quantized scale levels spanned by the top-eta% tier."""
    if len(fs) == 0:
        raise ValueError("scale_coverage needs a non-empty feature set")
    tiered = select_top_scale(fs, eta)
    levels = quantize_scale_levels(fs.scale)
    total = np.unique(levels).size
    in_tier = np.unique(levels[: tiered.coarse_count]).size
    return in_tier / total


class FeatureStore:
    """Directory-backed collection of feature sets keyed by image id."""

    def __init__(self, sets: dict[int, FeatureSet] | None = None):
        self.sets: dict[int, FeatureSet] = dict(sets) if sets else {}

    @classmethod
    def load_dir(cls, directory, eta: float | None = None) -> "FeatureStore":
        store = cls()
        for path in sorted(Path(directory).glob("*.msft")):
            fs = load_features(path)
            if fs.image_id in store.sets:
                raise FormatError(f"{path}: duplicate image id {fs.image_id}")
            store.sets[fs.image_id] = fs
        if eta is not None:
            store.apply_eta(eta)
        return store

    def apply_eta(self, eta: float) -> None:
        for image_id in self.sets:
            self.sets[image_id] = select_top_scale(self.sets[image_id], eta)

    def image_ids(self) -> list[int]:
        return sorted(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, image_id: int) -> FeatureSet:
        return self.sets[image_id]

    def __contains__(self, image_id: int) -> bool:
        return image_id in self.sets

    def position(self, image_id: int, feature_id) -> np.ndarray:
        """A feature's pixel position; (k, 2) positions for an array of ids."""
        return self.sets[image_id].xy[feature_id]
