"""Binary instance masks, the RLE codec, IoU, and bounding-box machinery.

RLE convention (normative): row-major run lengths, first run counting zeros,
runs alternating 0/1 afterwards.  Only the leading zero-run may be empty.
Boxes are half-open integer rectangles [x0, x1) x [y0, y1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError, FormatError, ShapeError
from .grids import LogitMap

COMPONENTS = ("shell", "meat", "gonad", "muscle")

# label ids used by argmax output and overlays: 0 is background
COMPONENT_IDS = {name: i + 1 for i, name in enumerate(COMPONENTS)}

# score-to-logit gain when rasterizing component masks: deeper components get
# larger gains so the innermost one wins the per-pixel argmax where they nest
COMPONENT_GAIN = {name: 2.0 + 0.5 * COMPONENT_IDS[name] for name in COMPONENTS}


@dataclass(frozen=True)
class BinaryMask:
    height: int
    width: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise DataValidationError("BinaryMask dimensions must be positive")
        arr = np.array(self.bits, dtype=bool, order="C")
        if arr.shape != (self.height, self.width):
            raise ShapeError(
                f"BinaryMask bits shape {arr.shape} != {(self.height, self.width)}")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_array(cls, arr) -> "BinaryMask":
        a = np.asarray(arr, dtype=bool)
        if a.ndim != 2:
            raise ShapeError(f"expected 2D array, got ndim={a.ndim}")
        return cls(a.shape[0], a.shape[1], a)

    @classmethod
    def zeros(cls, height: int, width: int) -> "BinaryMask":
        return cls(height, width, np.zeros((height, width), dtype=bool))


@dataclass(frozen=True)
class RleMask:
    """Run-length encoded BinaryMask (see module docstring for the layout)."""

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if self.height < 1 or self.width < 1:
            raise DataValidationError("RleMask dimensions must be positive")
        if not counts:
            raise FormatError("RLE counts must be non-empty")
        if any(c < 0 for c in counts):
            raise FormatError("RLE counts must be nonnegative")
        if any(c == 0 for c in counts[1:]):
            raise FormatError("only the leading zero-run of an RLE may be empty")
        total = sum(counts)
        if total != self.height * self.width:
            raise FormatError(
                f"RLE counts sum {total} != {self.height * self.width} "
                f"({self.height}x{self.width} grid)")


def rle_encode(m: BinaryMask) -> RleMask:
    """Losslessly encode a mask; decode(encode(m)) == m."""
    flat = m.bits.ravel()
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [flat.size]))
    runs = [int(n) for n in ends - starts]
    if flat[0]:
        runs.insert(0, 0)
    return RleMask(m.height, m.width, tuple(runs))


def rle_decode(r: RleMask) -> BinaryMask:
    flat = np.zeros(r.height * r.width, dtype=bool)
    pos = 0
    bit = False
    for c in r.counts:
        if bit:
            flat[pos:pos + c] = True
        pos += c
        bit = not bit
    return BinaryMask(r.height, r.width, flat.reshape(r.height, r.width))


def iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union; 0.0 when both masks are empty."""
    if (a.height, a.width) != (b.height, b.width):
        raise ShapeError(
            f"mask shapes {(a.height, a.width)} vs {(b.height, b.width)} mismatch")
    inter = int(np.count_nonzero(a.bits & b.bits))
    union = int(np.count_nonzero(a.bits | b.bits))
    if union == 0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class BBox:
    """Half-open pixel rectangle [x0, x1) x [y0, y1)."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.x0 < 0 or self.y0 < 0:
            raise DataValidationError(f"box corners must be nonnegative: {self}")
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise DataValidationError(f"box must have positive area: {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def encloses(self, other: "BBox") -> bool:
        return (self.x0 <= other.x0 and self.y0 <= other.y0
                and self.x1 >= other.x1 and self.y1 >= other.y1)

    def union(self, other: "BBox") -> "BBox":
        return BBox(min(self.x0, other.x0), min(self.y0, other.y0),
                    max(self.x1, other.x1), max(self.y1, other.y1))


def tight_bbox(m: BinaryMask) -> BBox | None:
    """Smallest box enclosing the set pixels, or None for an empty mask."""
    rows = np.flatnonzero(m.bits.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(m.bits.any(axis=0))
    return BBox(int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1)


def expand_bbox(b: BBox, factor: float, image_h: int, image_w: int) -> BBox:
    """Scale a box about its center, round outward, clamp to the image.

    The result always encloses ``b`` (before clamping can only grow) and
    never exits [0, image_w) x [0, image_h).
    """
    if factor < 1.0:
        raise DataValidationError(f"expansion factor must be >= 1, got {factor}")
    cx = (b.x0 + b.x1) / 2.0
    cy = (b.y0 + b.y1) / 2.0
    half_w = (b.x1 - b.x0) * factor / 2.0
    half_h = (b.y1 - b.y0) * factor / 2.0
    x0 = max(0, math.floor(cx - half_w))
    y0 = max(0, math.floor(cy - half_h))
    x1 = min(image_w, math.ceil(cx + half_w))
    y1 = min(image_h, math.ceil(cy + half_h))
    return BBox(x0, y0, x1, y1)


def scale_box(b: BBox, from_h: int, from_w: int, to_h: int, to_w: int) -> BBox:
    """Project a box between grids, rounding outward and clamping."""
    fy = to_h / from_h
    fx = to_w / from_w
    x0 = max(0, math.floor(b.x0 * fx))
    y0 = max(0, math.floor(b.y0 * fy))
    x1 = min(to_w, max(x0 + 1, math.ceil(b.x1 * fx)))
    y1 = min(to_h, max(y0 + 1, math.ceil(b.y1 * fy)))
    return BBox(x0, y0, x1, y1)


def _check_in_bounds(b: BBox, height: int, width: int) -> None:
    if b.x1 > width or b.y1 > height:
        raise ShapeError(f"box {b} exceeds {height}x{width} grid")


def crop(grid, b: BBox):
    """Sub-grid of a LogitMap or BinaryMask covered by ``b`` (same kind out)."""
    if isinstance(grid, LogitMap):
        _check_in_bounds(b, grid.height, grid.width)
        return LogitMap(b.height, b.width, grid.channels,
                        grid.data[b.y0:b.y1, b.x0:b.x1, :].copy())
    if isinstance(grid, BinaryMask):
        _check_in_bounds(b, grid.height, grid.width)
        return BinaryMask(b.height, b.width, grid.bits[b.y0:b.y1, b.x0:b.x1].copy())
    raise TypeError(f"crop expects LogitMap or BinaryMask, got {type(grid).__name__}")


@dataclass(frozen=True)
class MaskInstance:
    """One predicted or ground-truth instance of a component.

    ``binary`` is the decoded mask, set once at construction.
    """

    mask: RleMask
    bbox: BBox
    component: str
    object_id: int | None
    score: float
    model_id: str
    scale: float
    uid: int | None = field(default=None)

    def __post_init__(self) -> None:
        if self.component not in COMPONENTS:
            raise DataValidationError(
                f"unknown component {self.component!r}; expected one of {COMPONENTS}")
        if not (0.0 <= self.score <= 1.0):
            raise DataValidationError(f"score {self.score} outside [0, 1]")
        if self.scale <= 0:
            raise DataValidationError(f"scale must be positive, got {self.scale}")
        decoded = rle_decode(self.mask)
        tight = tight_bbox(decoded)
        if tight is not None and not self.bbox.encloses(tight):
            raise DataValidationError(
                f"bbox {self.bbox} does not enclose the mask extent {tight}")
        self.__dict__["binary"] = decoded
