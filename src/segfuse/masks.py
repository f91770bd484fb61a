"""Binary instance masks, the RLE codec, IoU, and bounding-box machinery.

A decoded mask is a read-only 2-D bool ndarray; functions that take one
accept anything ``np.asarray(m, dtype=bool)`` makes 2-D.

RLE convention (normative): row-major run lengths, first run counting zeros,
runs alternating 0/1 afterwards.  Only the leading zero-run may be empty.
An ``RleMask`` holds the runs once, as their boundaries in one read-only
int64 array; ``rle_decode`` reads them as they are.  Instance boxes are
checked and IoUs counted from the runs, with nothing decoded.
Boxes are half-open integer rectangles [x0, x1) x [y0, y1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataValidationError, FormatError, ShapeError
from .grids import LogitMap, _frozen

COMPONENTS = ("shell", "meat", "gonad", "muscle")

# label ids used by argmax output and overlays: 0 is background
COMPONENT_IDS = {name: i + 1 for i, name in enumerate(COMPONENTS)}

# score-to-logit gain when rasterizing component masks: deeper components get
# larger gains so the innermost one wins the per-pixel argmax where they nest
COMPONENT_GAIN = {name: 2.0 + 0.5 * COMPONENT_IDS[name] for name in COMPONENTS}


def _mask_array(m) -> np.ndarray:
    """``m`` as a 2-D bool array, the one mask representation."""
    a = np.asarray(m, dtype=bool)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2D mask, got ndim={a.ndim}")
    return a


@dataclass(frozen=True, init=False, eq=False, repr=False)
class RleMask:
    """Run-length encoding of a height x width mask (layout in the module
    docstring); ``rle_decode`` gives back a read-only 2-D bool array.

    The runs are held once, as ``bounds``: a read-only int64 array of 0,
    then the end of each run, with ``height * width`` last, so run k spans
    pixels [bounds[k], bounds[k + 1]) and the odd-numbered runs are ones.
    ``counts``, the run lengths as Python ints, is derived from it.
    """

    height: int
    width: int
    bounds: np.ndarray

    def __init__(self, height: int, width: int, counts) -> None:
        # builtins over Python ints: one C loop each, no int64 to overflow
        counts = tuple(map(int, counts))
        if height < 1 or width < 1:
            raise DataValidationError("RleMask dimensions must be positive")
        if height * width > 2 ** 63 - 1:
            raise DataValidationError(
                f"{height}x{width} grid has more pixels than a "
                f"signed 64-bit count holds")
        if not counts:
            raise FormatError("RLE counts must be non-empty")
        if min(counts) < 0:
            raise FormatError("RLE counts must be nonnegative")
        if 0 in counts[1:]:
            raise FormatError("only the leading zero-run of an RLE may be empty")
        total = sum(counts)
        if total != height * width:
            raise FormatError(
                f"RLE counts sum {total} != {height * width} "
                f"({height}x{width} grid)")
        # every partial sum is now at most height * width, inside int64
        bounds = np.asarray((0, *counts), dtype=np.int64).cumsum()
        bounds.setflags(write=False)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "bounds", bounds)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple((self.bounds[1:] - self.bounds[:-1]).tolist())

    def _fields(self) -> tuple:
        """What the mask is made of, by which it is compared, hashed and
        pickled."""
        return self.height, self.width, self.counts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "RleMask(height={!r}, width={!r}, counts={!r})".format(
            *self._fields())

    def __reduce__(self):
        return RleMask, self._fields()


def rle_encode(m: np.ndarray, box: BBox | None = None,
               height: int | None = None, width: int | None = None) -> RleMask:
    """Losslessly encode a mask; decode(encode(m)) == m.

    With ``box``, ``m`` is the window over ``box`` of a height x width frame
    that is empty outside it, and the result is that frame's RLE.
    """
    m = _mask_array(m)
    mh, mw = m.shape
    if box is None:
        box, height, width = BBox(0, 0, mw, mh), mh, mw
    elif height is None or width is None:
        raise DataValidationError(f"box {box} needs the frame's height and width")
    if (box.height, box.width) != (mh, mw):
        raise ShapeError(f"window of shape {m.shape} does not fill box {box}")
    _check_in_bounds(box, height, width)
    # a zero column on each side ends every run of ones at its row's end
    padded = np.zeros((mh, mw + 2), dtype=bool)
    padded[:, 1:-1] = m
    flat = padded.ravel()
    rows, cols = np.divmod(np.flatnonzero(flat[1:] != flat[:-1]) + 1, mw + 2)
    pos = (rows + box.y0) * width + cols + box.x0 - 1
    # runs that end one row's window and start the next one touch in the
    # frame when the window spans it, and are merged
    return _from_runs(pos[0::2], pos[1::2], height, width)


def _from_runs(starts, ends, height: int, width: int) -> RleMask:
    """The height x width mask whose set pixels are the runs [starts[k],
    ends[k]), in order and disjoint; runs that touch are merged."""
    keep = np.flatnonzero(starts[1:] != ends[:-1])
    starts = np.concatenate((starts[:1], starts[1:][keep]))
    ends = np.concatenate((ends[:-1][keep], ends[-1:]))
    runs = np.empty(2 * starts.size + 1, dtype=np.int64)
    runs[0:-1:2] = starts - np.concatenate(([0], ends[:-1]))
    runs[1::2] = ends - starts
    runs[-1] = height * width - (ends[-1] if ends.size else 0)
    runs = runs.tolist()
    return RleMask(height, width, tuple(runs if runs[-1] else runs[:-1]))


def rle_decode(r: RleMask, box: BBox | None = None) -> np.ndarray:
    """Decode ``r``, or only its window over ``box``, which must lie on
    ``r``'s grid (``ShapeError`` otherwise)."""
    if box is None:
        box = BBox(0, 0, r.width, r.height)
    _check_in_bounds(box, r.height, r.width)
    starts = r.bounds
    lo, hi = box.y0 * r.width, box.y1 * r.width
    # the runs that meet the box's rows, their bounds clipped to those rows
    first = int(starts.searchsorted(lo, side="right")) - 1
    last = int(starts.searchsorted(hi - 1, side="right"))
    bounds = starts[first:last + 1].copy()
    bounds[0], bounds[-1] = lo, hi
    # a bound's row-major place among the box's pixels, up to a constant;
    # one left or right of the box takes the place of the box's next pixel
    rows, cols = np.divmod(bounds, r.width)
    at = rows * box.width + np.minimum(np.maximum(cols, box.x0), box.x1)
    ones = np.zeros(last - first, dtype=bool)
    ones[1 - first % 2::2] = True  # odd-numbered runs are ones
    window = np.repeat(ones, at[1:] - at[:-1])
    return _frozen(window.reshape(box.height, box.width))


def _run_extent(r: RleMask) -> BBox:
    """``tight_bbox(rle_decode(r))`` of a mask with set pixels, from its runs."""
    rows0, cols0 = np.divmod(r.bounds[1:-1:2], r.width)
    rows1, cols1 = np.divmod(r.bounds[2::2] - 1, r.width)
    if (rows0 != rows1).any():  # a run across rows spans every column
        cols0, cols1 = 0, r.width - 1
    return BBox(np.min(cols0), rows0[0], np.max(cols1) + 1, rows1[-1] + 1)


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union; 0.0 when both masks are empty."""
    a, b = _mask_array(a), _mask_array(b)
    if a.shape != b.shape:
        raise ShapeError(f"mask shapes {a.shape} vs {b.shape} mismatch")
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    return inter / union if union else 0.0


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

    def union(self, other: "BBox") -> "BBox":
        return BBox(min(self.x0, other.x0), min(self.y0, other.y0),
                    max(self.x1, other.x1), max(self.y1, other.y1))

    def intersection(self, other: "BBox") -> "BBox | None":
        x0, y0 = max(self.x0, other.x0), max(self.y0, other.y0)
        x1, y1 = min(self.x1, other.x1), min(self.y1, other.y1)
        return BBox(x0, y0, x1, y1) if x0 < x1 and y0 < y1 else None

    def shifted(self, dx: int, dy: int) -> "BBox":
        return BBox(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    @property
    def slices(self) -> tuple[slice, slice]:
        """Row and column slices that select this box from a 2D array."""
        return slice(self.y0, self.y1), slice(self.x0, self.x1)


def tight_bbox(m: np.ndarray) -> BBox | None:
    """Smallest box enclosing the set pixels, or None for an empty mask."""
    m = _mask_array(m)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(m.any(axis=0))
    return BBox(int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1)


def expand_bbox(b: BBox, factor: float, image_h: int, image_w: int) -> BBox:
    """Scale a box about its center, round outward, clamp to the image.

    The result always encloses ``b`` (before clamping can only grow) and
    never exits [0, image_w) x [0, image_h).
    """
    if not factor >= 1.0:  # NaN too
        raise DataValidationError(f"expansion factor must be >= 1, got {factor}")
    cx = (b.x0 + b.x1) / 2.0
    cy = (b.y0 + b.y1) / 2.0
    half_w = (b.x1 - b.x0) * factor / 2.0
    half_h = (b.y1 - b.y0) * factor / 2.0
    # clamp before rounding, so a huge factor's infinite edges never round
    x0 = math.floor(max(0.0, cx - half_w))
    y0 = math.floor(max(0.0, cy - half_h))
    x1 = math.ceil(min(image_w, cx + half_w))
    y1 = math.ceil(min(image_h, cy + half_h))
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


def crop(grid: LogitMap, b: BBox) -> LogitMap:
    """Sub-grid of a LogitMap covered by ``b``."""
    _check_in_bounds(b, grid.height, grid.width)
    return LogitMap(grid.data[b.y0:b.y1, b.x0:b.x1, :])


@dataclass(frozen=True)
class MaskInstance:
    """One predicted or ground-truth instance of a component.

    The constructor, which ``dataclasses.replace`` runs too, checks every
    field.  The runs in ``mask`` are the only copy of the mask it holds:
    ``area`` and the check that ``bbox`` holds every set pixel come from
    them, with nothing decoded; ``window`` decodes the bits over any box and
    ``iou`` counts the IoU with another instance from the two masks' runs.
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
        if not (0 < self.scale < math.inf):
            raise DataValidationError(
                f"scale must be positive and finite, got {self.scale}")
        if self.bbox.x1 > self.mask.width or self.bbox.y1 > self.mask.height:
            raise DataValidationError(
                f"bbox {self.bbox} exceeds the {self.mask.height}x"
                f"{self.mask.width} mask grid")
        bounds = self.mask.bounds
        area = sum((bounds[2::2] - bounds[1:-1:2]).tolist())
        extent = _run_extent(self.mask) if area else self.bbox
        if self.bbox.union(extent) != self.bbox:
            raise DataValidationError(
                f"bbox {self.bbox} does not enclose the mask extent {extent}")
        self.__dict__["area"] = area

    def window(self, box: BBox) -> np.ndarray:
        """This instance's bits over ``box``, empty outside ``bbox``."""
        return rle_decode(self.mask, box)

    def iou(self, other: "MaskInstance") -> float:
        """IoU with ``other`` on the same grid (``ShapeError`` otherwise),
        its shared pixels counted from the two masks' runs; 0.0 for
        disjoint boxes or two empty masks."""
        grids = (self.mask.height, self.mask.width), (other.mask.height,
                                                      other.mask.width)
        if grids[0] != grids[1]:
            raise ShapeError(f"mask grids {grids[0]} vs {grids[1]} mismatch")
        if self.bbox.intersection(other.bbox) is None:
            return 0.0
        inter = int(_shared_pixels([self], [other])[2][0])
        union = self.area + other.area - inter
        return inter / union if union else 0.0


def _shared_pixels(preds: Sequence[MaskInstance], gts: Sequence[MaskInstance]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, n)`` for every pair of ``preds[i]`` and ``gts[j]``, all on
    one grid, whose boxes overlap, ordered by i, then j: ``n`` is the count
    of set pixels the two masks share, taken from their runs, with nothing
    decoded.

    The ground truths' bounds are laid end to end, the j-th shifted by j
    grids, with the count of set pixels before each bound.  A prediction's
    one-run [s, e), shifted by j grids, shares with ground truth j that
    count at e less the count at s, and one ``searchsorted`` reads every
    count.  The numpy calls are a fixed number per stretch of ground truths
    whose shifted pixels stay inside int64: one stretch on any grid of
    fewer than 2**63 / len(gts) pixels.
    """
    empty = np.zeros(0, dtype=np.int64)
    if not preds or not gts:
        return empty, empty, empty
    pb, gb = (np.array([(m.bbox.x0, m.bbox.y0, m.bbox.x1, m.bbox.y1)
                        for m in side], dtype=np.int64) for side in (preds, gts))
    pi, gj = ((pb[:, None, 0] < gb[:, 2]) & (gb[:, 0] < pb[:, None, 2])
              & (pb[:, None, 1] < gb[:, 3]) & (gb[:, 1] < pb[:, None, 3])
              ).nonzero()
    # every prediction's one-runs [start, end), end to end
    starts = np.concatenate([p.mask.bounds[1:-1:2] for p in preds])
    ends = np.concatenate([p.mask.bounds[2::2] for p in preds])
    runs = np.array([(p.mask.bounds.size - 1) // 2 for p in preds],
                    dtype=np.int64)
    first = runs.cumsum() - runs
    pixels = preds[0].mask.height * preds[0].mask.width
    step = (2 ** 63 - 1) // pixels
    shared = np.zeros(pi.size, dtype=np.int64)
    for a in range(0, len(gts), step):
        part = gts[a:a + step]
        k, = ((gj >= a) & (gj < a + step)).nonzero()
        sizes = np.array([g.mask.bounds.size for g in part], dtype=np.int64)
        bounds = (np.concatenate([g.mask.bounds for g in part])
                  + np.repeat(np.arange(len(part)) * pixels, sizes))
        # a one-run starts at each odd-numbered bound of a mask; a mask's
        # last bound is the next one's first, so nothing lies between them
        odd = (np.arange(bounds.size) - np.repeat(sizes.cumsum() - sizes,
                                                  sizes)) & 1
        before = np.concatenate(
            ([0], ((bounds[1:] - bounds[:-1]) * odd[:-1]).cumsum()))
        # each pair's prediction runs, shifted onto its ground truth
        n = runs[pi[k]]
        end = n.cumsum()
        at, count = end - n, int(end[-1]) if end.size else 0
        run = np.arange(count) + np.repeat(first[pi[k]] - at, n)
        lift = np.repeat((gj[k] - a) * pixels, n)
        q = np.concatenate((starts[run] + lift, ends[run] + lift))
        e = bounds.searchsorted(q, side="right") - 1
        seen = before[e] + odd[e] * (q - bounds[e])  # set pixels before q
        per = np.concatenate(([0], (seen[count:] - seen[:count]).cumsum()))
        shared[k] = per[end] - per[at]
    return pi, gj, shared
