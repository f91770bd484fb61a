"""Dense grid types and the pixel-wise primitives everything else composes.

Numerical conventions, fixed here and treated as normative by the rest of
the package:

- Grid payloads are float32, row-major, channel-minor, immutable once
  constructed.  (float32 because the on-disk tensor format is float32 and
  the save/load roundtrip must be lossless.)
- Resampling uses half-pixel-center coordinates, ``src = (dst + 0.5) *
  in/out - 0.5``, with clamp-to-edge at the borders.  Interpolation is
  evaluated in float64 in lerp form, ``v0 + (v1 - v0) * t``, which is exact
  on constant grids, then rounded once to float32.  It runs in two
  separable passes, along x for each source row some output row reads,
  then along y between two such rows: the same operations in the same
  order as lerping the four corners of each output pixel.
- Every loop over the rows of a grid runs per band of ``_band_rows(width)``
  rows, as many as hold ``_BAND_PIXELS`` pixels of the width it walks (at
  least one), so a band's temporaries do not grow with the width.
  Resampling and every weighted fusion (``fusion.weighted_average``: the
  logit ensembles, the frame/object blend and the scale fold) write each
  band into one preallocated output, so no whole-frame temporary is built.
  Every element sees the same operations in the same order, so the band
  height changes no byte.
- One lerp core, ``_lerp``, builds any rows x cols window of a resample
  from the taps of those rows and columns.  ``_resample_rows`` streams every
  whole level through it (``bilinear_resize``, ``run_inference_chain``, the
  pipeline's fold and final resize); a per-object window can leave out an
  output pixel whose four taps read zeros: such a pixel lerps to +0.0.
- A same-size resample is that lerp at t = 0, ``v + (w - v) * 0``, which
  returns every value bit for bit except a -0.0, which may become +0.0.
  So in ``_resample_rows`` rows that hold no -0.0 (``_negative_zeros``)
  are their own resample and are not lerped; ``bilinear_resize`` returns
  the input grid itself when the lerp changes no bit.
- Reductions across the channels of a row (sum, max, argmax) run as one
  elementwise pass per column, left to right, never as numpy's per-row
  reduction: a sum adds the columns in ascending index order, not
  pairwise, so results are bit-reproducible run to run.
- Softmax subtracts the row maximum before exponentiating.
- Argmax ties resolve to the lowest channel index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, ShapeError

# pixels per band of every row loop: 64 rows of a 128-wide grid
_BAND_PIXELS = 8192


def _band_rows(width: int) -> int:
    """Rows per band of a loop over a grid ``width`` pixels wide (a window
    of a resample may be 0 wide)."""
    return max(1, _BAND_PIXELS // max(width, 1))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Grid:
    """The invariants both grid types hold: float32 C-ordered data of the
    class's rank, positive dimensions, finite values, frozen data, and for
    an ``AttentionMap`` values in [0, 1].  Each subclass is a frozen
    dataclass whose one field is ``data``; its sizes are read from it."""

    _ndim = 3  # rank of ``data``
    _unit = False  # values must lie in [0, 1]

    def __post_init__(self) -> None:
        # own a copy: freezing a caller's array in place would be a surprise
        self._freeze(np.array(self.data, dtype=np.float32, order="C"))

    shape = property(lambda self: self.data.shape)
    height = property(lambda self: self.data.shape[0])
    width = property(lambda self: self.data.shape[1])

    def _freeze(self, arr: np.ndarray, checked: bool = False) -> None:
        kind = type(self).__name__
        if arr.ndim != self._ndim:
            raise ShapeError(f"expected {self._ndim}D array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise DataValidationError(f"{kind} dimensions must be positive")
        if not checked:
            if not np.isfinite(arr).all():
                raise DataValidationError(f"{kind} contains non-finite values")
            if self._unit and (arr.min() < 0.0 or arr.max() > 1.0):
                raise DataValidationError(f"{kind} values must lie in [0, 1]")
        object.__setattr__(self, "data", _frozen(arr))

    @classmethod
    def _own(cls, arr: np.ndarray, *, checked: bool = False):
        """Wrap a float32 array the caller has just built and nobody else
        holds, freezing it in place instead of copying it.  Its values are
        checked unless ``checked=True`` says the caller has already checked
        every one (a tensor load does, chunk by chunk as it reads)."""
        if (arr.dtype != np.float32 or not arr.flags.c_contiguous
                or not arr.flags.owndata):
            raise DataValidationError(
                f"{cls.__name__} can only own a C-contiguous float32 array")
        grid = object.__new__(cls)
        grid._freeze(arr, checked)
        return grid


def _check_sizes(kind: str, sizes: tuple) -> None:
    """Refuse grid sizes that are not integers or are below 1, before numpy
    sees them."""
    if not all(isinstance(n, (int, np.integer)) for n in sizes):
        raise DataValidationError(f"{kind} dimensions must be integers, got {sizes}")
    if min(sizes) < 1:
        raise DataValidationError(f"{kind} dimensions must be positive")


@dataclass(frozen=True)
class LogitMap(_Grid):
    """An immutable height x width x channels grid of per-class scores."""

    data: np.ndarray
    channels = property(lambda self: self.data.shape[2])

    @classmethod
    def from_array(cls, arr) -> "LogitMap":
        a = np.asarray(arr, dtype=np.float32)
        if a.ndim == 2:
            a = a[:, :, None]
        if a.ndim != 3:
            raise ShapeError(f"expected 2D or 3D array, got ndim={a.ndim}")
        return cls(a)

    @classmethod
    def full(cls, height: int, width: int, channels: int, value: float) -> "LogitMap":
        _check_sizes(cls.__name__, (height, width, channels))
        return cls._own(np.full((height, width, channels), value, dtype=np.float32))

    @classmethod
    def zeros(cls, height: int, width: int, channels: int) -> "LogitMap":
        return cls.full(height, width, channels, 0.0)


@dataclass(frozen=True)
class AttentionMap(_Grid):
    """An immutable height x width grid of blend gates in [0, 1]."""

    data: np.ndarray

    _ndim = 2
    _unit = True

    @classmethod
    def from_array(cls, arr) -> "AttentionMap":
        return cls(arr)

    @classmethod
    def full(cls, height: int, width: int, value: float) -> "AttentionMap":
        _check_sizes(cls.__name__, (height, width))
        return cls._own(np.full((height, width), value, dtype=np.float32))


def bilinear_resize(a: LogitMap, out_h: int, out_w: int) -> LogitMap:
    """Per-channel bilinear resample to (out_h, out_w).

    Half-pixel-center mapping with clamp-to-edge; lerp form evaluated in
    float64, rounded once to float32.  A constant grid resamples to exactly
    that constant at every output pixel.  On equal grids ``a`` itself comes
    back when the resample changes no bit.
    """
    _check_sizes("output", (out_h, out_w))
    same = (out_h, out_w) == (a.height, a.width)
    zeros = _negative_zeros(a.data) if same else 0
    if same and not zeros:
        return a
    out = np.empty((out_h, out_w, a.channels), dtype=np.float32)
    for q0, rows in _resample_rows([(0, a.data)], a.shape[:2], out_h, out_w):
        out[q0:q0 + len(rows)] = rows
    # at t = 0 the lerp can only turn a -0.0 into +0.0
    return a if same and _negative_zeros(out) == zeros else LogitMap._own(out)


def _negative_zeros(rows: np.ndarray) -> int:
    """How many -0.0 ``rows`` hold, counted a band of rows at a time."""
    bits = rows.view(np.uint32)
    step = _band_rows(bits.shape[1])
    return sum(int(np.count_nonzero(bits[r0:r0 + step] == 0x80000000))
               for r0 in range(0, len(bits), step))


def _taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each output index's two clamped source taps on an axis of ``n_in``
    resampled to ``n_out``, and its lerp weight; both taps are
    nondecreasing in the output index."""
    s = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(s)
    t = s - i0
    i0 = i0.astype(np.int64)
    return np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), t


def _lerp(src: np.ndarray, ys, xs) -> np.ndarray:
    """The rows x cols x channels float32 window of a resample of ``src``
    whose rows have the ``_taps`` ``ys`` and whose columns have ``xs``: the
    lerp core of every bilinear resample."""
    y0, y1, dy = ys
    x0, x1, dx = xs
    out = np.empty((len(dy), len(dx), src.shape[2]), dtype=np.float32)
    step = _band_rows(len(dx))
    for r0 in range(0, len(dy), step):
        band = slice(r0, r0 + step)
        n = len(dy[band])
        # x pass over only the source rows this band reads, then y pass,
        # each in place in the buffers its taps were gathered into
        rows, pick = np.unique(np.concatenate([y0[band], y1[band]]),
                               return_inverse=True)
        read = np.take(src, rows, axis=0).astype(np.float64)
        xl, right = np.take(read, x0, axis=1), np.take(read, x1, axis=1)
        del read
        np.subtract(right, xl, out=right)
        np.multiply(right, dx[:, None], out=right)
        np.add(xl, right, out=xl)
        del right
        top, bottom = (np.take(xl, pick[:n], axis=0),
                       np.take(xl, pick[n:], axis=0))
        del xl
        np.subtract(bottom, top, out=bottom)
        np.multiply(bottom, dy[band, None, None], out=bottom)
        # rounded once, to float32, as it is written into the output
        np.add(top, bottom, out=out[band])
    return out


def _resample_rows(bands, shape: tuple[int, int], height: int, width: int):
    """Yield ``(r0, rows)`` for each band of ``_band_rows`` rows of a level
    of ``shape`` resampled to a height x width grid, from ``bands``, the
    level's ``(r0, rows)`` bands in order, of any height: the one resampler
    of every whole level.

    An output band is built once the last level row its ``_taps`` read
    has arrived, and a level band is dropped once no later output row
    reads it.  The tapped rows are lerped, except that on equal grids
    level rows that hold no -0.0 are their own resample and pass on as
    they are."""
    same = shape == (height, width)
    ys, xs = _taps(shape[0], height), _taps(shape[1], width)
    held = []  # (r0, rows) of the level bands a later output row reads
    step = _band_rows(width)
    q0 = 0
    for r0, band in bands:
        held.append((r0, band))
        while q0 < height:
            q1 = min(q0 + step, height)
            lo, hi = ys[0][q0], ys[1][q1 - 1] + 1
            if hi > r0 + len(band):
                break  # a row it taps has not arrived
            keep = same and not _negative_zeros(_held_rows(held, q0, q1))
            # yielded as it is built, so that no local holds it while the
            # next band is built
            yield q0, (_held_rows(held, q0, q1) if keep else
                       _lerp(_held_rows(held, lo, hi),
                             [ys[0][q0:q1] - lo, ys[1][q0:q1] - lo,
                              ys[2][q0:q1]], xs))
            q0 = q1
            first = ys[0][q0] if q0 < height else shape[0]
            held = [(b0, b) for b0, b in held if b0 + len(b) > first]


def _held_rows(held, lo: int, hi: int) -> np.ndarray:
    """Level rows [lo, hi) from ``held``'s bands: a band itself when it is
    all of them, a view of one band, or the pieces of several joined."""
    parts = [b if lo <= b0 and b0 + len(b) <= hi else b[max(lo - b0, 0):hi - b0]
             for b0, b in held if b0 < hi and lo < b0 + len(b)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each row of a 2-D matrix as a column, added left to right."""
    # one elementwise pass per column: strictly sequential, never pairwise
    s = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        s += a[:, j]
    return s[:, None]


def _row_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each row of a finite 2-D matrix as a column."""
    m = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    return m[:, None]


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax of a 2D float64 matrix, with row-max subtraction."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected 2D matrix, got ndim={a.ndim}")
    if a.shape[1] == 0:
        raise DataValidationError("softmax of an empty row is undefined")
    if not np.isfinite(a).all():
        raise DataValidationError("softmax input must be finite")
    e = np.exp(a - _row_max(a))
    return e / _row_sums(e)


def argmax_channel(a: LogitMap) -> np.ndarray:
    """Per-pixel index of the highest-scoring channel (lowest index on ties)."""
    best = a.data[:, :, 0].copy()
    labels = np.zeros(best.shape, dtype=np.int64)
    for ch in range(1, a.channels):
        col = a.data[:, :, ch]
        # strictly greater: a tie keeps the lower channel
        np.copyto(labels, ch, where=col > best)
        np.maximum(best, col, out=best)
    return labels


def scaled_dim(n: int, scale: float) -> int:
    """Grid size of an axis of length ``n`` rendered at ``scale`` (round half up)."""
    if not math.isfinite(n * scale):
        raise DataValidationError(f"scale {scale} gives no finite grid size")
    return max(1, int(math.floor(n * scale + 0.5)))
