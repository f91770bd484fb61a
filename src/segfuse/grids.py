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
- Resampling and every weighted fusion (``fusion.weighted_average``: the
  logit ensembles, the frame/object blend and the scale fold) run per band
  of ``_BAND_ROWS`` output rows, each written into one preallocated output,
  so no whole-frame temporary is built.  Every element sees the same
  operations in the same order, so the band height changes no byte.
- One lerp core, ``_lerp``, builds any rows x cols window of a resample
  from the taps of those rows and columns; ``bilinear_resize`` runs it over
  the whole output.  A window can leave out an output pixel whose four
  taps read zeros: such a pixel lerps to exactly +0.0.
- A same-size resample is that lerp at t = 0, ``v + (w - v) * 0``, which
  returns every value bit for bit except a -0.0, which may become +0.0.
  So rows that hold no -0.0 (``_negative_zeros``, counted band by band)
  are their own resample and are not lerped; the input grid itself comes
  back when the lerp changes no bit.
- Reductions across the channels of a row (sum, max, argmax) run as one
  elementwise pass per column, left to right, never as numpy's per-row
  reduction: a sum adds the columns in ascending index order, not
  pairwise, so results are bit-reproducible run to run.
- Softmax subtracts the row maximum before exponentiating.
- Argmax ties resolve to the lowest channel index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataValidationError, ShapeError

# output rows per band of bilinear_resize and fusion.weighted_average
_BAND_ROWS = 64


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Grid:
    """The invariants both grid types hold: positive dimensions, float32
    C-ordered data of exactly ``shape``, finite values, frozen data, and for
    an ``AttentionMap`` values in [0, 1].  Each subclass is a frozen
    dataclass whose fields are its dimensions in axis order, then ``data``."""

    _unit = False  # values must lie in [0, 1]

    def __post_init__(self) -> None:
        # own a copy: freezing a caller's array in place would be a surprise
        self._freeze(np.array(self.data, dtype=np.float32, order="C"))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(getattr(self, f.name) for f in fields(self)[:-1])

    def _freeze(self, arr: np.ndarray, checked: bool = False) -> None:
        kind = type(self).__name__
        if min(self.shape) < 1:
            raise DataValidationError(f"{kind} dimensions must be positive")
        if arr.shape != self.shape:
            raise ShapeError(f"{kind} data shape {arr.shape} != {self.shape}")
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
        dims = fields(cls)[:-1]
        if arr.ndim != len(dims):
            raise ShapeError(f"expected {len(dims)}D array, got ndim={arr.ndim}")
        if (arr.dtype != np.float32 or not arr.flags.c_contiguous
                or not arr.flags.owndata):
            raise DataValidationError(
                f"{cls.__name__} can only own a C-contiguous float32 array")
        grid = object.__new__(cls)
        for f, n in zip(dims, arr.shape):
            object.__setattr__(grid, f.name, n)
        grid._freeze(arr, checked)
        return grid


@dataclass(frozen=True)
class LogitMap(_Grid):
    """An immutable height x width x channels grid of per-class scores."""

    height: int
    width: int
    channels: int
    data: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "LogitMap":
        a = np.asarray(arr, dtype=np.float32)
        if a.ndim == 2:
            a = a[:, :, None]
        if a.ndim != 3:
            raise ShapeError(f"expected 2D or 3D array, got ndim={a.ndim}")
        return cls(*a.shape, a)

    @classmethod
    def full(cls, height: int, width: int, channels: int, value: float) -> "LogitMap":
        return cls._own(np.full((height, width, channels), value, dtype=np.float32))

    @classmethod
    def zeros(cls, height: int, width: int, channels: int) -> "LogitMap":
        return cls.full(height, width, channels, 0.0)


@dataclass(frozen=True)
class AttentionMap(_Grid):
    """An immutable height x width grid of blend gates in [0, 1]."""

    height: int
    width: int
    data: np.ndarray

    _unit = True

    @classmethod
    def from_array(cls, arr) -> "AttentionMap":
        a = np.asarray(arr, dtype=np.float32)
        if a.ndim != 2:
            raise ShapeError(f"expected 2D array, got ndim={a.ndim}")
        return cls(*a.shape, a)

    @classmethod
    def full(cls, height: int, width: int, value: float) -> "AttentionMap":
        return cls._own(np.full((height, width), value, dtype=np.float32))


def bilinear_resize(a: LogitMap, out_h: int, out_w: int) -> LogitMap:
    """Per-channel bilinear resample to (out_h, out_w).

    Half-pixel-center mapping with clamp-to-edge; lerp form evaluated in
    float64, rounded once to float32.  A constant grid resamples to exactly
    that constant at every output pixel.  On equal grids ``a`` itself comes
    back when the resample changes no bit.
    """
    if out_h < 1 or out_w < 1:
        raise DataValidationError("output dimensions must be positive")
    same = (out_h, out_w) == (a.height, a.width)
    zeros = _negative_zeros(a.data) if same else 0
    if same and not zeros:
        return a
    out = _lerp(a.data, _taps(a.height, out_h), _taps(a.width, out_w))
    # at t = 0 the lerp can only turn a -0.0 into +0.0
    return a if same and _negative_zeros(out) == zeros else LogitMap._own(out)


def _negative_zeros(rows: np.ndarray) -> int:
    """How many -0.0 ``rows`` hold, counted a band of ``_BAND_ROWS`` rows at
    a time."""
    bits = rows.view(np.uint32)
    return sum(int(np.count_nonzero(bits[r0:r0 + _BAND_ROWS] == 0x80000000))
               for r0 in range(0, len(bits), _BAND_ROWS))


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
    for r0 in range(0, len(dy), _BAND_ROWS):
        band = slice(r0, r0 + _BAND_ROWS)
        n = len(dy[band])
        # x pass over only the source rows this band reads, then y pass
        rows, pick = np.unique(np.concatenate([y0[band], y1[band]]),
                               return_inverse=True)
        read = src[rows].astype(np.float64)
        left = read[:, x0]
        xl = left + (read[:, x1] - left) * dx[None, :, None]
        top = xl[pick[:n]]
        # rounded once, to float32, as it is written into the output
        out[band] = top + (xl[pick[n:]] - top) * dy[band, None, None]
    return out


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
