"""Difference-driven attention between whole-frame and per-object predictions.

The gate is built from the absolute difference of aligned feature matrices:
softmax over each row of the negated, f-scaled differences, then an explicit
row normalization.  The softmax rows already sum to 1 up to rounding, but
the division still changes a bit of about 3 rows in 10 (random 5-channel
rows, numpy 2.4.6), so dropping it would move output bytes.
The whole-frame/per-object blend multiplies the frame by the gate and the
summed, pasted per-object maps by its complement.  It checks every patch
first, then pastes and blends one band of ``grids._band_rows`` rows of
the frame's width at a time through one row core, ``_blend_rows``, so the
summed maps never take a whole frame.  The pipeline's band pass runs the
same row core on the bands it builds, so ``fuse_global_local`` is the
whole-frame form of the blend it does, kept as library API and as a test
oracle.  The row core takes each object's map as planes, one 2-D grid per
channel over a box: ``fuse_global_local`` gives one per channel over each
patch's whole box, the pipeline one per component over its support.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import check_attention_factor
from .errors import DataValidationError, DegenerateAttentionError, ShapeError
from .fusion import weighted_average
from .grids import (AttentionMap, LogitMap, _band_rows, _row_sums,
                    softmax_rows)
from .masks import BBox, _check_in_bounds


def difference_matrix(global_feat, local_feat) -> np.ndarray:
    """Entrywise absolute difference of two aligned feature matrices."""
    g = np.asarray(global_feat, dtype=np.float64)
    l = np.asarray(local_feat, dtype=np.float64)
    if g.shape != l.shape:
        raise ShapeError(f"feature shapes {g.shape} vs {l.shape} mismatch")
    if g.ndim != 2:
        raise ShapeError(f"expected 2D matrices, got ndim={g.ndim}")
    if not (np.isfinite(g).all() and np.isfinite(l).all()):
        raise DataValidationError("feature matrices must be finite")
    return np.abs(g - l)


def local_attention(d: np.ndarray, f: float) -> np.ndarray:
    """Row-stochastic attention from a difference matrix: softmax of -f*d.

    ``f`` is the sharpness factor; larger is peakier.  It and ``d`` are
    checked before any arithmetic, ``f`` by the rule ``PipelineConfig``
    applies to its ``attention_factor``.
    """
    check_attention_factor(f, "attention factor f")
    a = np.asarray(d, dtype=np.float64)
    # f·max(d) in Python floats, whose overflow is a silent inf, no warning
    if not (np.isfinite(a).all()
            and np.isfinite(float(f) * float(a.max(initial=0.0)))):
        raise DataValidationError(
            "difference matrix d must be finite, and so must f·max(d)")
    if a.size and a.min() < 0:
        raise DataValidationError("difference matrix entries must be nonnegative")
    return softmax_rows(-f * a)


def row_normalize(a) -> np.ndarray:
    """Divide each row by its sum (ascending-order accumulation).  A NaN,
    an inf, or an entry past float64's largest value over twice the row
    length, where a row sum could overflow, raises before any arithmetic."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected 2D matrix, got ndim={m.ndim}")
    if m.size and not m.min() >= 0:  # NaN too
        raise DataValidationError("attention entries must be nonnegative")
    # 2·n·max(m) bounds every rounded row sum; Python floats overflow unwarned
    if m.size and not np.isfinite(2.0 * m.shape[1] * float(m.max())):
        raise DataValidationError("attention row sums must be finite")
    sums = _row_sums(m)
    if (sums == 0).any():
        raise DegenerateAttentionError("cannot normalize an all-zero attention row")
    return m / sums


def attention_to_map(patches: Sequence[tuple[np.ndarray, BBox]], height: int,
                     width: int, neutral: float = 0.5) -> AttentionMap:
    """Assemble per-region attention values into one full-frame gate.

    Each patch matrix is a spatial grid of its region's pixel extent and is
    placed there; pixels outside every region get the neutral value.  Later
    patches overwrite earlier ones where regions overlap.
    """
    if not (0.0 <= neutral <= 1.0):
        raise DataValidationError(f"neutral attention {neutral} outside [0, 1]")
    canvas = np.full((height, width), neutral, dtype=np.float32)
    for matrix, region in patches:
        m = np.asarray(matrix, dtype=np.float64)
        _check_in_bounds(region, height, width)
        if m.shape != (region.height, region.width):
            raise ShapeError(
                f"attention patch {m.shape} does not fit region "
                f"{(region.height, region.width)}")
        if not np.isfinite(m).all():
            raise DataValidationError("attention patch must be finite")
        if m.min() < 0.0 or m.max() > 1.0:
            raise DataValidationError("attention patch values must lie in [0, 1]")
        canvas[region.y0:region.y1, region.x0:region.x1] = m.astype(np.float32)
    return AttentionMap._own(canvas)


def fuse_global_local(global_logits: LogitMap,
                      local_logits: Sequence[tuple[LogitMap, BBox]],
                      beta: AttentionMap) -> LogitMap:
    """Blend whole-frame logits with summed per-object logits under ``beta``.

    Each local map is pasted into a zero frame at its box; the pasted maps
    are summed in the given order, and the output is
    ``global * beta + local_sum * (1 - beta)`` in float32, clamped per pixel
    to the envelope of the two by :func:`segfuse.fusion.weighted_average`.
    Every patch is checked before any pixel is blended; each is then taken
    as one plane per channel over its whole box, and the sum and the blend
    are built one band of rows at a time, which changes no byte.
    """
    if (global_logits.height, global_logits.width) != (beta.height, beta.width):
        raise ShapeError(
            f"frame {global_logits.shape[:2]} vs gate {beta.shape} mismatch")
    height, width, channels = global_logits.shape
    for patch, box in local_logits:
        _check_in_bounds(box, height, width)
        if (patch.height, patch.width) != (box.height, box.width):
            raise ShapeError(
                f"local patch {patch.shape[:2]} does not fit box "
                f"{(box.height, box.width)}")
        if patch.channels != channels:
            raise ShapeError(
                f"local channels {patch.channels} != frame channels {channels}")
    objects = [(box, [(ch, box, patch.data[:, :, ch]) for ch in range(channels)])
               for patch, box in local_logits]
    out = np.empty_like(global_logits.data)
    step = _band_rows(width)
    for r0 in range(0, height, step):
        band = slice(r0, r0 + step)
        out[band] = _blend_rows(global_logits.data[band], r0, objects,
                                beta.data[band, :, None])
    return LogitMap._own(out)


def _add_planes(out: np.ndarray, window: BBox, planes) -> None:
    """Add each of ``planes``, ``(channel, box, plane)`` with ``plane`` a
    2-D grid over ``box``, into that channel of ``out``, the rows x cols x
    channels grid over ``window``, where the two boxes overlap."""
    for ch, box, plane in planes:
        cut = box.intersection(window)
        if cut is not None:
            out[cut.y0 - window.y0:cut.y1 - window.y0,
                cut.x0 - window.x0:cut.x1 - window.x0, ch] += \
                plane[cut.y0 - box.y0:cut.y1 - box.y0,
                      cut.x0 - box.x0:cut.x1 - box.x0]


def _blend_rows(frame: np.ndarray, r0: int, objects, gate: np.ndarray
                ) -> np.ndarray:
    """Rows [r0, r0 + len(frame)) of the blend, from ``frame``, those rows of
    the whole-frame logits, and ``gate``, their beta as rows x width x 1.
    ``objects`` holds each object's box inside the frame and its local map
    as planes, ``(channel, box, plane)``; the planes are added over these
    rows alone, channel by channel in object order, into zeros."""
    band = BBox(0, r0, frame.shape[1], r0 + len(frame))
    local_sum = np.zeros_like(frame)
    for _, planes in objects:
        _add_planes(local_sum, band, planes)
    return weighted_average([frame, local_sum], [gate, np.float32(1) - gate])
