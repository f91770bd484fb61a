"""Coarse-to-fine fusion over an increasing scale chain.

Each step upsamples the running coarse result and its gate to the next
finer grid and blends: ``U(lower) * U(alpha) + finer * (1 - U(alpha))``.
The fold starts at the coarsest scale; the finest level's gate is never
consumed.

One row core, ``_fold_rows``, upsamples both over just the rows it folds,
through ``grids._lerp``, and blends them; ``fuse_adjacent_scales`` runs it
one band of ``_BAND_ROWS`` rows at a time.  The pipeline's band pass folds
each band it builds through the same row core, so ``fuse_adjacent_scales``
and ``run_inference_chain`` are the whole-frame form of its fold, kept as
library API and as test oracles.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataValidationError, ShapeError
from .fusion import weighted_average
from .grids import _BAND_ROWS, AttentionMap, LogitMap, _lerp, _taps

import numpy as np


def fuse_adjacent_scales(lower: LogitMap, alpha: AttentionMap,
                         higher: LogitMap) -> LogitMap:
    """Blend coarser logits into the next finer grid under their upsampled gate."""
    if alpha.shape != lower.shape[:2]:
        raise ShapeError(
            f"alpha grid {alpha.shape} != logits grid {lower.shape[:2]}")
    if lower.channels != higher.channels:
        raise ShapeError(
            f"channel counts differ: {lower.channels} vs {higher.channels}")
    ys, xs = _taps(lower.height, higher.height), _taps(lower.width, higher.width)
    out = np.empty_like(higher.data)
    for r0 in range(0, higher.height, _BAND_ROWS):
        band = slice(r0, r0 + _BAND_ROWS)
        out[band] = _fold_rows(lower, alpha, higher.data[band],
                               [t[band] for t in ys], xs)
    return LogitMap._own(out)


def _fold_rows(lower: LogitMap, alpha: AttentionMap, finer: np.ndarray,
               ys, xs) -> np.ndarray:
    """Some rows of the fold of ``lower``, gated by ``alpha``, into a finer
    grid: ``finer`` holds those rows of the finer level, ``ys`` are their
    ``_taps`` into ``lower``'s rows and ``xs`` the finer grid's column taps.

    ``lower`` and ``alpha`` are upsampled over just those rows, by the
    lerp core of ``bilinear_resize``, on equal grids too."""
    up = _lerp(lower.data, ys, xs)
    gate = _lerp(alpha.data[:, :, None], ys, xs)
    gate = np.minimum(np.maximum(gate, np.float32(0.0)), np.float32(1.0))
    return weighted_average([up, finer], [gate, np.float32(1) - gate])


def run_inference_chain(
        levels: Sequence[tuple[LogitMap, AttentionMap | None]]) -> LogitMap:
    """Left fold of :func:`fuse_adjacent_scales` over ``(logits, alpha)``
    levels from coarsest to finest.

    Every level but the finest needs an alpha map.  A single level returns
    its logits unchanged; k levels perform exactly k - 1 fusions.
    """
    if not levels:
        raise DataValidationError("scale chain cannot be empty")
    acc = levels[0][0]
    for k, ((_, alpha), (finer, _)) in enumerate(zip(levels, levels[1:])):
        if alpha is None:
            raise DataValidationError(
                f"scale level {k} needs an alpha map to fuse upward")
        acc = fuse_adjacent_scales(acc, alpha, finer)
    return acc
