"""Coarse-to-fine fusion over an increasing scale chain.

Each step upsamples the running coarse result and its gate to the next
finer grid and blends: ``U(lower) * U(alpha) + finer * (1 - U(alpha))``.
The fold starts at the coarsest scale; the finest level's gate is never
consumed.

One row core, ``_fold_rows``, blends some upsampled rows under their
clamped gate in ``fusion.weighted_average``.  The pipeline's band pass
folds each band it builds through it, upsampled by its streaming
resampler; ``run_inference_chain``, the whole-frame form of that fold,
kept as library API and as a test oracle, lerps each band through
``grids._lerp``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataValidationError, ShapeError
from .fusion import weighted_average
from .grids import AttentionMap, LogitMap, _band_rows, _lerp, _taps

import numpy as np


def _fold_rows(up: np.ndarray, gate: np.ndarray,
               finer: np.ndarray) -> np.ndarray:
    """Some rows of the fold of a coarser level into a finer grid:
    ``finer`` holds those rows of the finer level, ``up`` and ``gate``
    (rows x width x 1) the same rows of the coarser level and of its gate,
    upsampled onto the finer grid.  The gate is clamped to [0, 1]."""
    gate = np.minimum(np.maximum(gate, np.float32(0.0)), np.float32(1.0))
    return weighted_average([up, finer], [gate, np.float32(1) - gate])


def run_inference_chain(
        levels: Sequence[tuple[LogitMap, AttentionMap | None]]) -> LogitMap:
    """Fold ``(logits, alpha)`` levels, coarsest first, into the finest
    grid, one band of ``grids._band_rows`` rows of its width at a time.

    Every level but the finest needs an alpha map on its own grid and the
    next level's channel count; every level is checked before any is
    folded.  A single level returns its logits unchanged; k levels perform
    exactly k - 1 folds.
    """
    if not levels:
        raise DataValidationError("scale chain cannot be empty")
    for k, ((lower, alpha), (finer, _)) in enumerate(zip(levels, levels[1:])):
        if alpha is None:
            raise DataValidationError(
                f"scale level {k} needs an alpha map to fuse upward")
        if alpha.shape != lower.shape[:2]:
            raise ShapeError(
                f"alpha grid {alpha.shape} != logits grid {lower.shape[:2]}")
        if lower.channels != finer.channels:
            raise ShapeError(
                f"channel counts differ: {lower.channels} vs {finer.channels}")
    acc = levels[0][0]
    for (_, alpha), (finer, _) in zip(levels, levels[1:]):
        ys, xs = _taps(acc.height, finer.height), _taps(acc.width, finer.width)
        out = np.empty_like(finer.data)
        step = _band_rows(finer.width)
        for r0 in range(0, finer.height, step):
            band = slice(r0, r0 + step)
            rows = [t[band] for t in ys]
            out[band] = _fold_rows(_lerp(acc.data, rows, xs),
                                   _lerp(alpha.data[:, :, None], rows, xs),
                                   finer.data[band])
        acc = LogitMap._own(out)
    return acc
