"""Coarse-to-fine fusion over an increasing scale chain.

Each step upsamples the running coarse result and its gate to the next
finer grid and blends: ``U(lower) * U(alpha) + finer * (1 - U(alpha))``.
The fold starts at the coarsest scale; the finest level's gate is never
consumed.

One row core, ``_fold_rows``, blends some upsampled rows under their
clamped gate in ``fusion.weighted_average``, from the coarser rows with
their gate as a last channel, upsampled by ``grids._resample_rows``: the
pipeline's band pass folds each band it builds so, and
``run_inference_chain``, the whole-frame form of that fold, kept as
library API and as a test oracle, feeds it its levels band by band.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataValidationError, ShapeError
from .fusion import weighted_average
from .grids import AttentionMap, LogitMap, _band_rows, _resample_rows

import numpy as np


def _fold_rows(up: np.ndarray, finer: np.ndarray) -> np.ndarray:
    """Some rows of the fold of a coarser level into a finer grid:
    ``finer`` holds those rows of the finer level, ``up`` the same rows of
    the coarser level, upsampled onto the finer grid, with its upsampled
    gate as a last channel.  The gate is clamped to [0, 1]."""
    gate = np.minimum(np.maximum(up[..., -1:], np.float32(0)), np.float32(1))
    return weighted_average([np.ascontiguousarray(up[..., :-1]), finer],
                            [gate, np.float32(1) - gate])


def run_inference_chain(
        levels: Sequence[tuple[LogitMap, AttentionMap | None]]) -> LogitMap:
    """Fold ``(logits, alpha)`` levels, coarsest first, into the finest
    grid, one band of ``grids._band_rows`` rows of its width at a time.

    Every level but the finest needs an alpha map on its own grid and the
    next level's channel count; every level is checked before any is
    folded.  A single level returns its logits unchanged; k levels perform
    exactly k - 1 folds.  A coarser level meets its alpha band by band.
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
        step = _band_rows(acc.width)
        bands = ((r0, np.concatenate((acc.data[r0:r0 + step],
                                      alpha.data[r0:r0 + step, :, None]),
                                     axis=2))
                 for r0 in range(0, acc.height, step))
        out = np.empty_like(finer.data)
        for q0, up in _resample_rows(bands, acc.shape[:2], *finer.shape[:2]):
            out[q0:q0 + len(up)] = _fold_rows(up, finer.data[q0:q0 + len(up)])
        acc = LogitMap._own(out)
    return acc
