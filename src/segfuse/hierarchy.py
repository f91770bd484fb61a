"""Coarse-to-fine fusion over an increasing scale chain.

Each step upsamples the running coarse result and its gate to the next
finer grid and blends: ``U(lower) * U(alpha) + finer * (1 - U(alpha))``.
The fold starts at the coarsest scale; the finest level's gate is never
consumed.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataValidationError, ShapeError
from .fusion import weighted_average
from .grids import AttentionMap, LogitMap, bilinear_resize

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
    up = bilinear_resize(lower, higher.height, higher.width)
    alpha_src = LogitMap(alpha.height, alpha.width, 1, alpha.data[:, :, None])
    # rebound, so the unclamped frame is freed before the blend
    gate = bilinear_resize(alpha_src, higher.height, higher.width).data
    gate = np.minimum(np.maximum(gate, np.float32(0.0)), np.float32(1.0))
    return LogitMap._own(weighted_average([up.data, higher.data],
                                          [gate, np.float32(1) - gate]))


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
