"""Shared helpers for building tiny fixtures in tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from segfuse.fusion import fuse_masks
from segfuse.grids import LogitMap
from segfuse.masks import BBox, MaskInstance, rle_encode, tight_bbox


def make_instance(bits, component="shell", object_id=0, score=0.9,
                  model_id="m0", scale=1.0, uid=None, bbox=None):
    """MaskInstance from a 2D 0/1 array with an auto-derived tight box."""
    mask = np.asarray(bits, dtype=bool)
    box = bbox if bbox is not None else tight_bbox(mask)
    if box is None:
        box = BBox(0, 0, 1, 1)
    return MaskInstance(mask=rle_encode(mask), bbox=box, component=component,
                        object_id=object_id, score=score, model_id=model_id,
                        scale=scale, uid=uid)


def fused_frame(members, weights):
    """fuse_masks's segments spread over the full frame."""
    bounds, soft = fuse_masks(members, weights)
    mask = members[0].mask
    return np.repeat(soft, bounds[1:] - bounds[:-1]).reshape(mask.height,
                                                             mask.width)


def block_mask(h, w, y0, y1, x0, x1):
    bits = np.zeros((h, w), dtype=bool)
    bits[y0:y1, x0:x1] = True
    return bits


def signed_zeros(rng, a, share=0.5):
    """A copy of ``a`` with about ``share`` of its entries set to +0.0 or
    -0.0 at random: the ties on which ``np.minimum``/``np.maximum`` and
    Python's ``min``/``max`` keep different zeros."""
    out = np.array(a)
    pick = rng.random(out.shape) < share
    out[pick] = rng.choice(np.array([0.0, -0.0], out.dtype), size=pick.sum())
    return out


def traced_peak_ratio(fn, *args):
    """Traced allocation peak of ``fn(*args)`` above what was held before
    the call, as a multiple of the size of the grid it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = out.data if isinstance(out, LogitMap) else out
    return (peak - base) / data.nbytes


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
