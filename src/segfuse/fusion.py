"""Weighted mask and logit fusion across models.

Weights are normalized AP fractions, w_i = norm_ap_i / sum_j norm_ap_j.
All weighted sums accumulate in ascending model id order, starting from the
first model's term, and the result is clamped per pixel to the envelope of
its operands so the convex-combination contract holds exactly in floating
point (identical inputs fuse to themselves bitwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataValidationError, ShapeError
from .grids import LogitMap, _band_rows, _frozen
from .masks import MaskInstance
from .metrics import ApTable, normalize_ap

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FusionWeights:
    """Per-model fusion coefficients for one group, ascending model id."""

    group_key: object
    weights: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise DataValidationError("FusionWeights cannot be empty")
        models = [m for m, _ in self.weights]
        if models != sorted(models):
            raise DataValidationError("weights must be ordered by ascending model id")
        if len(set(models)) != len(models):
            raise DataValidationError("duplicate model id in weights")
        for m, w in self.weights:
            if not math.isfinite(w):
                raise DataValidationError(f"weight of model {m!r} is {w}, not finite")
        values = [w for _, w in self.weights]
        if any(w < 0 for w in values):
            raise DataValidationError("weights must be nonnegative")
        total = 0.0
        for w in values:
            total += w
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise DataValidationError(f"weights sum to {total}, expected 1")

    @classmethod
    def uniform(cls, models: Sequence[str], group_key: object = None) -> "FusionWeights":
        n = len(models)
        return cls(group_key, tuple((m, 1.0 / n) for m in sorted(models)))

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.weights)


def compute_weights(ap_table: ApTable, group_key, normalization: str = "fraction") -> FusionWeights:
    """Per-model coefficients from one group's APs; higher AP, higher weight.

    Falls back to uniform 1/N when every normalized AP is zero.
    """
    models = ap_table.models
    if not models:
        raise DataValidationError("AP table is empty")
    aps = [ap_table.get(m, group_key) for m in models]
    norm = normalize_ap(aps, normalization)
    total = 0.0
    for a in norm:
        total += a
    if total == 0.0:
        return FusionWeights.uniform(models, group_key)
    return FusionWeights(group_key, tuple((m, a / total) for m, a in zip(models, norm)))


def weighted_average(arrays: Sequence[np.ndarray], coeffs: Sequence) -> np.ndarray:
    """Ascending-order weighted sum of aligned arrays, clamped to the
    per-element envelope of the inputs: the one kernel of every fusion.

    It fills one output of the arrays' dtype per band of
    ``grids._band_rows`` rows of the arrays' width (axis 1).  A coefficient
    with as many axes as the arrays is cut per band; any other (a scalar, a
    per-channel vector) broadcasts as it is.  Each term is formed in the
    promoted type of its array and coefficient, and each partial sum in the
    promoted type of the sum so far and the term, as ``acc + a * w`` would
    form them; the clamped sum is rounded once, as it is written.  A band
    works in place in one accumulator and one term buffer, and builds the
    envelope in its rows of the output, in the arrays' dtype.
    """
    if len(arrays) != len(coeffs) or not arrays:
        raise DataValidationError("arrays and coefficients must pair up, non-empty")
    shape = arrays[0].shape
    if not shape:
        raise ShapeError("cannot fuse rank-0 arrays")
    for a in arrays[1:]:
        if a.shape != shape:
            raise ShapeError(f"array shapes {a.shape} vs {shape} mismatch")
    cut = [np.ndim(w) == len(shape) for w in coeffs]
    out = np.empty(shape, dtype=np.result_type(*arrays))
    kinds = [np.result_type(a, w) for a, w in zip(arrays, coeffs)]
    sums = [kinds[0]]
    for kind in kinds[1:]:
        sums.append(np.result_type(sums[-1], kind))
    step = _band_rows(shape[1] if len(shape) > 1 else 1)
    rows = (min(step, shape[0]), *shape[1:])
    acc_rows = np.empty(rows, dtype=sums[-1])
    term_rows = np.empty(rows, dtype=np.result_type(*kinds))
    for r0 in range(0, shape[0], step):
        dest = out[r0:r0 + step]
        # the last band may be shorter than the buffers
        acc, term = acc_rows[:len(dest)], term_rows[:len(dest)]
        parts = [(a[r0:r0 + step], w[r0:r0 + step] if c else w)
                 for a, w, c in zip(arrays, coeffs, cut)]
        np.multiply(*parts[0], out=acc, dtype=kinds[0])
        for (a, w), kind, total in zip(parts[1:], kinds[1:], sums[1:]):
            np.multiply(a, w, out=term, dtype=kind)
            np.add(acc, term, out=acc, dtype=total)
        # clamp to the envelope, each side built in the output rows
        _extreme(np.minimum, parts, dest)
        np.maximum(acc, dest, out=acc)
        _extreme(np.maximum, parts, dest)
        np.minimum(acc, dest, out=dest)
    return out


def _extreme(ufunc, parts, out: np.ndarray) -> None:
    """Fill ``out`` with the elementwise ``ufunc`` (min or max) of the
    arrays of ``parts``, taken in order."""
    np.copyto(out, parts[0][0])
    for a, _ in parts[1:]:
        ufunc(out, a, out=out)


def fuse_masks(members: Sequence[MaskInstance],
               weights: FusionWeights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted average of one cell's masks on their runs: ``(bounds, soft)``.

    ``bounds`` holds every member's run bounds once, in order, so segment
    k, pixels [bounds[k], bounds[k + 1]) of the row-major frame, lies in
    one run of each member, and ``soft[k]`` is the float64 average each of
    its pixels gets.  A model's several masks are merged by elementwise
    max; a model with no member contributes an empty (all-zero) mask.
    """
    if not members:
        raise DataValidationError("cannot fuse an empty group")
    extra = {m.model_id for m in members} - set(weights.models)
    if extra:
        raise DataValidationError(
            f"group has models without weights: {sorted(extra)}")
    if len({(inst.mask.height, inst.mask.width) for inst in members}) > 1:
        raise ShapeError("group members must share grid dimensions")
    bounds = np.concatenate([inst.mask.bounds for inst in members])
    bounds.sort()
    # each bound once; every member's first bound is 0
    bounds = np.concatenate(([0], bounds[1:][bounds[1:] != bounds[:-1]]))
    per_model = {}
    for inst in members:
        # a segment is set where it lies in an odd-numbered run
        run = inst.mask.bounds.searchsorted(bounds[:-1], side="right") - 1
        soft = (run & 1).astype(np.float64)
        prev = per_model.get(inst.model_id)
        per_model[inst.model_id] = soft if prev is None else np.maximum(prev, soft)
    absent = np.zeros(bounds.size - 1, dtype=np.float64)
    return bounds, weighted_average(
        [per_model.get(model, absent) for model in weights.models],
        [coeff for _, coeff in weights.weights])


def fuse_logits(maps: Mapping[str, LogitMap],
                weights: Sequence[FusionWeights]) -> LogitMap:
    """Weighted average of per-model logit maps, one weight vector per channel.

    Channel c averages the models with ``weights[c]``: each model's float32
    map is weighted by one float64 coefficient per channel, which widens
    every term exactly, and the clamped sum is rounded once to float32.
    """
    shapes = sorted({m.shape for m in maps.values()})
    if len(shapes) != 1:
        raise ShapeError(f"logit maps must share one shape, got {shapes}")
    c = shapes[0][2]
    if len(weights) != c:
        raise ShapeError(f"{len(weights)} weight vectors for {c} channels")
    for vec in weights:
        if set(maps) != set(vec.models):
            raise DataValidationError(
                f"maps for {sorted(maps)} do not match weights for "
                f"{list(vec.models)}")
    # every vector lists the same models in ascending id order
    models = weights[0].models
    coeffs = [np.array([vec.weights[i][1] for vec in weights])
              for i in range(len(models))]
    return LogitMap._own(
        weighted_average([maps[model].data for model in models], coeffs))


def binarize(soft: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Threshold a soft mask into a read-only 2-D bool array; a value
    exactly at the threshold is set."""
    if not (0.0 < threshold < 1.0):
        raise DataValidationError(f"threshold {threshold} outside (0, 1)")
    a = np.asarray(soft, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected 2D soft mask, got ndim={a.ndim}")
    return _frozen(a >= threshold)
