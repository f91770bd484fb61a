"""Seeded synthetic scenes for desk-scale verification.

Each object is a nested stack of shapes, shell > meat > gonad > muscle, so
fixtures have the containment structure the engine expects.  Model 0 always
reproduces the ground truth exactly; model i is perturbed with magnitude
growing in i (shift plus dilation or erosion).  Everything derives from one
numpy Generator, so a seed fixes the fixture byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .bundle import PredictionBundle
from .errors import DataValidationError
from .grids import LogitMap, AttentionMap, bilinear_resize, scaled_dim
from .masks import (COMPONENT_GAIN, COMPONENT_IDS, COMPONENTS, MaskInstance,
                    rle_encode, tight_bbox, iou)

_BACKGROUND_BIAS = 0.5
# largest scale a fixture is rendered at: 4x the canvas on each axis
_MAX_SCALE = 4.0

_NEST_FACTORS = {"shell": 1.0, "meat": 0.72, "gonad": 0.50, "muscle": 0.32}


def _shift(bits: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(bits)
    h, w = bits.shape
    ys = slice(max(0, dy), min(h, h + dy))
    xs = slice(max(0, dx), min(w, w + dx))
    ys_src = slice(max(0, -dy), min(h, h - dy))
    xs_src = slice(max(0, -dx), min(w, w - dx))
    out[ys, xs] = bits[ys_src, xs_src]
    return out


def _dilate(bits: np.ndarray, iterations: int) -> np.ndarray:
    out = bits
    for _ in range(iterations):
        out = (out | _shift(out, 1, 0) | _shift(out, -1, 0)
               | _shift(out, 0, 1) | _shift(out, 0, -1))
    return out


def _erode(bits: np.ndarray, iterations: int) -> np.ndarray:
    out = bits
    for _ in range(iterations):
        out = (out & _shift(out, 1, 0) & _shift(out, -1, 0)
               & _shift(out, 0, 1) & _shift(out, 0, -1))
    return out


def _ellipse(h, w, cy, cx, ry, rx) -> np.ndarray:
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _rect(h, w, cy, cx, ry, rx) -> np.ndarray:
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)


def _object_components(rng, h, w, cy, cx, ry, rx) -> dict[str, np.ndarray]:
    draw = _ellipse if rng.random() < 0.7 else _rect
    comps = {}
    parent = None
    for name in COMPONENTS:
        f = _NEST_FACTORS[name]
        if parent is None:
            bits = draw(h, w, cy, cx, ry, rx)
        else:
            # offset bounded by the shrink so the child stays inside its parent
            max_off = max(0.0, (prev_f - f) * min(ry, rx) * 0.6)
            oy = rng.uniform(-max_off, max_off)
            ox = rng.uniform(-max_off, max_off)
            bits = draw(h, w, cy + oy, cx + ox, ry * f, rx * f) & parent
        comps[name] = bits
        parent = bits
        prev_f = f
    return comps


def _perturb(rng, bits: np.ndarray, magnitude: int) -> np.ndarray:
    if magnitude == 0 or not bits.any():
        return bits.copy()
    rows = np.flatnonzero(bits.any(axis=1))
    cols = np.flatnonzero(bits.any(axis=0))
    size = min(rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    # errors stay proportionate to the structure: a model may distort or even
    # erase a tiny component at high magnitude, but not teleport it
    cap = max(1, size // 4)
    dy = int(np.clip(rng.integers(-magnitude, magnitude + 1), -cap, cap))
    dx = int(np.clip(rng.integers(-magnitude, magnitude + 1), -cap, cap))
    out = _shift(bits, dy, dx)
    op = rng.integers(0, 3)
    iters = min(int(rng.integers(1, magnitude + 1)), cap)
    if op == 0:
        out = _dilate(out, iters)
    elif op == 1:
        out = _erode(out, iters)
    return out


def _model_magnitude(index: int, n_models: int, base: int) -> int:
    if n_models == 1 or base == 0:
        return 0
    return int(round(base * index / (n_models - 1)))


def _logit_map(h, w, comp_masks: dict[str, np.ndarray],
               scores: dict[str, float]) -> np.ndarray:
    data = np.zeros((h, w, len(COMPONENTS) + 1), dtype=np.float32)
    data[:, :, 0] = _BACKGROUND_BIAS
    for name in COMPONENTS:
        gain = COMPONENT_GAIN[name] * scores.get(name, 0.0)
        data[:, :, COMPONENT_IDS[name]] = np.float32(gain) * comp_masks[name].astype(
            np.float32)
    return data


def _alpha_map(h, w, offset: float) -> np.ndarray:
    # low gate: the finer scale dominates, as a trained gate would prefer for
    # small structures; the radial term still exercises the resampling paths
    yy = (np.arange(h, dtype=np.float64)[:, None] / max(1, h - 1)) - 0.5
    xx = (np.arange(w, dtype=np.float64)[None, :] / max(1, w - 1)) - 0.5
    radial = np.sqrt(yy * yy + xx * xx)
    return np.clip(0.2 + 0.15 * radial + offset, 0.0, 0.9).astype(np.float32)


def generate(seed: int = 0, *, objects: int = 4, models: int = 3,
             height: int = 96, width: int = 128, perturb: int = 2,
             scales: tuple[float, ...] = (1.0,)) -> PredictionBundle:
    """Build a deterministic synthetic bundle from ``seed``."""
    if objects < 1 or models < 1:
        raise DataValidationError("synthetic scene needs >= 1 object and model")
    if height < 16 or width < 16:
        raise DataValidationError("synthetic canvas must be at least 16x16")
    if perturb < 0:
        raise DataValidationError("perturbation magnitude cannot be negative")
    if not scales or any(not (0 < s < math.inf) for s in scales):
        raise DataValidationError("scales must be positive and finite")
    if max(scales) > _MAX_SCALE:
        raise DataValidationError(
            f"scales: {max(scales)} exceeds the largest synthetic scale "
            f"{_MAX_SCALE}")
    if any(a >= b for a, b in zip(scales, scales[1:])):
        raise DataValidationError("scales must be strictly increasing")
    try:
        dims = [(scaled_dim(height, s), scaled_dim(width, s)) for s in scales]
    except DataValidationError as e:
        raise DataValidationError(f"scales: {e}") from None
    rng = np.random.default_rng(seed)
    h, w = height, width
    model_ids = tuple(f"m{i}" for i in range(models))

    rows = max(1, int(math.floor(math.sqrt(objects))))
    cols = int(math.ceil(objects / rows))
    cell_h = h / rows
    cell_w = w / cols

    gt_objects = []
    for k in range(objects):
        r, c = divmod(k, cols)
        cy = (r + 0.5) * cell_h + rng.uniform(-0.05, 0.05) * cell_h
        cx = (c + 0.5) * cell_w + rng.uniform(-0.05, 0.05) * cell_w
        ry = cell_h * rng.uniform(0.28, 0.38)
        rx = cell_w * rng.uniform(0.28, 0.38)
        gt_objects.append(_object_components(rng, h, w, cy, cx, ry, rx))

    ground_truth = []
    for oid, comps in enumerate(gt_objects):
        for name in COMPONENTS:
            ground_truth.append(MaskInstance(
                mask=rle_encode(comps[name]), bbox=tight_bbox(comps[name]),
                component=name, object_id=oid, score=1.0, model_id="gt",
                scale=1.0, uid=len(ground_truth)))

    instances = []
    model_masks = {}  # (model, oid) -> {component: bits}
    for mi, model in enumerate(model_ids):
        magnitude = _model_magnitude(mi, len(model_ids), perturb)
        for oid, comps in enumerate(gt_objects):
            perturbed = {}
            for name in COMPONENTS:
                bits = _perturb(rng, comps[name], magnitude)
                perturbed[name] = bits
            model_masks[(model, oid)] = perturbed
    # an instance differs between scales only in its scale and uid
    predicted = []
    for model in model_ids:
        for oid in range(objects):
            for name in COMPONENTS:
                mask = model_masks[(model, oid)][name]
                box = tight_bbox(mask)
                if box is None:
                    continue  # the perturbation erased it: a missed component
                gt_mask = gt_objects[oid][name]
                score = min(1.0, max(0.05, round(iou(mask, gt_mask), 4)))
                predicted.append((rle_encode(mask), box, score, model, oid, name))
    for scale in scales:
        for rle, box, score, model, oid, name in predicted:
            instances.append(MaskInstance(
                mask=rle, bbox=box, component=name, object_id=oid, score=score,
                model_id=model, scale=scale, uid=len(instances)))

    logit_maps = {}
    alpha_maps = {}
    for mi, model in enumerate(model_ids):
        union = {name: np.zeros((h, w), dtype=bool) for name in COMPONENTS}
        scores = {name: 0.0 for name in COMPONENTS}
        seen = {name: 0 for name in COMPONENTS}
        for oid in range(objects):
            for name in COMPONENTS:
                union[name] |= model_masks[(model, oid)][name]
        for inst in instances:
            if inst.model_id == model and inst.scale == scales[0]:
                scores[inst.component] += inst.score
                seen[inst.component] += 1
        mean_scores = {name: (scores[name] / seen[name] if seen[name] else 0.0)
                       for name in COMPONENTS}
        base = LogitMap.from_array(_logit_map(h, w, union, mean_scores))
        for si, (scale, (sh, sw)) in enumerate(zip(scales, dims)):
            logit_maps[(model, scale)] = bilinear_resize(base, sh, sw)
            alpha_maps[(model, scale)] = AttentionMap(
                sh, sw, _alpha_map(sh, sw, 0.01 * mi + 0.02 * si))

    return PredictionBundle(
        image_id=f"synth-{seed}", height=h, width=w, models=model_ids,
        scales=tuple(scales), instances=tuple(instances),
        ground_truth=tuple(ground_truth), logit_maps=logit_maps,
        alpha_maps=alpha_maps)
