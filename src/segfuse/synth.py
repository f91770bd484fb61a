"""Seeded synthetic scenes for desk-scale verification.

Each object is a nested stack of shapes, shell > meat > gonad > muscle, so
fixtures have the containment structure the engine expects.  Model 0 always
reproduces the ground truth exactly; model i is perturbed with magnitude
growing in i (shift plus dilation or erosion).  Everything derives from one
numpy Generator, so a seed fixes the fixture byte for byte.

Masks are box-local: an object is drawn on a window around its shell and
each model perturbs it on that window grown by twice the magnitude, so the
only whole frames are one union per model and component and the logit and
alpha maps.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .bundle import PredictionBundle
from .errors import DataValidationError
from .grids import LogitMap, AttentionMap, bilinear_resize, scaled_dim
from .masks import (COMPONENT_GAIN, COMPONENT_IDS, COMPONENTS, BBox,
                    MaskInstance, _run_extent, rle_encode, iou)

_BACKGROUND_BIAS = 0.5
# largest scale a fixture is rendered at: 4x the canvas on each axis
_MAX_SCALE = 4.0
# largest side of a rendered grid: the canvas times max(1, largest scale)
_MAX_SIDE = 4096

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


def _morph(bits: np.ndarray, iterations: int, op) -> np.ndarray:
    """Dilate (``op=np.bitwise_or``) or erode (``np.bitwise_and``) by a cross."""
    out = bits
    for _ in range(iterations):
        out = functools.reduce(op, (out, _shift(out, 1, 0), _shift(out, -1, 0),
                                    _shift(out, 0, 1), _shift(out, 0, -1)))
    return out


def _ellipse(win: BBox, cy, cx, ry, rx) -> np.ndarray:
    yy = np.arange(win.y0, win.y1, dtype=np.float64)[:, None]
    xx = np.arange(win.x0, win.x1, dtype=np.float64)[None, :]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _rect(win: BBox, cy, cx, ry, rx) -> np.ndarray:
    yy = np.arange(win.y0, win.y1, dtype=np.float64)[:, None]
    xx = np.arange(win.x0, win.x1, dtype=np.float64)[None, :]
    return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)


def _object_components(rng, win, cy, cx, ry, rx) -> dict[str, np.ndarray]:
    """One object's nested components, drawn on ``win`` (frame coordinates,
    so every pixel sees the same float64 expression as on a whole frame)."""
    draw = _ellipse if rng.random() < 0.7 else _rect
    comps = {}
    parent = None
    for name in COMPONENTS:
        f = _NEST_FACTORS[name]
        if parent is None:
            bits = draw(win, cy, cx, ry, rx)
        else:
            # offset bounded by the shrink so the child stays inside its parent
            max_off = max(0.0, (prev_f - f) * min(ry, rx) * 0.6)
            oy = rng.uniform(-max_off, max_off)
            ox = rng.uniform(-max_off, max_off)
            bits = draw(win, cy + oy, cx + ox, ry * f, rx * f) & parent
        comps[name] = bits
        parent = bits
        prev_f = f
    return comps


def _grow(b: BBox, margin: int, h: int, w: int) -> BBox:
    return BBox(max(0, b.x0 - margin), max(0, b.y0 - margin),
                min(w, b.x1 + margin), min(h, b.y1 + margin))


def _paste(bits: np.ndarray, box: BBox, onto: BBox) -> np.ndarray:
    """``bits`` over ``box`` as a window over the enclosing ``onto``."""
    if box == onto:  # magnitude 0: the unperturbed window itself
        return bits
    out = np.zeros((onto.height, onto.width), dtype=bool)
    out[box.shifted(-onto.x0, -onto.y0).slices] = bits
    return out


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
    if op < 2:
        out = _morph(out, iters, (np.bitwise_or, np.bitwise_and)[op])
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
    if seed < 0:
        raise DataValidationError(f"seed: {seed} must not be negative")
    if objects < 1 or models < 1:
        raise DataValidationError("synthetic scene needs >= 1 object and model")
    if height < 16 or width < 16:
        raise DataValidationError("synthetic canvas must be at least 16x16")
    if perturb < 0:
        raise DataValidationError("perturbation magnitude cannot be negative")
    if perturb > _MAX_SIDE:  # larger ones only change which draws are clipped
        raise DataValidationError(
            f"perturb: {perturb} exceeds the largest grid side {_MAX_SIDE}")
    if not scales or any(not (0 < s < math.inf) for s in scales):
        raise DataValidationError("scales must be positive and finite")
    if max(scales) > _MAX_SCALE:
        raise DataValidationError(
            f"scales: {max(scales)} exceeds the largest synthetic scale "
            f"{_MAX_SCALE}")
    if any(a >= b for a, b in zip(scales, scales[1:])):
        raise DataValidationError("scales must be strictly increasing")
    # checked before anything is allocated; the canvas itself is rendered
    # too, as the base every scale is resized from, and a side tested alone
    # first never meets float arithmetic however large it is
    top = max(1.0, max(scales))
    for name, n in (("height", height), ("width", width)):
        if n > _MAX_SIDE or scaled_dim(n, top) > _MAX_SIDE:
            raise DataValidationError(
                f"{name}: {n} at scale {top} exceeds the largest synthetic "
                f"grid side {_MAX_SIDE}")
    dims = [(scaled_dim(height, s), scaled_dim(width, s)) for s in scales]
    rng = np.random.default_rng(seed)
    h, w = height, width
    model_ids = tuple(f"m{i}" for i in range(models))

    rows = max(1, int(math.floor(math.sqrt(objects))))
    cols = int(math.ceil(objects / rows))
    cell_h = h / rows
    cell_w = w / cols

    # each object lives on a window: its shell's extent plus a 1-pixel
    # margin, clamped to the frame; outside it every component is empty
    gt_objects = []  # (window, {component: bits over the window})
    ground_truth = []
    for k in range(objects):
        r, c = divmod(k, cols)
        cy = (r + 0.5) * cell_h + rng.uniform(-0.05, 0.05) * cell_h
        cx = (c + 0.5) * cell_w + rng.uniform(-0.05, 0.05) * cell_w
        ry = cell_h * rng.uniform(0.28, 0.38)
        rx = cell_w * rng.uniform(0.28, 0.38)
        win = _grow(BBox(math.floor(cx - rx), math.floor(cy - ry),
                         math.ceil(cx + rx) + 1, math.ceil(cy + ry) + 1),
                    1, h, w)
        comps = _object_components(rng, win, cy, cx, ry, rx)
        for name in COMPONENTS:
            if not comps[name].any():
                raise DataValidationError(
                    f"objects: object {k}'s {name} covers no pixel on a "
                    f"{h}x{w} canvas")
            mask = rle_encode(comps[name], win, h, w)
            ground_truth.append(MaskInstance(
                mask=mask, bbox=_run_extent(mask), component=name,
                object_id=k, score=1.0, model_id="gt", scale=1.0,
                uid=len(ground_truth)))
        gt_objects.append((win, comps))

    predicted = []
    logit_maps = {}
    alpha_maps = {}
    for mi, model in enumerate(model_ids):
        magnitude = _model_magnitude(mi, len(model_ids), perturb)
        union = {name: np.zeros((h, w), dtype=bool) for name in COMPONENTS}
        scores = {name: 0.0 for name in COMPONENTS}
        seen = {name: 0 for name in COMPONENTS}
        for oid, (win, comps) in enumerate(gt_objects):
            # the largest shift plus the largest dilation stays inside this
            # window, so only a clamped side, where the frame ends, loses
            # pixels, exactly as on a whole frame
            grown = _grow(win, 2 * magnitude, h, w)
            for name in COMPONENTS:
                truth = _paste(comps[name], win, grown)
                bits = _perturb(rng, truth, magnitude)
                if not bits.any():
                    continue  # the perturbation erased it: a missed component
                union[name][grown.slices] |= bits
                score = min(1.0, max(0.05, round(iou(bits, truth), 4)))
                scores[name] += score
                seen[name] += 1
                predicted.append((rle_encode(bits, grown, h, w), score,
                                  model, oid, name))
        mean_scores = {name: (scores[name] / seen[name] if seen[name] else 0.0)
                       for name in COMPONENTS}
        base = LogitMap._own(_logit_map(h, w, union, mean_scores))
        for si, (scale, (sh, sw)) in enumerate(zip(scales, dims)):
            logit_maps[(model, scale)] = bilinear_resize(base, sh, sw)
            alpha_maps[(model, scale)] = AttentionMap._own(
                _alpha_map(sh, sw, 0.01 * mi + 0.02 * si))

    # an instance differs between scales only in its scale and uid, so the
    # later scales' instances are checked copies that share its mask
    first = [MaskInstance(mask=rle, bbox=_run_extent(rle), component=name,
                          object_id=oid, score=score, model_id=model,
                          scale=scales[0], uid=uid)
             for uid, (rle, score, model, oid, name) in enumerate(predicted)]
    instances = list(first)
    for scale in scales[1:]:
        for inst in first:
            instances.append(dataclasses.replace(inst, scale=scale,
                                                 uid=len(instances)))

    return PredictionBundle(
        image_id=f"synth-{seed}", height=h, width=w, models=model_ids,
        scales=tuple(scales), instances=tuple(instances),
        ground_truth=tuple(ground_truth), logit_maps=logit_maps,
        alpha_maps=alpha_maps)
