"""Straight-line scalar reference implementations used as test oracles.

These deliberately avoid the engine's vectorized code paths: everything is
a per-element Python loop, except ``bilinear_gather_ref``: four whole-grid
corner gathers, the unfactored form of the engine's separable resize;
``local_map_ref``, the whole-region rasterisation of one model's masks of
one object, which resamples each instance's whole region window through
``bilinear_gather_ref``; ``planes_region`` and ``region_planes``, which
turn an object's local map from the engine's planes into a dense region
grid and back;
``fuse_masks_ref``, the whole-frame average of one cell's masks;
``pipeline_ref``, the whole-frame composition of these oracles that the
``pipeline`` command must match byte for byte, with its AP weights from
``ap_weights_ref``, which normalizes ``group_ap_ref``'s APs itself;
``synth_ref``, the whole-frame synthetic scene generator, whose every mask
is a full height x width frame, drawn and perturbed with the same rng
draws in the same order as ``segfuse.synth.generate``, which works on
windows; and the channel reductions (``softmax_rows_ref``,
``row_normalize_ref``, ``argmax_ref``, ``object_gate_ref``), written with
numpy's own axis reductions (``max(axis=1)``, the last column of
``cumsum(axis=1)``, ``np.argmax``) where the engine passes over columns.  Where a test demands bit-for-bit agreement the arithmetic here
follows the engine's documented evaluation order (same lerp form, same
accumulation order, same envelope clamp, same float32 rounding points);
where a tolerance applies, the algorithm is derived independently (the
explicit PR staircase).
"""

from __future__ import annotations

import math

import numpy as np

from segfuse.errors import FormatError
from segfuse.masks import COMPONENT_GAIN, COMPONENT_IDS, COMPONENTS

F32 = np.float32


def _lesser(x, y):
    """min(x, y) as ``np.minimum`` takes it: on a tie, such as +0.0 against
    -0.0, the second operand wins (Python's ``min`` keeps the first)."""
    return x if x < y else y


def _greater(x, y):
    """max(x, y) as ``np.maximum`` takes it: the second operand wins a tie."""
    return x if x > y else y


def bilinear_ref(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Per-output-pixel half-pixel-center bilinear resample (scalar loops)."""
    in_h, in_w, channels = src.shape
    out = np.empty((out_h, out_w, channels), dtype=np.float32)
    for yo in range(out_h):
        sy = (yo + 0.5) * (in_h / out_h) - 0.5
        y0 = math.floor(sy)
        dy = sy - y0
        y0c = min(max(y0, 0), in_h - 1)
        y1c = min(max(y0 + 1, 0), in_h - 1)
        for xo in range(out_w):
            sx = (xo + 0.5) * (in_w / out_w) - 0.5
            x0 = math.floor(sx)
            dx = sx - x0
            x0c = min(max(x0, 0), in_w - 1)
            x1c = min(max(x0 + 1, 0), in_w - 1)
            for c in range(channels):
                v00 = float(src[y0c, x0c, c])
                v01 = float(src[y0c, x1c, c])
                v10 = float(src[y1c, x0c, c])
                v11 = float(src[y1c, x1c, c])
                top = v00 + (v01 - v00) * dx
                bot = v10 + (v11 - v10) * dx
                out[yo, xo, c] = np.float32(top + (bot - top) * dy)
    return out


def bilinear_gather_ref(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resample from four full-size corner gathers.

    The same float64 lerps as :func:`bilinear_ref`, vectorized over the
    whole output grid with no row reuse and no same-size shortcut.
    """
    in_h, in_w, _ = src.shape
    src = src.astype(np.float64)
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (in_h / out_h) - 0.5
    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (in_w / out_w) - 0.5
    y0 = np.floor(sy)
    x0 = np.floor(sx)
    dy = sy - y0
    dx = sx - x0
    y0 = y0.astype(np.int64)
    x0 = x0.astype(np.int64)
    y0c = np.clip(y0, 0, in_h - 1)
    y1c = np.clip(y0 + 1, 0, in_h - 1)
    x0c = np.clip(x0, 0, in_w - 1)
    x1c = np.clip(x0 + 1, 0, in_w - 1)

    v00 = src[y0c[:, None], x0c[None, :], :]
    v01 = src[y0c[:, None], x1c[None, :], :]
    v10 = src[y1c[:, None], x0c[None, :], :]
    v11 = src[y1c[:, None], x1c[None, :], :]

    wx = dx[None, :, None]
    wy = dy[:, None, None]
    top = v00 + (v01 - v00) * wx
    bot = v10 + (v11 - v10) * wx
    out = top + (bot - top) * wy
    return out.astype(np.float32)


def local_map_ref(sub, model: str, oid: int, region_ref, region_s,
                  channels: int) -> np.ndarray:
    """One model's local logits of one object, as the engine's
    ``_local_map`` computes them: each instance's window over the whole
    region is resampled to the scaled region, scaled by its component's
    gain times its score and max-combined into its component's channel."""
    data = np.zeros((region_s.height, region_s.width, channels), dtype=np.float32)
    for inst in sub.instances_for(model=model, object_id=oid):
        patch = inst.window(region_ref)[:, :, None].astype(np.float32)
        resized = bilinear_gather_ref(patch, region_s.height, region_s.width)
        ch = COMPONENT_IDS[inst.component]
        gain = np.float32(COMPONENT_GAIN[inst.component] * inst.score)
        data[:, :, ch] = np.maximum(data[:, :, ch], gain * resized[:, :, 0])
    return data


def planes_region(planes, region, channels: int) -> np.ndarray:
    """The dense region x channels float32 grid that an object's local
    planes stand for, ``(channel, box, plane)`` on the scale grid: zeros,
    with each plane written at its box.  Each plane must be a read-only
    2-D float32 grid of its box inside ``region``, of a component channel,
    each channel at most once and in ascending order."""
    out = np.zeros((region.height, region.width, channels), dtype=np.float32)
    assert [ch for ch, _, _ in planes] == sorted({ch for ch, _, _ in planes})
    for ch, box, plane in planes:
        assert 1 <= ch < channels
        assert region.intersection(box) == box
        assert plane.dtype == np.float32 and not plane.flags.writeable
        assert plane.shape == (box.height, box.width)
        out[box.y0 - region.y0:box.y1 - region.y0,
            box.x0 - region.x0:box.x1 - region.x0, ch] = plane
    return out


def region_planes(data: np.ndarray, region) -> tuple:
    """A dense region x channels local map as the engine's planes: one
    plane per channel, background included, over the whole region."""
    return tuple((ch, region, data[:, :, ch]) for ch in range(data.shape[2]))


def staircase_ap(flags: list[bool], gt_count: int) -> float:
    """AP by explicitly constructing and integrating the PR staircase."""
    if gt_count == 0:
        return 1.0 if not flags else 0.0
    if not flags:
        return 0.0
    points = []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += int(flag)
        points.append((tp / gt_count, tp / k))
    ap = 0.0
    prev = 0.0
    for r in sorted({r for r, _ in points}):
        best = max(p for rr, p in points if rr >= r)
        ap += (r - prev) * best
        prev = r
    return ap


def weighted_average_ref(arrays: list[np.ndarray], coeffs: list) -> np.ndarray:
    """Scalar weighted sum in given order with the envelope clamp.

    A coefficient is a number or an array that broadcasts to the arrays'
    shape, read element by element.  Each term is formed in the promoted
    type of its array and coefficient, each partial sum in the promoted
    type of the sum so far and the term, and the envelope in the arrays'
    type, the type the clamped sum is rounded to once.  Float64 arrays with
    Python or float64 coefficients work in float64 throughout.
    """
    kinds = [np.result_type(a, w) for a, w in zip(arrays, coeffs)]
    sums = [kinds[0]]
    for kind in kinds[1:]:
        sums.append(np.result_type(sums[-1], kind))
    dtype = np.result_type(*arrays)
    out = np.empty(arrays[0].shape, dtype=dtype)
    flat = [a.reshape(-1) for a in arrays]
    ws = [np.broadcast_to(np.asarray(w, dtype=k), out.shape).reshape(-1)
          for w, k in zip(coeffs, kinds)]
    # Python floats are float64 arithmetic; numpy scalars round to float32
    num = {np.dtype(np.float64): float, np.dtype(np.float32): F32}
    term_of = [num[k] for k in kinds]
    sum_of = [num[k] for k in sums]
    env = num[dtype]
    flat_out = out.reshape(-1)
    for i in range(flat[0].size):
        acc = term_of[0](flat[0][i]) * term_of[0](ws[0][i])
        lo = env(flat[0][i])
        hi = lo
        for a, w, term, total in zip(flat[1:], ws[1:], term_of[1:],
                                     sum_of[1:]):
            v = term(a[i]) * term(w[i])
            acc = total(acc) + total(v)
            lo = _lesser(lo, env(a[i]))
            hi = _greater(hi, env(a[i]))
        # the clamp compares in the type of the sum
        flat_out[i] = _lesser(_greater(acc, sum_of[-1](lo)), sum_of[-1](hi))
    return out


def fuse_masks_ref(members, weights) -> np.ndarray:
    """fuse_masks oracle on the full frame: each model's masks decoded to
    whole frames pixel by pixel and merged by max, a model without a
    member an all-zero frame, averaged in ascending model id order."""
    h, w = members[0].mask.height, members[0].mask.width
    frames = []
    for model, _ in weights.weights:
        acc = np.zeros((h, w), dtype=np.float64)
        for m in members:
            if m.model_id == model:
                acc = np.maximum(acc, rle_decode_ref(m.mask.counts, h, w))
        frames.append(acc)
    return weighted_average_ref(frames, [c for _, c in weights.weights])


def fuse_logits_ref(stacks: list[np.ndarray], coeffs: list[float]) -> np.ndarray:
    """fuse_logits oracle: float64 accumulation, clamp, one float32 rounding."""
    acc = weighted_average_ref([a.astype(np.float64) for a in stacks], coeffs)
    return acc.astype(np.float32)


def softmax_rows_ref(m: np.ndarray) -> np.ndarray:
    """Row softmax from numpy's axis reductions: the row max, then the
    sequential row sum that cumsum's last column holds."""
    a = np.asarray(m, dtype=np.float64)
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / np.cumsum(e, axis=1)[:, -1:]


def row_normalize_ref(m: np.ndarray) -> np.ndarray:
    """Each row divided by its sequential sum, cumsum's last column."""
    a = np.asarray(m, dtype=np.float64)
    return a / np.cumsum(a, axis=1)[:, -1:]


def argmax_ref(logits: np.ndarray) -> np.ndarray:
    """Per-pixel channel argmax of an H x W x C grid (first index on ties)."""
    return np.argmax(logits, axis=2).astype(np.int64)


def object_gate_ref(g: np.ndarray, l: np.ndarray, f: float) -> np.ndarray:
    """One object's attention gate, a column, from its whole-frame and local
    logits as pixels x channels: 1 - the row max of the normalized softmax
    of ``-f * |g - l|``, rescaled so a uniform row gives 1 and clipped."""
    attn = row_normalize_ref(softmax_rows_ref(-f * np.abs(g - l)))
    peak = attn.max(axis=1, keepdims=True)
    return np.clip((1.0 - peak) / (1.0 - 1.0 / g.shape[1]), 0.0, 1.0)


def gated_blend_ref(a, b, gate):
    """One pixel of a * g + b * (1 - g) in float32 with the envelope clamp,
    whose ties go to the second operand, as in ``weighted_average``."""
    a = F32(a)
    b = F32(b)
    g = F32(gate)
    out = F32(F32(a * g) + F32(b * F32(F32(1.0) - g)))
    lo, hi = _lesser(a, b), _greater(a, b)
    return _lesser(_greater(out, lo), hi)


def fuse_global_local_ref(gdata: np.ndarray, locals_: list, beta: np.ndarray) -> np.ndarray:
    """Whole-frame/object blend: paste-sum the locals, then per-pixel blend."""
    h, w, c = gdata.shape
    lsum = np.zeros((h, w, c), dtype=np.float32)
    for patch, box in locals_:
        for y in range(box.y0, box.y1):
            for x in range(box.x0, box.x1):
                for ch in range(c):
                    lsum[y, x, ch] = F32(lsum[y, x, ch]
                                         + patch[y - box.y0, x - box.x0, ch])
    out = np.empty((h, w, c), dtype=np.float32)
    for y in range(h):
        for x in range(w):
            for ch in range(c):
                out[y, x, ch] = gated_blend_ref(gdata[y, x, ch],
                                                lsum[y, x, ch], beta[y, x])
    return out


def fuse_adjacent_ref(lower_logits: np.ndarray, lower_alpha: np.ndarray,
                      higher: np.ndarray) -> np.ndarray:
    """One rung of the scale fold on raw arrays."""
    h, w, c = higher.shape
    up = bilinear_ref(lower_logits, h, w)
    up_alpha = bilinear_ref(lower_alpha[:, :, None], h, w)[:, :, 0]
    out = np.empty((h, w, c), dtype=np.float32)
    for y in range(h):
        for x in range(w):
            g = _lesser(_greater(up_alpha[y, x], F32(0.0)), F32(1.0))
            for ch in range(c):
                out[y, x, ch] = gated_blend_ref(up[y, x, ch], higher[y, x, ch], g)
    return out


def chain_ref(entries: list[tuple[np.ndarray, np.ndarray | None]]) -> np.ndarray:
    """Coarse-to-fine fold over (logits, alpha) arrays."""
    acc = entries[0][0]
    for (_, alpha), (finer_logits, _) in zip(entries, entries[1:]):
        acc = fuse_adjacent_ref(acc, alpha, finer_logits)
    return acc


def mean_alpha_ref(present: list[np.ndarray]) -> np.ndarray:
    """The float64 mean of whole alpha maps in the given order, clipped,
    then rounded to float32."""
    acc = present[0].astype(np.float64)
    for a in present[1:]:
        acc = acc + a.astype(np.float64)
    return np.clip(acc / len(present), 0.0, 1.0).astype(np.float32)


def _channels_ref(stacks: dict, vectors) -> np.ndarray:
    """``fuse_logits_ref`` of each channel of the per-model ``stacks`` under
    that channel's weight vector of ``(model, weight)`` pairs, stacked back
    into channels."""
    return np.stack([fuse_logits_ref([stacks[m][:, :, ch] for m, _ in vec],
                                     [c for _, c in vec])
                     for ch, vec in enumerate(vectors)], axis=2)


def ap_weights_ref(calib, keys, mode: str, iou_threshold: float,
                   normalization: str) -> list:
    """The fusion weights of each group key in ``keys``, in order, from the
    APs ``group_ap_ref`` gives ``calib``, one scale of the calibration
    split, against its ground truth: ``[(key, ((model, weight), ...))]``,
    models ascending.

    A group's APs are normalized over its models: ``fraction`` keeps each,
    ``minmax`` maps each to (ap - min) / (max - min) + 1e-6, or to 1 when
    they are all equal.  A model's weight is its normalized AP over their
    sum, added up in model order; when that sum is zero every model is
    weighted 1 / N."""
    aps = group_ap_ref(calib, calib.ground_truth, mode, iou_threshold)
    models = sorted(calib.models)
    out = []
    for key in keys:
        values = [aps[model, key] for model in models]
        if normalization == "minmax":
            lo, hi = min(values), max(values)
            values = ([1.0] * len(values) if hi == lo else
                      [(v - lo) / (hi - lo) + 1e-6 for v in values])
        total = 0.0
        for v in values:
            total += v
        out.append((key, tuple((m, v / total if total else 1.0 / len(models))
                               for m, v in zip(models, values))))
    return out


def pipeline_ref(bundle, calib, cfg):
    """The ``pipeline`` command on whole frames: ``(logits, labels,
    instances, weight records)``, the reference-grid logits and labels,
    the carving as ``label_instances_ref`` gives it, and the weight records
    of the report.

    At each scale, in order: the ensemble of the models' logits, channel 0
    with uniform weights and each component channel with its vertical
    weights; each object's local map, the ensemble under its horizontal
    weights of ``local_map_ref``; the gate, each object's
    ``object_gate_ref`` over its whole region, pasted in object order over
    ``cfg.neutral_beta``, or ``cfg.beta_const``; the blend of the ensemble
    with the summed local maps; and the mean of the scale's alpha maps, or
    ``cfg.alpha_const``.  Then the coarse-to-fine fold, the resize to the
    reference grid, the argmax and the carving.  AP weights come from
    ``ap_weights_ref``, for every component and for each object of the
    scale; uniform ones are 1 / N, keyed by component and by object.  The
    object regions come from ``pipeline._object_regions``; no band, no sink
    and no other engine code is used."""
    from segfuse.masks import scale_box
    from segfuse.pipeline import _object_regions

    height, width, models = bundle.height, bundle.width, bundle.models
    subs = [bundle.with_scale(scale) for scale in bundle.scales]
    uniform = tuple((m, 1.0 / len(models)) for m in models)
    weights, records = {}, []
    for scale, sub in zip(bundle.scales, subs):
        # README's group order: components, then object ids
        groups = {"vertical": list(COMPONENTS),
                  "horizontal": sorted({i.object_id for i in sub.instances})}
        for mode, keys in groups.items():
            if cfg.weights_mode == "ap":
                vectors = ap_weights_ref(
                    calib.with_scale(scale), keys, mode,
                    cfg.iou_threshold, cfg.normalization)
            else:
                vectors = [(k, uniform) for k in keys]
            weights[scale, mode] = {k: w for k, (_, w) in zip(keys, vectors)}
            records += [{"scale": scale, "mode": mode, "group": g,
                         "weights": dict(w)} for g, w in vectors]
    channels = len(COMPONENTS) + 1
    levels = []
    for scale, sub in zip(bundle.scales, subs):
        sh, sw = _round_half_up(height, scale), _round_half_up(width, scale)
        ens = _channels_ref(
            {m: bundle.logit_maps[m, scale].data for m in models},
            [uniform, *weights[scale, "vertical"].values()])
        locals_ = []
        for oid, region in _object_regions(sub, cfg).items():
            box = scale_box(region, height, width, sh, sw)
            locals_.append((_channels_ref(
                {m: local_map_ref(sub, m, oid, region, box, channels)
                 for m in models},
                [weights[scale, "horizontal"][oid]] * channels), box))
        if cfg.beta_const is not None:
            beta = np.full((sh, sw), cfg.beta_const, dtype=np.float32)
        else:
            beta = np.full((sh, sw), cfg.neutral_beta, dtype=np.float32)
            for local, box in locals_:
                gate = object_gate_ref(
                    ens[box.slices].astype(np.float64).reshape(-1, channels),
                    local.astype(np.float64).reshape(-1, channels),
                    cfg.attention_factor)
                beta[box.slices] = gate.reshape(box.height, box.width)
        present = [bundle.alpha_maps[m, scale].data for m in models
                   if (m, scale) in bundle.alpha_maps]
        levels.append((fuse_global_local_ref(ens, locals_, beta),
                       mean_alpha_ref(present) if present else
                       np.full((sh, sw), cfg.alpha_const, dtype=np.float32)))
    logits = bilinear_ref(chain_ref(levels), height, width)
    labels = argmax_ref(logits)
    instances = label_instances_ref(logits, labels,
                                    _object_regions(bundle, cfg), COMPONENTS)
    return logits, labels, instances, records


def rle_decode_ref(counts, height: int, width: int) -> np.ndarray:
    """Full-frame bool grid of an RLE, one pixel at a time."""
    flat = [False] * (height * width)
    pos = 0
    for k, c in enumerate(counts):
        for _ in range(c):
            flat[pos] = k % 2 == 1
            pos += 1
    return np.array(flat, dtype=bool).reshape(height, width)


def rle_counts_ref(counts, height: int, width: int) -> None:
    """Raise what ``RleMask`` must raise for these counts on a height x width
    grid, checking one plain Python int at a time; return None if valid."""
    if len(counts) == 0:
        raise FormatError("RLE counts must be non-empty")
    for c in counts:
        if c < 0:
            raise FormatError("RLE counts must be nonnegative")
    for c in counts[1:]:
        if c == 0:
            raise FormatError("only the leading zero-run of an RLE may be empty")
    total = 0
    for c in counts:
        total += c
    if total != height * width:
        raise FormatError(f"RLE counts sum {total} != {height * width} "
                          f"({height}x{width} grid)")
    return None


def match_predictions_ref(preds, gts, iou_threshold: float) -> list:
    """Greedy matching on full-frame grids: (prediction id, score, is_tp)."""
    def frame(inst):
        # the frame's pixels as a list of Python bools, in row-major order
        return rle_decode_ref(inst.mask.counts, inst.mask.height,
                              inst.mask.width).ravel().tolist()

    def iou(a, b):
        inter = union = 0
        for x, y in zip(a, b):
            inter += int(x and y)
            union += int(x or y)
        return inter / union if union else 0.0

    pred_bits = [frame(p) for p in preds]
    gt_bits = [frame(g) for g in gts]
    keys = [p.uid if p.uid is not None else i for i, p in enumerate(preds)]
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, keys[i]))
    taken = [False] * len(gts)
    out = []
    for i in order:
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(gts):
            if taken[j] or gt.component != preds[i].component:
                continue
            v = iou(pred_bits[i], gt_bits[j])
            if v > best_iou:
                best_iou, best_j = v, j
        is_tp = best_j >= 0 and best_iou >= iou_threshold
        if is_tp:
            taken[best_j] = True
        out.append((keys[i], preds[i].score, is_tp))
    return out


def group_ap_ref(bundle, gts, mode: str, iou_threshold: float) -> dict:
    """AP per (model, group key), in ``group_ap``'s order, from full-frame
    matching of each group on its own and the explicit staircase."""
    field = {"vertical": "component", "horizontal": "object_id"}[mode]
    present = {getattr(i, field) for i in (*bundle.instances, *gts)}
    keys = sorted(present, key=COMPONENTS.index if mode == "vertical" else None)
    out = {}
    for model in bundle.models:
        for key in keys:
            preds = [i for i in bundle.instances
                     if i.model_id == model and getattr(i, field) == key]
            key_gts = [g for g in gts if getattr(g, field) == key]
            flags = [tp for _, _, tp in
                     match_predictions_ref(preds, key_gts, iou_threshold)]
            out[(model, key)] = staircase_ap(flags, len(key_gts))
    return out


def label_instances_ref(logits: np.ndarray, labels: np.ndarray, regions: dict,
                        components) -> list:
    """Whole-frame carving: (object id, component, RLE counts, tight box,
    score) per carved instance, in the engine's output order.

    The softmax and tail probabilities are computed once over the whole
    frame in float64; component c of object k is every pixel of k's region
    labeled c or deeper, scored by the mean P(label >= c) over its pixels in
    row-major order.  Components are ``components[c - 1]``.
    """
    shifted = logits.astype(np.float64)
    shifted -= shifted.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    probs = e / np.cumsum(e, axis=2)[:, :, -1:]
    tail_probs = np.cumsum(probs[:, :, ::-1], axis=2)[:, :, ::-1]
    height, width = labels.shape
    out = []
    for oid, region in regions.items():
        for ch, comp in enumerate(components, start=1):
            frame = np.zeros((height, width), dtype=bool)
            frame[region.slices] = labels[region.slices] >= ch
            if not frame.any():
                continue
            score = float(np.mean(tail_probs[region.slices][:, :, ch][
                frame[region.slices]]))
            counts = []
            run, value = 0, False
            for bit in frame.ravel().tolist():
                if bit != value:
                    counts.append(run)
                    run, value = 0, bit
                run += 1
            counts.append(run)
            ys, xs = np.nonzero(frame)
            box = (int(xs.min()), int(ys.min()), int(xs.max()) + 1,
                   int(ys.max()) + 1)
            out.append((oid, comp, tuple(counts), box,
                        min(1.0, max(0.0, score))))
    return out


def rle_counts_of(frame: np.ndarray) -> tuple:
    """Row-major RLE counts of a full-frame bool grid, one pixel at a time."""
    counts = []
    run, value = 0, False
    for bit in frame.ravel().tolist():
        if bit != value:
            counts.append(run)
            run, value = 0, bit
        run += 1
    counts.append(run)
    return tuple(counts)


def box_of(frame: np.ndarray):
    """Tight half-open (x0, y0, x1, y1) box of the set pixels, or None."""
    ys, xs = np.nonzero(frame)
    if ys.size == 0:
        return None
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def shift_ref(bits: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Move every pixel by (dy, dx); pixels moved off the frame are lost."""
    h, w = bits.shape
    out = np.zeros_like(bits)
    out[max(0, dy):min(h, h + dy), max(0, dx):min(w, w + dx)] = \
        bits[max(0, -dy):min(h, h - dy), max(0, -dx):min(w, w - dx)]
    return out


def dilate_ref(bits: np.ndarray, iterations: int) -> np.ndarray:
    out = bits
    for _ in range(iterations):
        out = (out | shift_ref(out, 1, 0) | shift_ref(out, -1, 0)
               | shift_ref(out, 0, 1) | shift_ref(out, 0, -1))
    return out


def erode_ref(bits: np.ndarray, iterations: int) -> np.ndarray:
    out = bits
    for _ in range(iterations):
        out = (out & shift_ref(out, 1, 0) & shift_ref(out, -1, 0)
               & shift_ref(out, 0, 1) & shift_ref(out, 0, -1))
    return out


def ellipse_ref(h, w, cy, cx, ry, rx) -> np.ndarray:
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def rect_ref(h, w, cy, cx, ry, rx) -> np.ndarray:
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)


def perturb_ref(rng, bits: np.ndarray, magnitude: int) -> np.ndarray:
    """A whole-frame perturbation: shift, then dilate, erode or neither."""
    if magnitude == 0 or not bits.any():
        return bits.copy()
    x0, y0, x1, y1 = box_of(bits)
    cap = max(1, min(y1 - y0, x1 - x0) // 4)
    dy = int(np.clip(rng.integers(-magnitude, magnitude + 1), -cap, cap))
    dx = int(np.clip(rng.integers(-magnitude, magnitude + 1), -cap, cap))
    out = shift_ref(bits, dy, dx)
    op = rng.integers(0, 3)
    iters = min(int(rng.integers(1, magnitude + 1)), cap)
    if op == 0:
        out = dilate_ref(out, iters)
    elif op == 1:
        out = erode_ref(out, iters)
    return out


_NEST = (("shell", 1.0), ("meat", 0.72), ("gonad", 0.50), ("muscle", 0.32))
_GAIN = {"shell": 2.5, "meat": 3.0, "gonad": 3.5, "muscle": 4.0}


def _round_half_up(n: int, scale: float) -> int:
    return max(1, int(math.floor(n * scale + 0.5)))


def synth_ref(seed: int, *, objects: int, models: int, height: int,
              width: int, perturb: int = 2, scales=(1.0,)) -> dict:
    """Whole-frame synthetic scene.

    Returns ``shapes`` (the draw per object), ``ground_truth`` as
    (object id, component, RLE counts, box), ``instances`` as (model, object
    id, component, RLE counts, box, score) for one scale, and ``logits`` and
    ``alphas`` keyed by (model, scale).
    """
    rng = np.random.default_rng(seed)
    h, w = height, width
    rows = max(1, int(math.floor(math.sqrt(objects))))
    cols = int(math.ceil(objects / rows))
    cell_h, cell_w = h / rows, w / cols
    shapes, gt = [], []
    for k in range(objects):
        r, c = divmod(k, cols)
        cy = (r + 0.5) * cell_h + rng.uniform(-0.05, 0.05) * cell_h
        cx = (c + 0.5) * cell_w + rng.uniform(-0.05, 0.05) * cell_w
        ry = cell_h * rng.uniform(0.28, 0.38)
        rx = cell_w * rng.uniform(0.28, 0.38)
        draw = ellipse_ref if rng.random() < 0.7 else rect_ref
        shapes.append("ellipse" if draw is ellipse_ref else "rect")
        comps, parent, prev_f = {}, None, None
        for name, f in _NEST:
            if parent is None:
                bits = draw(h, w, cy, cx, ry, rx)
            else:
                max_off = max(0.0, (prev_f - f) * min(ry, rx) * 0.6)
                oy = rng.uniform(-max_off, max_off)
                ox = rng.uniform(-max_off, max_off)
                bits = draw(h, w, cy + oy, cx + ox, ry * f, rx * f) & parent
            comps[name] = parent = bits
            prev_f = f
        gt.append(comps)

    out = {"shapes": shapes, "instances": [], "logits": {}, "alphas": {},
           "ground_truth": [(oid, name, rle_counts_of(comps[name]),
                             box_of(comps[name]))
                            for oid, comps in enumerate(gt)
                            for name, _ in _NEST]}
    perturbed = {}
    for mi in range(models):
        magnitude = (0 if models == 1 or perturb == 0
                     else int(round(perturb * mi / (models - 1))))
        for oid, comps in enumerate(gt):
            for name, _ in _NEST:
                perturbed[(mi, oid, name)] = perturb_ref(rng, comps[name],
                                                         magnitude)
    for mi in range(models):
        union = {name: np.zeros((h, w), dtype=bool) for name, _ in _NEST}
        total = {name: 0.0 for name, _ in _NEST}
        seen = {name: 0 for name, _ in _NEST}
        for oid, comps in enumerate(gt):
            for name, _ in _NEST:
                bits, truth = perturbed[(mi, oid, name)], comps[name]
                union[name] |= bits
                if not bits.any():
                    continue
                inter = int(np.count_nonzero(bits & truth))
                score = min(1.0, max(0.05, round(
                    inter / int(np.count_nonzero(bits | truth)), 4)))
                total[name] += score
                seen[name] += 1
                out["instances"].append((f"m{mi}", oid, name,
                                         rle_counts_of(bits), box_of(bits),
                                         score))
        base = np.zeros((h, w, 5), dtype=np.float32)
        base[:, :, 0] = 0.5
        for ch, (name, _) in enumerate(_NEST, start=1):
            mean = total[name] / seen[name] if seen[name] else 0.0
            base[:, :, ch] = np.where(union[name], np.float32(_GAIN[name] * mean),
                                      np.float32(0.0))
        for si, scale in enumerate(scales):
            sh, sw = _round_half_up(h, scale), _round_half_up(w, scale)
            out["logits"][(f"m{mi}", scale)] = bilinear_gather_ref(base, sh, sw)
            yy = np.arange(sh, dtype=np.float64)[:, None] / max(1, sh - 1) - 0.5
            xx = np.arange(sw, dtype=np.float64)[None, :] / max(1, sw - 1) - 0.5
            out["alphas"][(f"m{mi}", scale)] = np.clip(
                0.2 + 0.15 * np.sqrt(yy * yy + xx * xx) + 0.01 * mi + 0.02 * si,
                0.0, 0.9).astype(np.float32)
    return out
