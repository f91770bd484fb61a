"""Straight-line scalar reference implementations used as test oracles.

These deliberately avoid the engine's vectorized code paths: everything is
a per-element Python loop, except ``bilinear_gather_ref``: four whole-grid
corner gathers, the unfactored form of the engine's separable resize.
Where a test demands bit-for-bit agreement the arithmetic here follows the
engine's documented evaluation order (same lerp form, same accumulation
order, same envelope clamp, same float32 rounding points); where a
tolerance applies, the algorithm is derived independently (the explicit PR
staircase).
"""

from __future__ import annotations

import math

import numpy as np

from segfuse.errors import FormatError

F32 = np.float32


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


def weighted_average_ref(arrays: list[np.ndarray], coeffs: list[float]) -> np.ndarray:
    """Scalar weighted sum in given order with the envelope clamp (float64)."""
    out = np.empty(arrays[0].shape, dtype=np.float64)
    flat = [a.reshape(-1) for a in arrays]
    flat_out = out.reshape(-1)
    for i in range(flat[0].size):
        acc = float(flat[0][i]) * coeffs[0]
        lo = float(flat[0][i])
        hi = lo
        for a, w in zip(flat[1:], coeffs[1:]):
            v = float(a[i])
            acc = acc + v * w
            lo = min(lo, v)
            hi = max(hi, v)
        flat_out[i] = min(max(acc, lo), hi)
    return out


def fuse_logits_ref(stacks: list[np.ndarray], coeffs: list[float]) -> np.ndarray:
    """fuse_logits oracle: float64 accumulation, clamp, one float32 rounding."""
    acc = weighted_average_ref([a.astype(np.float64) for a in stacks], coeffs)
    return acc.astype(np.float32)


def gated_blend_ref(a, b, gate):
    """One pixel of a * g + b * (1 - g) in float32 with the envelope clamp."""
    a = F32(a)
    b = F32(b)
    g = F32(gate)
    out = F32(F32(a * g) + F32(b * F32(F32(1.0) - g)))
    lo = min(a, b)
    hi = max(a, b)
    return min(max(out, lo), hi)


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
            g = min(max(up_alpha[y, x], F32(0.0)), F32(1.0))
            for ch in range(c):
                out[y, x, ch] = gated_blend_ref(up[y, x, ch], higher[y, x, ch], g)
    return out


def chain_ref(entries: list[tuple[np.ndarray, np.ndarray | None]]) -> np.ndarray:
    """Coarse-to-fine fold over (logits, alpha) arrays."""
    acc = entries[0][0]
    for (_, alpha), (finer_logits, _) in zip(entries, entries[1:]):
        acc = fuse_adjacent_ref(acc, alpha, finer_logits)
    return acc


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
        return rle_decode_ref(inst.mask.counts, inst.mask.height, inst.mask.width)

    def iou(a, b):
        inter = union = 0
        for x, y in zip(a.ravel(), b.ravel()):
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
