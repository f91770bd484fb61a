"""Mask average precision at a fixed IoU threshold.

Matching is greedy in descending score order (ties broken by prediction id)
against unmatched ground truths of the same component; AP uses all-point
interpolation over the cumulative precision/recall sequence.

No mask is decoded to match it.  ``_candidates`` counts the pixels that
each same-component pair with overlapping boxes shares from the two masks'
runs (``masks._shared_pixels``), one pass per model and component, and the
one matcher core, ``_greedy``, reads IoUs from that table.
``match_predictions`` builds the table for its own inputs; ``group_ap``
builds it once per call and matches every group from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bundle import PredictionBundle
from .errors import DataValidationError
from .masks import COMPONENTS, MaskInstance, _shared_pixels


def _pred_key(inst: MaskInstance, position: int) -> int:
    return inst.uid if inst.uid is not None else position


def _check_match(preds: Sequence[MaskInstance], gts: Sequence[MaskInstance],
                 iou_threshold: float) -> None:
    if not (0.0 < iou_threshold <= 1.0):
        raise DataValidationError(f"IoU threshold {iou_threshold} outside (0, 1]")
    grids = {(i.mask.height, i.mask.width) for i in (*preds, *gts)}
    if len(grids) > 1:
        raise DataValidationError(
            f"predictions and ground truths live on different grids: "
            f"{sorted(grids)}")


def _candidates(preds: Sequence[MaskInstance],
                gts: Sequence[MaskInstance]) -> list[list[tuple[int, int]]]:
    """For each prediction, ``(j, n)`` for each same-component ground truth
    ``gts[j]`` on its grid that it shares ``n > 0`` pixels with, in
    ground-truth order: one ``_shared_pixels`` pass per model and
    component, so its temporaries stay bounded by one model's masks of one
    component."""
    cells: dict = {}  # (component, model id, grid) -> positions in preds
    for k, p in enumerate(preds):
        cells.setdefault((p.component, p.model_id, p.mask.height,
                          p.mask.width), []).append(k)
    out = [[] for _ in preds]
    for (component, _, h, w), pk in cells.items():
        gk = [j for j, g in enumerate(gts) if g.component == component
              and (g.mask.height, g.mask.width) == (h, w)]
        for i, j, n in zip(*(a.tolist() for a in _shared_pixels(
                [preds[k] for k in pk], [gts[j] for j in gk]))):
            if n:
                out[pk[i]].append((gk[j], n))
    return out


def _greedy(preds: Sequence[MaskInstance], candidates: Sequence[list],
            gts: Sequence[MaskInstance],
            iou_threshold: float) -> list[tuple[int, float, bool]]:
    """The matcher core: each of ``preds``, in evaluation order, takes its
    best-IoU unmatched ground truth among its ``candidates`` entry, in
    ``_candidates``' form.  A ground truth that shares no pixel with it has
    IoU 0, which never beats the starting best, so it need not be listed."""
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i].score, _pred_key(preds[i], i)))
    taken = set()
    entries = []
    for i in order:
        pred = preds[i]
        best_iou = 0.0
        best_j = -1
        for j, inter in candidates[i]:
            if j in taken:
                continue
            # the IoU of MaskInstance.iou, on the same Python ints
            v = inter / (pred.area + gts[j].area - inter)
            if v > best_iou:
                best_iou = v
                best_j = j
        is_tp = best_j >= 0 and best_iou >= iou_threshold
        if is_tp:
            taken.add(best_j)
        entries.append((_pred_key(pred, i), pred.score, is_tp))
    return entries


def match_predictions(preds: Sequence[MaskInstance], gts: Sequence[MaskInstance],
                      iou_threshold: float) -> list[tuple[int, float, bool]]:
    """Greedily match predictions to same-component ground truths.

    Returns (prediction id, score, is_true_positive) in evaluation order:
    score descending, ties broken by prediction id ascending.  A prediction
    is a true positive iff its best-IoU unmatched ground truth of the same
    component reaches the threshold; that ground truth is then consumed.
    Empty inputs are allowed.  The shared pixels of every pair are counted
    from the masks' runs, by ``_candidates``.
    """
    _check_match(preds, gts, iou_threshold)
    return _greedy(preds, _candidates(preds, gts), gts, iou_threshold)


def average_precision(flags: Sequence[bool], gt_count: int) -> float:
    """All-point interpolated AP of true-positive ``flags`` in evaluation
    order against ``gt_count`` ground truths.

    With no ground truths the value is 1.0 when there are also no
    predictions (nothing to find, nothing claimed) and 0.0 otherwise.
    """
    if gt_count < 0:
        raise DataValidationError("ground-truth count cannot be negative")
    if sum(map(bool, flags)) > gt_count:
        raise DataValidationError("more true positives than ground truths")
    n = len(flags)
    if gt_count == 0:
        return 1.0 if n == 0 else 0.0
    precisions = []
    recalls = []
    tp_cum = 0
    for k, is_tp in enumerate(flags, start=1):
        tp_cum += int(is_tp)
        precisions.append(tp_cum / k)
        recalls.append(tp_cum / gt_count)
    # precision envelope: max over the suffix, accumulated right to left
    envelope = [0.0] * n
    running = 0.0
    for k in range(n - 1, -1, -1):
        running = max(running, precisions[k])
        envelope[k] = running
    ap = 0.0
    prev_recall = 0.0
    for k in range(n):
        ap += (recalls[k] - prev_recall) * envelope[k]
        prev_recall = recalls[k]
    return ap


@dataclass(frozen=True)
class ApTable:
    """AP per (model id, group key); the group key is a component label in
    vertical mode or an object id in horizontal mode."""

    entries: dict  # (model_id, group_key) -> float

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))
        for (model, group), ap in self.entries.items():
            if not (0.0 <= ap <= 1.0):
                raise DataValidationError(
                    f"AP {ap} for ({model!r}, {group!r}) outside [0, 1]")

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(sorted({m for m, _ in self.entries}))

    def get(self, model: str, group) -> float:
        try:
            return self.entries[(model, group)]
        except KeyError:
            raise DataValidationError(
                f"no AP entry for model {model!r} in group {group!r}") from None


# the instance field each grouping mode pools by
GROUP_FIELDS = {"vertical": "component", "horizontal": "object_id"}


def group_keys(instances: Sequence[MaskInstance], mode: str) -> list:
    """The group keys present among ``instances`` in output order: components
    in COMPONENTS order (vertical), object ids ascending (horizontal)."""
    if mode not in GROUP_FIELDS:
        raise DataValidationError(f"unknown grouping mode {mode!r}")
    present = {getattr(i, GROUP_FIELDS[mode]) for i in instances}
    if None in present:
        raise DataValidationError(
            "horizontal grouping requires object ids on every instance")
    return sorted(present, key=COMPONENTS.index if mode == "vertical" else None)


def group_ap(bundle: PredictionBundle, gts: Sequence[MaskInstance], mode: str,
             iou_threshold: float) -> ApTable:
    """AP per (model, component) in vertical mode or (model, object id) in
    horizontal mode, pooling the complementary axis.

    Each group is checked and matched as ``match_predictions`` would match
    it, but the shared pixels of every same-component pair are counted
    once per call, into one ``_candidates`` table that every group reads."""
    keys = group_keys((*bundle.instances, *gts), mode)
    field = GROUP_FIELDS[mode]
    members: dict = {}  # (model, key) -> positions in bundle.instances
    for p, inst in enumerate(bundle.instances):
        members.setdefault((inst.model_id, getattr(inst, field)), []).append(p)
    table = _candidates(bundle.instances, gts)
    entries = {}
    for model in bundle.models:
        for key in keys:
            pk = members.get((model, key), [])
            preds = [bundle.instances[p] for p in pk]
            gk = [j for j, g in enumerate(gts) if getattr(g, field) == key]
            _check_match(preds, [gts[j] for j in gk], iou_threshold)
            keep = set(gk)
            matched = _greedy(preds, [[c for c in table[p] if c[0] in keep]
                                      for p in pk], gts, iou_threshold)
            entries[(model, key)] = average_precision(
                [tp for _, _, tp in matched], len(gk))
    return ApTable(entries)


def normalize_ap(aps: Sequence[float], mode: str = "fraction") -> list[float]:
    """Map raw AP fractions onto comparable weights feedstock.

    fraction: identity (inputs are already 0..1 fractions).
    minmax:   (ap - min) / (max - min) plus a 1e-6 floor on every output;
              all-equal inputs map to all ones.
    """
    if not aps:
        raise DataValidationError("cannot normalize an empty AP list")
    values = [float(a) for a in aps]
    for a in values:
        if not (0.0 <= a <= 1.0):
            raise DataValidationError(f"AP {a} outside [0, 1]")
    if mode == "fraction":
        return values
    if mode == "minmax":
        lo = min(values)
        hi = max(values)
        if hi == lo:
            return [1.0] * len(values)
        return [(a - lo) / (hi - lo) + 1e-6 for a in values]
    raise DataValidationError(f"unknown normalization mode {mode!r}")
