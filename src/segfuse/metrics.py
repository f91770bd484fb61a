"""Mask average precision at a fixed IoU threshold.

Matching is greedy in descending score order (ties broken by prediction id)
against unmatched ground truths of the same component; AP uses all-point
interpolation over the cumulative precision/recall sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bundle import PredictionBundle
from .errors import DataValidationError
from .masks import COMPONENTS, MaskInstance


def _pred_key(inst: MaskInstance, position: int) -> int:
    return inst.uid if inst.uid is not None else position


def match_predictions(preds: Sequence[MaskInstance], gts: Sequence[MaskInstance],
                      iou_threshold: float) -> list[tuple[int, float, bool]]:
    """Greedily match predictions to same-component ground truths.

    Returns (prediction id, score, is_true_positive) in evaluation order:
    score descending, ties broken by prediction id ascending.  A prediction
    is a true positive iff its best-IoU unmatched ground truth of the same
    component reaches the threshold; that ground truth is then consumed.
    Empty inputs are allowed.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise DataValidationError(f"IoU threshold {iou_threshold} outside (0, 1]")
    grids = {(i.mask.height, i.mask.width) for i in (*preds, *gts)}
    if len(grids) > 1:
        raise DataValidationError(
            f"predictions and ground truths live on different grids: "
            f"{sorted(grids)}")
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i].score, _pred_key(preds[i], i)))
    taken = [False] * len(gts)
    entries = []
    for i in order:
        pred = preds[i]
        best_iou = 0.0
        best_j = -1
        for j, gt in enumerate(gts):
            if taken[j] or gt.component != pred.component:
                continue
            v = pred.iou(gt)
            if v > best_iou:
                best_iou = v
                best_j = j
        is_tp = best_j >= 0 and best_iou >= iou_threshold
        if is_tp:
            taken[best_j] = True
        entries.append((_pred_key(pred, i), pred.score, is_tp))
    return entries


def average_precision(flags: Sequence[bool], gt_count: int) -> float:
    """All-point interpolated AP of true-positive ``flags`` in evaluation
    order against ``gt_count`` ground truths.

    With no ground truths the value is 1.0 when there are also no
    predictions (nothing to find, nothing claimed) and 0.0 otherwise.
    """
    if gt_count < 0:
        raise DataValidationError("ground-truth count cannot be negative")
    n = len(flags)
    if gt_count == 0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return 0.0
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
    horizontal mode, pooling the complementary axis."""
    keys = group_keys((*bundle.instances, *gts), mode)
    field = GROUP_FIELDS[mode]
    entries = {}
    for model in bundle.models:
        for key in keys:
            preds = bundle.instances_for(model=model, **{field: key})
            key_gts = [g for g in gts if getattr(g, field) == key]
            matched = match_predictions(preds, key_gts, iou_threshold)
            entries[(model, key)] = average_precision(
                [tp for _, _, tp in matched], len(key_gts))
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
