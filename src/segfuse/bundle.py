"""The in-memory prediction bundle: everything one image's models produced."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType

from .errors import DataValidationError
from .grids import AttentionMap, LogitMap, scaled_dim
from .masks import MaskInstance

GT_MODEL_ID = "gt"


def check_listed(model: str, scale: float, models, scales, where: str) -> None:
    """Reject a record whose model or scale is not among those listed."""
    if model not in models:
        raise DataValidationError(f"{where}: unknown model {model!r}")
    if scale not in scales:
        raise DataValidationError(f"{where}: unknown scale {scale}")


def check_grid(grid, scale: float, height: int, width: int, where: str) -> None:
    """Reject a map whose (rows, columns) ``grid`` is off its scale's grid."""
    try:
        expected = (scaled_dim(height, scale), scaled_dim(width, scale))
    except DataValidationError as e:
        raise DataValidationError(f"{where}: {e}") from None
    if grid != expected:
        raise DataValidationError(
            f"{where}: tensor grid {grid} does not match scale {scale} "
            f"of a {height}x{width} image (expected {expected})")


def check_channels(counts) -> None:
    """Reject logit maps whose channel counts differ."""
    if len(counts := set(counts)) > 1:
        raise DataValidationError(
            f"logit maps disagree on channel count: {sorted(counts)}")


@dataclass(frozen=True)
class PredictionBundle:
    """All instances and dense maps for one image.

    Instances are a flat tuple; ``instances_for`` and ``with_scale`` select
    from it by scanning.  RLE masks always live on the reference grid
    (height x width); logit and alpha maps, read-only, on their scales' grids.
    """

    image_id: str
    height: int
    width: int
    models: tuple[str, ...]
    scales: tuple[float, ...]
    instances: tuple[MaskInstance, ...]
    ground_truth: tuple[MaskInstance, ...] = ()
    logit_maps: dict = None  # (model, scale) -> LogitMap
    alpha_maps: dict = None  # (model, scale) -> AttentionMap

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise DataValidationError("image dimensions must be positive")
        if not self.models:
            raise DataValidationError("bundle must name at least one model")
        if tuple(sorted(self.models)) != self.models:
            raise DataValidationError("model ids must be sorted ascending")
        if len(set(self.models)) != len(self.models):
            raise DataValidationError("model ids must be unique")
        if not self.scales:
            raise DataValidationError("bundle must list at least one scale")
        if any(not (0 < s < math.inf) for s in self.scales):
            raise DataValidationError("scales must be positive and finite")
        if any(a >= b for a, b in zip(self.scales, self.scales[1:])):
            raise DataValidationError("scales must be strictly increasing")
        for inst in self.instances:
            self._check_instance(inst, require_model=True)
        for inst in self.ground_truth:
            self._check_instance(inst, require_model=False)
        for kind, cls in (("logit", LogitMap), ("alpha", AttentionMap)):
            maps = MappingProxyType(dict(getattr(self, f"{kind}_maps") or {}))
            object.__setattr__(self, f"{kind}_maps", maps)
            for (model, scale), m in maps.items():
                if not isinstance(m, cls):
                    raise DataValidationError(
                        f"{kind}_maps values must be {cls.__name__}")
                check_listed(model, scale, self.models, self.scales, f"{kind} map")
                check_grid(m.shape[:2], scale, self.height, self.width,
                           f"{kind} map {(model, scale)!r}")
        check_channels(m.channels for m in self.logit_maps.values())

    def _check_instance(self, inst: MaskInstance, require_model: bool) -> None:
        if (inst.mask.height, inst.mask.width) != (self.height, self.width):
            raise DataValidationError(
                f"instance mask grid {(inst.mask.height, inst.mask.width)} "
                f"!= image grid {(self.height, self.width)}")
        if require_model:
            check_listed(inst.model_id, inst.scale, self.models, self.scales,
                         "instance")

    def with_scale(self, scale: float) -> "PredictionBundle":
        """Single-scale slice of this bundle (instances and maps at ``scale``)."""
        if scale not in self.scales:
            raise DataValidationError(f"bundle has no scale {scale}")
        return replace(
            self,
            scales=(scale,),
            instances=tuple(i for i in self.instances if i.scale == scale),
            logit_maps={k: v for k, v in self.logit_maps.items() if k[1] == scale},
            alpha_maps={k: v for k, v in self.alpha_maps.items() if k[1] == scale},
        )

    def instances_for(self, model: str | None = None, component: str | None = None,
                      object_id: int | None = None) -> list[MaskInstance]:
        out = []
        for inst in self.instances:
            if model is not None and inst.model_id != model:
                continue
            if component is not None and inst.component != component:
                continue
            if object_id is not None and inst.object_id != object_id:
                continue
            out.append(inst)
        return out
