"""Algorithm parameters shared by the engine's commands."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DataValidationError


def check_attention_factor(f: float, name: str) -> None:
    """Reject an attention factor, called ``name`` in the error, that is not
    positive or so large that f·|G − L| can overflow: the gate scales |G −
    L|, at most twice the largest float32, by the factor in float64, so the
    largest accepted is 2.6414728131223744e269."""
    widest = 2 * float.fromhex("0x1.fffffep+127")
    if not (0 < f and math.isfinite(float(f) * widest)):
        raise DataValidationError(
            f"{name} {f} must be positive and at most "
            f"{sys.float_info.max / widest:.3g}, so that f·|G − L| stays "
            f"finite for finite float32 logits")


@dataclass(frozen=True)
class PipelineConfig:
    iou_threshold: float = 0.6
    normalization: str = "fraction"          # fraction | minmax
    attention_factor: float = 1.0
    binarize_threshold: float = 0.5
    alpha_const: float = 0.5                 # fallback gate when alpha maps are absent
    neutral_beta: float = 0.5                # gate outside every object region
    beta_const: float | None = None          # override: skip attention, use a constant
    expand_factor: float = 1.2
    weights_mode: str = "ap"                 # ap | uniform

    def __post_init__(self) -> None:
        for name in ("iou_threshold", "binarize_threshold"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0 if name == "iou_threshold" else 0.0 < v < 1.0):
                raise DataValidationError(f"{name} {v} out of range")
        for name in ("alpha_const", "neutral_beta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DataValidationError(f"{name} {v} outside [0, 1]")
        if self.beta_const is not None and not (0.0 <= self.beta_const <= 1.0):
            raise DataValidationError(f"beta_const {self.beta_const} outside [0, 1]")
        check_attention_factor(self.attention_factor, "attention_factor")
        if not (1.0 <= self.expand_factor < math.inf):
            raise DataValidationError("expand_factor must be finite and >= 1")
        if self.normalization not in ("fraction", "minmax"):
            raise DataValidationError(f"unknown normalization {self.normalization!r}")
        if self.weights_mode not in ("ap", "uniform"):
            raise DataValidationError(f"unknown weights mode {self.weights_mode!r}")
