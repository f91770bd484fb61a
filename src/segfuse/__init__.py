"""segfuse: deterministic fusion of multi-model, multi-scale segmentation."""

from .attention import (attention_to_map, difference_matrix,
                        fuse_global_local, local_attention, row_normalize)
from .bundle import PredictionBundle
from .config import PipelineConfig
from .errors import (DataValidationError, DegenerateAttentionError,
                     FormatError, SegfuseError, ShapeError)
from .fusion import (FusionWeights, binarize, compute_weights, fuse_logits,
                     fuse_masks)
from .grids import (AttentionMap, LogitMap, argmax_channel, bilinear_resize,
                    softmax_rows)
from .hierarchy import run_inference_chain
from .masks import (COMPONENTS, BBox, MaskInstance, RleMask, crop, expand_bbox,
                    iou, rle_decode, rle_encode, tight_bbox)
from .metrics import (ApTable, average_precision, group_ap,
                      match_predictions, normalize_ap)

__version__ = "0.1.0"

__all__ = [
    "ApTable", "AttentionMap", "BBox", "COMPONENTS", "DataValidationError",
    "DegenerateAttentionError", "FormatError", "FusionWeights", "LogitMap",
    "MaskInstance", "PipelineConfig", "PredictionBundle", "RleMask",
    "SegfuseError", "ShapeError",
    "argmax_channel", "attention_to_map", "average_precision",
    "bilinear_resize", "binarize", "compute_weights", "crop",
    "difference_matrix", "expand_bbox", "fuse_global_local", "fuse_logits",
    "fuse_masks", "group_ap", "iou", "local_attention", "match_predictions",
    "normalize_ap", "rle_decode", "rle_encode", "row_normalize",
    "run_inference_chain", "softmax_rows", "tight_bbox",
]
