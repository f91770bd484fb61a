"""The public surface: ``segfuse.__all__`` and the ``PipelineConfig`` fields
are pinned name by name, so a change to either is a deliberate edit here."""

from dataclasses import fields

import segfuse
from segfuse.config import PipelineConfig

EXPECTED = {
    "ApTable", "AttentionMap", "BBox", "COMPONENTS",
    "DataValidationError", "DegenerateAttentionError", "FormatError",
    "FusionWeights", "LogitMap", "MaskInstance", "PipelineConfig",
    "PredictionBundle", "RleMask", "SegfuseError", "ShapeError", "argmax_channel", "attention_to_map", "average_precision",
    "bilinear_resize", "binarize", "compute_weights", "crop",
    "difference_matrix", "expand_bbox", "fuse_global_local", "fuse_logits",
    "fuse_masks", "group_ap", "iou", "local_attention", "match_predictions",
    "normalize_ap", "rle_decode", "rle_encode", "row_normalize",
    "run_inference_chain", "softmax_rows", "tight_bbox",
}


def test_all_is_exactly_the_expected_names():
    assert len(EXPECTED) == 38
    assert len(segfuse.__all__) == len(set(segfuse.__all__))
    assert set(segfuse.__all__) == EXPECTED


def test_every_name_resolves():
    for name in segfuse.__all__:
        assert getattr(segfuse, name) is not None, name


def test_config_holds_only_the_algorithm_parameters():
    assert [f.name for f in fields(PipelineConfig)] == [
        "iou_threshold", "normalization", "attention_factor",
        "binarize_threshold", "alpha_const", "neutral_beta", "beta_const",
        "expand_factor", "weights_mode"]
