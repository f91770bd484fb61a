"""The ``pipeline`` command against its whole-frame oracle.

Each case runs ``segfuse pipeline`` on a small synthetic fixture and
compares all five output files byte for byte with what the writers write
from ``reference.pipeline_ref``'s arrays: no bands, no sink, only the
scalar oracles composed in the paper's order.  The cases cover heights on
either side of a band edge and two bands and more, finest scales on and
off the reference grid, near-equal grids, runs with synth's alpha maps,
random ones and none, the gate and a constant gate, uniform weights and
AP weights under both normalizations.  Hand-built manifests add what
synth does not draw: a height of 1, random logits, a coarser level of
more than one band, with random alpha maps, a -0.0 at the first band edge
whose sign the row below it decides, two objects whose shells overlap,
and a model that misses an object.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from segfuse import pipeline
from segfuse.bundle import PredictionBundle
from segfuse.cli import main
from segfuse.config import PipelineConfig
from segfuse.formats import (load_manifest, load_tensor, save_manifest,
                             save_tensor, write_json_report, write_overlay)
from segfuse.grids import AttentionMap, LogitMap, _band_rows, scaled_dim
from segfuse.masks import (COMPONENTS, BBox, MaskInstance, RleMask,
                           rle_encode, tight_bbox)
from segfuse.synth import generate

from reference import pipeline_ref

# name -> (height, width, scales, alpha maps, beta const, weights); alpha
# maps are synth's, random, or none.  The widths make reference-grid bands
# of 60 to 68 rows, so every grid of more than one row crosses a band edge
CASES = {
    "s1_h63_gate_ap": (63, 133, (1.0,), "synth", None, "ap"),
    "s05_h64_gate_uniform_noalpha": (64, 135, (0.5, 1.0), None, None,
                                     "uniform"),
    "s05_h130_beta_uniform": (130, 127, (0.5, 1.0), "synth", 0.5, "uniform"),
    "s025_05_h130_gate_ap": (130, 133, (0.25, 0.5), "synth", None, "ap"),
    "s025_05_h65_beta_ap_noalpha": (65, 129, (0.25, 0.5), None, 0.25, "ap"),
    "s0999_h65_gate_ap": (65, 131, (0.999, 1.0), "synth", None, "ap"),
    "s0999_h130_gate_uniform_noalpha": (130, 125, (0.999, 1.0), None, None,
                                        "uniform"),
    "s05_h130_gate_ap_random_alpha": (130, 119, (0.5, 1.0), "random", None,
                                      "ap"),
    "s025_05_h65_gate_uniform_random_alpha": (65, 127, (0.25, 0.5), "random",
                                              None, "uniform"),
}

# hand-built manifests, for shapes synth does not draw: name -> (height,
# width, scales, beta const, weights, variant); the variant plants signed
# zeros, shifts object 1 onto object 0 ("touching"), or drops model m1's
# instances of object 1 from the image ("missed")
HAND_CASES = {
    "h1_s1_gate_ap": (1, 29, (1.0,), None, "ap", None),
    "h1_s05_beta_uniform": (1, 31, (0.5, 1.0), 0.75, "uniform", None),
    "h1_s0999_gate_ap": (1, 27, (0.999, 1.0), None, "ap", None),
    "h130_s05_gate_ap": (130, 127, (0.5, 1.0), None, "ap", None),
    "h130_s05_signed_zeros": (130, 128, (0.5, 1.0), 1.0, "uniform",
                              "signed_zeros"),
    "h130_s05_touching_gate_ap": (130, 127, (0.5, 1.0), None, "ap",
                                  "touching"),
    "h130_s05_missed_gate_ap": (130, 127, (0.5, 1.0), None, "ap", "missed"),
    # a coarser level of two bands, of 126 rows and 3, at scale 0.5
    "h258_s05_gate_ap": (258, 130, (0.5, 1.0), None, "ap", None),
}

# columns that the "touching" variant moves object 1's boxes to the left:
# its shell then overlaps object 0's by 3 columns
TOUCH_SHIFT = 5

# reference-grid row -> the columns where ``_plant_signed_zeros`` makes the
# fused frame -0.0: the first band's last row and the second band's first,
# on the 128-wide grid of the "signed_zeros" case, whose bands are 64 rows
EDGE = _band_rows(HAND_CASES["h130_s05_signed_zeros"][1])
PLANTED = {EDGE - 1: (3, 11, 19), EDGE: (7, 15, 23)}

OUTPUTS = ("fused_logits.tns", "labels.tns", "overlay.ppm", "instances.json",
           "report.json")


def _write_oracle(bundle, calib, cfg, out_dir):
    """The five outputs, written by the library writers from the oracle."""
    logits, labels, instances, records = pipeline_ref(bundle, calib, cfg)
    height, width = labels.shape
    carved = PredictionBundle(
        image_id=bundle.image_id, height=height, width=width,
        models=(pipeline.PIPELINE_MODEL_ID,), scales=(1.0,),
        instances=tuple(
            MaskInstance(mask=RleMask(height, width, counts), bbox=BBox(*box),
                         component=comp, object_id=oid, score=score,
                         model_id=pipeline.PIPELINE_MODEL_ID, scale=1.0,
                         uid=k)
            for k, (oid, comp, counts, box, score) in enumerate(instances)),
        ground_truth=bundle.ground_truth)
    out_dir.mkdir()
    save_tensor(out_dir / OUTPUTS[0], logits)
    save_tensor(out_dir / OUTPUTS[1], labels.astype(np.float32))
    write_overlay(height, width, labels, out_dir / OUTPUTS[2])
    save_manifest(carved, out_dir / OUTPUTS[3])
    write_json_report({
        "schema_version": 1, "kind": "pipeline_report",
        "image_id": bundle.image_id, "scales": list(bundle.scales),
        "weights": records,
        "ap": pipeline._evaluation_records(carved, cfg)}, out_dir / OUTPUTS[4])
    return instances


def _random_alphas(bundle, seed):
    """``bundle`` with its alpha maps replaced by random ones: synth's are
    mirror-symmetric, so a read of the mirrored rows would go unseen."""
    rng = np.random.default_rng(seed)
    return replace(bundle, alpha_maps={
        key: AttentionMap.from_array(
            rng.random(alpha.data.shape[:2]).astype(np.float32))
        for key, alpha in bundle.alpha_maps.items()})


def _hand_bundle(seed, height, width, scales, shift=0, missed=False):
    """A bundle of two models and two objects side by side, with random
    logits and random alpha maps at every scale.  Each object's components
    nest in boxes over its rows; ground truth fills each box, and each
    model's mask is a random fill of it.  Object 1's boxes sit ``shift``
    columns to the left of their cell, and with ``missed`` model m1 has no
    instance of object 1."""
    rng = np.random.default_rng(seed)
    models, objects = ("m0", "m1"), 2
    cell = width // objects
    rows = (height // 4, height - height // 4)
    truth, preds = [], []
    for oid in range(objects):
        for k, comp in enumerate(COMPONENTS):
            dy = min(k, (rows[1] - rows[0] - 1) // 2)
            box = BBox(oid * cell + 1 + k, rows[0] + dy,
                       (oid + 1) * cell - 1 - k,
                       rows[1] - dy).shifted(-shift * oid, 0)
            bits = np.zeros((height, width), dtype=bool)
            bits[box.slices] = True
            truth.append(MaskInstance(
                mask=rle_encode(bits), bbox=box, component=comp,
                object_id=oid, score=1.0, model_id="gt", scale=1.0,
                uid=len(truth)))
            for model in models:
                if missed and (model, oid) == ("m1", 1):
                    continue
                bits = np.zeros((height, width), dtype=bool)
                bits[box.slices] = rng.random((box.height, box.width)) < 0.8
                bits[box.y0, box.x0] = True
                preds.append((rle_encode(bits), tight_bbox(bits), comp, oid,
                              round(float(rng.uniform(0.3, 1.0)), 4), model))
    logit_maps, alpha_maps = {}, {}
    for scale in scales:
        sh, sw = scaled_dim(height, scale), scaled_dim(width, scale)
        for model in models:
            logit_maps[model, scale] = LogitMap.from_array(
                rng.normal(scale=2.0, size=(sh, sw, 5)).astype(np.float32))
            alpha_maps[model, scale] = AttentionMap.from_array(
                rng.random((sh, sw)).astype(np.float32))
    return PredictionBundle(
        image_id=f"hand-{seed}", height=height, width=width, models=models,
        scales=scales, ground_truth=tuple(truth),
        instances=tuple(
            MaskInstance(mask=rle, bbox=box, component=comp, object_id=oid,
                         score=score, model_id=model, scale=scale, uid=uid)
            for uid, (scale, (rle, box, comp, oid, score, model)) in
            enumerate((s, p) for s in scales for p in preds)),
        logit_maps=logit_maps, alpha_maps=alpha_maps)


def _plant_signed_zeros(bundle):
    """``bundle``, of scales (0.5, 1.0) on an even grid, with channel 0 of
    every map set about the first band edge so that, under a constant gate
    of 1, the fused finest level is -0.0 at the ``PLANTED`` pixels and
    negative to their right and below.

    A -0.0 cannot be planted in the logits themselves: the blend adds the
    object maps' +0.0 to it.  On equal grids the fold keeps each value.  So
    the coarse level holds subnormals whose 2x upsampling rounds to -0.0,
    its gate is 1 over those rows, and the finest level is negative there,
    so that the fold takes the coarse value and its sign."""
    tiny = np.float32(2.0 ** -149)  # the smallest subnormal
    assert EDGE == _band_rows(bundle.width) == 64
    # coarse rows 31 and 32 are the taps of reference rows 63 and 64;
    # reference column 2j + 1 taps coarse columns j and j + 1
    patterns = {EDGE - 1: ((0, -tiny), (0, -3 * tiny)),
                EDGE: ((0, 0), (0, -tiny))}
    logit_maps, alpha_maps = {}, dict(bundle.alpha_maps)
    for (model, scale), logits in bundle.logit_maps.items():
        data = logits.data.copy()
        if scale == 1.0:
            data[EDGE - 2:EDGE + 3, :, 0] = -1.0
        else:
            rows = data[EDGE // 2 - 2:EDGE // 2 + 2, :, 0]
            rows[:] = -1.0
            for row, columns in PLANTED.items():
                for x in columns:
                    rows[1:3, x // 2:x // 2 + 2] = patterns[row]
            alpha = bundle.alpha_maps[model, scale].data.copy()
            alpha[EDGE // 2 - 2:EDGE // 2 + 2] = 1.0
            alpha_maps[model, scale] = AttentionMap.from_array(alpha)
        logit_maps[model, scale] = LogitMap.from_array(data)
    return replace(bundle, logit_maps=logit_maps, alpha_maps=alpha_maps)


def _check_against_oracle(tmp_path, image, calib, beta, weights,
                          normalization="fraction"):
    """Run the CLI ``pipeline`` on the manifests of ``image`` and, with AP
    weights, ``calib``; assert that its five outputs are the oracle's bytes
    and return the oracle's carving."""
    image_path = save_manifest(image, tmp_path / "image" / "manifest.json")
    argv = ["pipeline", str(image_path), "--out-dir", str(tmp_path / "cli")]
    if weights == "ap":
        calib_path = save_manifest(calib, tmp_path / "calib" / "manifest.json")
        argv += ["--calib", str(calib_path)]
    else:
        argv += ["--weights", "uniform"]
    if beta is not None:
        argv += ["--beta-const", str(beta)]
    assert main([*argv, "--normalization", normalization]) == 0

    cfg = PipelineConfig(weights_mode=weights, beta_const=beta,
                         normalization=normalization)
    instances = _write_oracle(
        load_manifest(image_path),
        load_manifest(calib_path, maps=False) if weights == "ap" else None,
        cfg, tmp_path / "oracle")
    for name in OUTPUTS:
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name
    assert instances
    return instances


@pytest.mark.parametrize("case", list(CASES))
def test_pipeline_matches_the_whole_frame_oracle(tmp_path, case):
    height, width, scales, alphas, beta, weights = CASES[case]
    image, calib = (generate(seed, objects=3, height=height, width=width,
                             scales=scales) for seed in (2, 3))
    if alphas is None:
        image, calib = (replace(b, alpha_maps={}) for b in (image, calib))
    elif alphas == "random":
        image, calib = _random_alphas(image, 4), _random_alphas(calib, 5)
    _check_against_oracle(tmp_path, image, calib, beta, weights)
    step = _band_rows(width)
    assert height > step
    if height == 130:
        # the three objects sit in one row, so their regions cross the
        # first band edge
        regions = pipeline._object_regions(image, PipelineConfig()).values()
        assert all(r.y0 < step < r.y1 for r in regions)


@pytest.mark.parametrize("case", list(HAND_CASES))
def test_hand_built_manifest_matches_the_whole_frame_oracle(tmp_path, case):
    height, width, scales, beta, weights, variant = HAND_CASES[case]
    shift = TOUCH_SHIFT if variant == "touching" else 0
    image = _hand_bundle(2, height, width, scales, shift,
                         missed=variant == "missed")
    if variant == "signed_zeros":
        image = _plant_signed_zeros(image)
    # the calibration split keeps every instance, so a missed object keeps
    # its horizontal weights
    calib = _hand_bundle(3, height, width, scales, shift)
    _check_against_oracle(tmp_path, image, calib, beta, weights)
    if height == 258:
        # the coarser scale's pass and gate each yield two bands
        sh, sw = scaled_dim(height, scales[0]), scaled_dim(width, scales[0])
        assert _band_rows(sw) < sh < 2 * _band_rows(sw)
    if variant == "touching":
        # every model's two shells overlap, over rows across the first
        # band edge, so their local maps are summed there
        for scale in scales:
            for model in image.models:
                shells = [i.bbox for i in image.instances
                          if (i.model_id, i.scale, i.component)
                          == (model, scale, "shell")]
                overlap = shells[0].intersection(shells[1])
                assert overlap is not None
                assert overlap.y0 < _band_rows(width) < overlap.y1
    if variant == "missed":
        held = {(i.model_id, i.object_id) for i in image.instances}
        assert ("m1", 1) not in held and ("m0", 1) in held
        assert ("m1", 1) in {(i.model_id, i.object_id)
                             for i in calib.instances}
    if variant == "signed_zeros":
        # the -0.0 in the last row of the first band stays only because the
        # first row of the next band is negative below it
        logits = load_tensor(tmp_path / "cli" / OUTPUTS[0])
        for y, columns in PLANTED.items():
            for x in columns:
                assert logits[y, x, 0] == 0 and np.signbit(logits[y, x, 0])
                assert logits[y, x + 1, 0] < 0 and logits[y + 1, x, 0] < 0


def test_minmax_weights_match_the_whole_frame_oracle(tmp_path):
    # the byte ladder's "small" geometry: four models whose calibration APs
    # differ, so that min-max weights are not the fraction ones and a run
    # that ignored --normalization would write another report
    image, calib = (generate(seed, objects=9, models=4, perturb=4,
                             height=64, width=64, scales=(0.5, 1.0))
                    for seed in (2, 3))
    _check_against_oracle(tmp_path, image, calib, None, "ap", "minmax")
    argv = ["pipeline", str(tmp_path / "image" / "manifest.json"), "--calib",
            str(tmp_path / "calib" / "manifest.json"), "--out-dir",
            str(tmp_path / "fraction")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "fraction" / OUTPUTS[4]).read_text())
    assert report != json.loads((tmp_path / "cli" / OUTPUTS[4]).read_text())
