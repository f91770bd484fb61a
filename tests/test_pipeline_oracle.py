"""The ``pipeline`` command against its whole-frame oracle.

Each case runs ``segfuse pipeline`` on a small synthetic fixture and
compares all five output files byte for byte with what the writers write
from ``reference.pipeline_ref``'s arrays: no bands, no sink, only the
scalar oracles composed in the paper's order.  The cases cover heights on
either side of a band edge and two bands and more, finest scales on and
off the reference grid, near-equal grids, runs with and without alpha
maps, the gate and a constant gate, and AP and uniform weights.
"""

from dataclasses import replace

import numpy as np
import pytest

from segfuse import pipeline
from segfuse.bundle import PredictionBundle
from segfuse.cli import main
from segfuse.config import PipelineConfig
from segfuse.formats import (load_manifest, save_manifest, save_tensor,
                             write_json_report, write_overlay)
from segfuse.grids import _BAND_ROWS
from segfuse.masks import BBox, MaskInstance, RleMask
from segfuse.synth import generate

from reference import pipeline_ref

# name -> (height, width, scales, alpha maps, beta const, weights)
CASES = {
    "s1_h63_gate_ap": (63, 33, (1.0,), True, None, "ap"),
    "s05_h64_gate_uniform_noalpha": (64, 35, (0.5, 1.0), False, None,
                                     "uniform"),
    "s05_h130_beta_uniform": (130, 31, (0.5, 1.0), True, 0.5, "uniform"),
    "s025_05_h130_gate_ap": (130, 37, (0.25, 0.5), True, None, "ap"),
    "s025_05_h65_beta_ap_noalpha": (65, 29, (0.25, 0.5), False, 0.25, "ap"),
    "s0999_h65_gate_ap": (65, 27, (0.999, 1.0), True, None, "ap"),
    "s0999_h130_gate_uniform_noalpha": (130, 25, (0.999, 1.0), False, None,
                                        "uniform"),
}

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


@pytest.mark.parametrize("case", list(CASES))
def test_pipeline_matches_the_whole_frame_oracle(tmp_path, case):
    height, width, scales, alphas, beta, weights = CASES[case]
    paths = []
    for seed in (2, 3):
        bundle = generate(seed, objects=3, height=height, width=width,
                          scales=scales)
        if not alphas:
            bundle = replace(bundle, alpha_maps={})
        paths.append(save_manifest(bundle, tmp_path / f"s{seed}" /
                                   "manifest.json"))
    image, calib = paths
    argv = ["pipeline", str(image), "--out-dir", str(tmp_path / "cli")]
    argv += (["--calib", str(calib)] if weights == "ap"
             else ["--weights", "uniform"])
    if beta is not None:
        argv += ["--beta-const", str(beta)]
    assert main(argv) == 0

    bundle = load_manifest(image)
    cfg = PipelineConfig(weights_mode=weights, beta_const=beta)
    instances = _write_oracle(
        bundle, load_manifest(calib, maps=False) if weights == "ap" else None,
        cfg, tmp_path / "oracle")
    for name in OUTPUTS:
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name
    assert instances
    if height > 2 * _BAND_ROWS:
        # the three objects sit in one row, so their regions cross the
        # first band edge
        regions = pipeline._object_regions(bundle, cfg).values()
        assert all(r.y0 < _BAND_ROWS < r.y1 for r in regions)
