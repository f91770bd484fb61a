"""Byte-identity golden check for synth, fuse, evaluate and pipeline.

Runs the CLI on a 96x128 synthetic fixture (12 objects, scales 0.5 and 1.0,
used as its own calibration split) and compares the sha256 of every output
file with the digests below.  A refactor that claims unchanged output must
leave them unchanged; a deliberate output change updates them and says why.

The default ``pipeline`` is left out: its attention and instance scores go
through ``np.exp``, whose SIMD implementation may differ by an ulp between
CPUs, so those digests would not be portable.  ``pipeline --weights uniform
--beta-const 0.3`` skips the attention, so its logits, labels and overlay
are pinned, and so is every instance except its score.  The worker-count
determinism tests cover the default path on one machine.
"""

import hashlib
import json

from segfuse.cli import main

GOLDEN = {
    "eval/fused_horizontal.json":
        "5aabd576657a123f8808637d0d1c72c9aa84b52954fd255deec5624b8b1748da",
    "eval/input.json":
        "daec4a6597da570eb6536296ac102ab369c15b38c3c117f3216c92c6eae78b92",
    "fuse/fused_horizontal.json":
        "2d52d99f56410f2be010294ee7092a8e6ebf430ee45e9a8a97e98696a0d41b60",
    "fuse/fused_vertical.json":
        "5d3d9d021e356209abadff0b76c136bfc2b74013f4c22776bef6e5f1444318f8",
    "fuse/weights_horizontal.json":
        "c5aa3660805bd8c221084bc08c3edaad4b2b40fde62b373fe43da03fc33656ea",
    "fuse/weights_vertical.json":
        "4923df0808b0e725dd8d9ea8b493b110186a43c2cdb6d27fdb1093645f8efbb2",
    "synth/manifest.json":
        "c034954be22aac7e74a94b35a0a6b5f41f035e22475ff92a26844f262004d495",
    "synth/tensors/m0_s0.5_alpha.tns":
        "b8854f59c79f90cfac5710fab7975b7e9909ba17609f0d7a0b316f93f5394af0",
    "synth/tensors/m0_s0.5_logits.tns":
        "c82433e8bae5a4da1e8395e0db461d0b9c6142effb71e549345ff74527eb143d",
    "synth/tensors/m0_s1.0_alpha.tns":
        "edc5899f767f877ff12edca5bf429a6bcb9f200c0380b7a7f1dce90ad77c8aef",
    "synth/tensors/m0_s1.0_logits.tns":
        "1f0b4580effe6d6e8522bb68ae7a74a1d1b781f6d0332211ac170f8e21991e77",
    "synth/tensors/m1_s0.5_alpha.tns":
        "4c318038604e565c56cfdca848366e9646e00a5111476e3da2aed84561886ca1",
    "synth/tensors/m1_s0.5_logits.tns":
        "aeab03bdbc094bfab273063c2ff2542dc6514f3670a5ad940292b648b42a3f6c",
    "synth/tensors/m1_s1.0_alpha.tns":
        "ccdad36938c3464f079cd3f2da7123e8909675bb8419a61baaeb7f1c76959640",
    "synth/tensors/m1_s1.0_logits.tns":
        "9b21673d63227647829c5c12b6f416e8ca59816426871915239c41ef341d1487",
    "synth/tensors/m2_s0.5_alpha.tns":
        "f7df29c484c2c5807177c86c4240b6dcd7f1b2e8f2c51a91b12ca6be2eff6dfb",
    "synth/tensors/m2_s0.5_logits.tns":
        "e99588a0e0291df44825041a275cdda5fdcf510721f9e0b6091edbd4d10f3827",
    "synth/tensors/m2_s1.0_alpha.tns":
        "d20ac6593ec516a5e0f15cb3ae562943d2f41723a81b855b78ce53137963754a",
    "synth/tensors/m2_s1.0_logits.tns":
        "2f7a15295ca550876d4ae6c8bf73781caa779f7d211d870a4f3832fec8a80b5c",
}


PIPELINE_GOLDEN = {
    "fused_logits.tns":
        "08d0c7aed4c0420f0ed775e7246ad4a28aeff985bfdb9d9fc0526c418c20e888",
    "labels.tns":
        "b43df88006eb34d27c5ab288d788c5c7f6d28ec8192f7d465c7452923e265734",
    "overlay.ppm":
        "6679ba9adc625cbb9d201b314661999280094fc0f4417a420105f40894898657",
}

# sha256 over the (object_id, component, bbox, rle) of every pipeline instance
PIPELINE_INSTANCES_GOLDEN = (
    "1b8fef43bb9729f9099a28d30056a7bf436675694a345e856a33995091eaf559")


def _synth(out_dir):
    assert main(["synth", "--seed", "11", "--objects", "12", "--height", "96",
                 "--width", "128", "--scales", "0.5", "1.0",
                 "--out-dir", str(out_dir)]) == 0
    return out_dir / "manifest.json"


def _digests(root):
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_outputs_match_golden_digests(tmp_path):
    manifest = _synth(tmp_path / "synth")
    assert main(["fuse", str(manifest), "--calib", str(manifest),
                 "--grouping", "both", "--out-dir", str(tmp_path / "fuse")]) == 0
    assert main(["evaluate", str(manifest), str(manifest),
                 "--out", str(tmp_path / "eval" / "input.json")]) == 0
    assert main(["evaluate", str(tmp_path / "fuse" / "fused_horizontal.json"),
                 str(manifest),
                 "--out", str(tmp_path / "eval" / "fused_horizontal.json")]) == 0
    assert _digests(tmp_path) == GOLDEN


def test_uniform_constant_gate_pipeline_matches_golden_digests(tmp_path):
    manifest = _synth(tmp_path / "synth")
    out = tmp_path / "pipeline"
    assert main(["pipeline", str(manifest), "--weights", "uniform",
                 "--beta-const", "0.3", "--out-dir", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PIPELINE_GOLDEN} == PIPELINE_GOLDEN
    doc = json.loads((out / "instances.json").read_text(encoding="utf-8"))
    rows = [[r["object_id"], r["component"], r["bbox"], r["rle"]]
            for r in doc["instances"]]
    assert rows
    digest = hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()
    assert digest == PIPELINE_INSTANCES_GOLDEN
