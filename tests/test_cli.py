"""CLI behavior: wiring, exit codes, determinism, degenerate identities."""

import json
import re
import shutil
import struct
import threading
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from segfuse import cli, formats, masks, pipeline
from segfuse.bundle import PredictionBundle
from segfuse.cli import build_parser, main
from segfuse.config import PipelineConfig
from segfuse.errors import DataValidationError
from segfuse.formats import (load_manifest, load_tensor, save_manifest,
                             save_tensor, write_json_report, write_overlay)
from segfuse.fusion import fuse_logits
from segfuse.grids import LogitMap, _band_rows
from segfuse.masks import COMPONENTS, BBox, scale_box
from segfuse.pipeline import run_pipeline, write_pipeline_outputs

from conftest import block_mask, make_instance
from reference import local_map_ref, region_planes


def constant_chain_manifest(tmp_path):
    """One model, three scales with constant logits 1, 2, 4; no instances."""
    maps = {("m0", 0.5): LogitMap.full(4, 4, 5, 1.0),
            ("m0", 1.0): LogitMap.full(8, 8, 5, 2.0),
            ("m0", 2.0): LogitMap.full(16, 16, 5, 4.0)}
    bundle = PredictionBundle(image_id="const", height=8, width=8,
                              models=("m0",), scales=(0.5, 1.0, 2.0),
                              instances=(), logit_maps=maps)
    return save_manifest(bundle, tmp_path / "const" / "manifest.json")


def single_model_manifest(tmp_path, name="single"):
    h = w = 16
    comps = {"shell": block_mask(h, w, 2, 14, 2, 14),
             "meat": block_mask(h, w, 4, 12, 4, 12),
             "gonad": block_mask(h, w, 6, 10, 6, 10),
             "muscle": block_mask(h, w, 7, 9, 7, 9)}
    instances = tuple(
        make_instance(bits, component=c, object_id=0, score=0.9,
                      model_id="m0", uid=k)
        for k, (c, bits) in enumerate(comps.items()))
    gts = tuple(
        make_instance(bits, component=c, object_id=0, score=1.0,
                      model_id="gt", uid=k)
        for k, (c, bits) in enumerate(comps.items()))
    maps = {("m0", 1.0): LogitMap.full(h, w, 5, 0.1)}
    bundle = PredictionBundle(image_id=name, height=h, width=w, models=("m0",),
                              scales=(1.0,), instances=instances,
                              ground_truth=gts, logit_maps=maps)
    return save_manifest(bundle, tmp_path / name / "manifest.json")


def _tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def _edited(manifest, name, edit):
    """A copy of ``manifest`` named ``name`` beside it, so its tensor paths
    still resolve, with ``edit`` applied to its JSON."""
    doc = json.loads(manifest.read_text())
    edit(doc)
    path = manifest.parent / name
    path.write_text(json.dumps(doc))
    return path


def _null_ids(field):
    def edit(doc):
        for rec in doc[field]:
            rec["object_id"] = None
    return edit


def _drop(field, model, scale):
    def edit(doc):
        doc[field] = [r for r in doc[field]
                      if (r["model"], r["scale"]) != (model, scale)]
    return edit


def synth_fixture(tmp_path, seed=21, scales=("0.5", "1.0")):
    out = tmp_path / f"fx{seed}"
    assert main(["synth", "--seed", str(seed), "--out-dir", str(out),
                 "--height", "64", "--width", "64", "--objects", "2",
                 "--scales", *scales]) == 0
    return out / "manifest.json"


class TestSynthCommand:
    def test_writes_manifest_and_tensors(self, tmp_path):
        path = synth_fixture(tmp_path)
        assert path.is_file()
        bundle = load_manifest(path)
        assert bundle.models == ("m0", "m1", "m2")

    def test_seed_reproducibility_bytewise(self, tmp_path):
        a = synth_fixture(tmp_path, seed=5)
        b_dir = tmp_path / "again"
        assert main(["synth", "--seed", "5", "--out-dir", str(b_dir),
                     "--height", "64", "--width", "64", "--objects", "2",
                     "--scales", "0.5", "1.0"]) == 0
        b = b_dir / "manifest.json"
        assert a.read_bytes() == b.read_bytes()
        for t in sorted((a.parent / "tensors").iterdir()):
            assert t.read_bytes() == (b.parent / "tensors" / t.name).read_bytes()

    @pytest.mark.parametrize("flag, value, named", [
        ("--objects", "0", "object"),
        ("--height", "8", "16x16"),
        ("--perturb", "-1", "perturbation"),
        ("--perturb", "4097", "perturb"),
        ("--perturb", "9223372036854775807", "perturb"),
        ("--seed", "-1", "seed: -1"),
        ("--scales", "1.0 0.5", "scales"),
        ("--scales", "nan", "scales"),
        ("--scales", "0.5 inf", "scales"),
        ("--scales", "1e308", "scales"),
        ("--scales", "0.5 1e308", "scales"),
    ])
    def test_bad_fixture_setting_is_data_error(self, tmp_path, capsys, flag,
                                               value, named):
        code = main(["synth", "--out-dir", str(tmp_path / "bad"), flag,
                     *value.split()])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("scales", ["1e12", "0.5 100"])
    def test_scale_above_bound_is_data_error(self, tmp_path, capsys, scales):
        # rejected before any mask is drawn; the small canvas keeps the
        # grids of an unbounded render small
        code = main(["synth", "--height", "16", "--width", "16",
                     "--out-dir", str(tmp_path / "bad"),
                     "--scales", *scales.split()])
        err = capsys.readouterr().err
        assert code == 2
        assert "scales:" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("canvas, named", [
        ("--height 100000 --width 100000 --scales 1.0", "height: 100000"),
        ("--height 16 --width 4097 --scales 1.0", "width: 4097"),
        # the canvas is drawn at scale 1.0 whatever the scales
        ("--height 100000 --scales 0.01", "height: 100000"),
        ("--height 1025 --scales 0.5 4.0", "height: 1025 at scale 4.0"),
        pytest.param("--width 1" + "0" * 400 + " --scales 1.0",
                     "width: 10000", id="width-1e400"),
    ])
    def test_canvas_above_bound_is_data_error(self, tmp_path, capsys, canvas,
                                              named):
        # rejected before any grid or mask is allocated
        code = main(["synth", "--out-dir", str(tmp_path / "bad"),
                     *canvas.split()])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "4096" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("canvas, object_id, component", [
        ("--objects 20 --height 16 --width 16", 0, "gonad"),
        ("--objects 400", 18, "muscle"),
    ])
    def test_crowded_canvas_is_data_error(self, tmp_path, capsys, canvas,
                                          object_id, component):
        code = main(["synth", "--out-dir", str(tmp_path / "bad"),
                     *canvas.split()])
        err = capsys.readouterr().err
        assert code == 2
        assert (f"objects: object {object_id}'s {component} covers no pixel "
                f"on a ") in err
        assert "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_largest_scale_renders(self, tmp_path):
        out = tmp_path / "big"
        assert main(["synth", "--height", "16", "--width", "16", "--objects",
                     "1", "--scales", "4.0", "--out-dir", str(out)]) == 0
        assert load_manifest(out / "manifest.json").logit_maps[
            ("m0", 4.0)].shape[:2] == (64, 64)


class TestFuseCommand:
    def test_single_model_fusion_is_identity(self, tmp_path):
        manifest = single_model_manifest(tmp_path)
        out = tmp_path / "fused"
        assert main(["fuse", str(manifest), "--calib", str(manifest),
                     "--out-dir", str(out)]) == 0
        fused = load_manifest(out / "fused_vertical.json")
        src = load_manifest(manifest)
        assert len(fused.instances) == len(src.instances)
        by_comp = {i.component: i for i in fused.instances}
        for inst in src.instances:
            twin = by_comp[inst.component]
            assert twin.mask.counts == inst.mask.counts
            assert twin.score == inst.score
        weights = json.loads((out / "weights_vertical.json").read_text())
        assert all(r["weights"] == {"m0": 1.0} for r in weights["records"])

    def test_missing_calib_is_usage_error(self, tmp_path):
        manifest = single_model_manifest(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["fuse", str(manifest), "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 1

    def test_calib_without_ground_truth_is_data_error(self, tmp_path):
        manifest = single_model_manifest(tmp_path)
        bare = load_manifest(manifest)
        from dataclasses import replace
        no_gt = replace(bare, ground_truth=())
        bare_path = save_manifest(no_gt, tmp_path / "nogt" / "m.json")
        code = main(["fuse", str(manifest), "--calib", str(bare_path),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_uniform_weights_need_no_calib(self, tmp_path):
        manifest = synth_fixture(tmp_path)
        out = tmp_path / "uni"
        assert main(["fuse", str(manifest), "--weights", "uniform",
                     "--out-dir", str(out)]) == 0
        weights = json.loads((out / "weights_vertical.json").read_text())
        for r in weights["records"]:
            assert all(v == pytest.approx(1 / 3) for v in r["weights"].values())

    def test_both_grouping_writes_two_sets(self, tmp_path):
        manifest = synth_fixture(tmp_path)
        out = tmp_path / "both"
        assert main(["fuse", str(manifest), "--calib", str(manifest),
                     "--grouping", "both", "--out-dir", str(out)]) == 0
        assert (out / "fused_vertical.json").is_file()
        assert (out / "fused_horizontal.json").is_file()

    def test_both_grouping_writes_nothing_when_one_fails(self, tmp_path,
                                                         capsys):
        manifest = synth_fixture(tmp_path)
        calib = _edited(manifest, "no_ids.json", _null_ids("ground_truth"))
        out = tmp_path / "both"
        assert main(["fuse", str(manifest), "--calib", str(calib),
                     "--grouping", "both", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "horizontal grouping requires object ids" in err, err
        assert not out.exists()

    def test_matches_library_composition(self, tmp_path):
        # CLI output equals running the module pipeline by hand
        from segfuse.config import PipelineConfig
        from segfuse.pipeline import run_fuse
        manifest = synth_fixture(tmp_path)
        out = tmp_path / "cli"
        assert main(["fuse", str(manifest), "--calib", str(manifest),
                     "--out-dir", str(out)]) == 0
        bundle = load_manifest(manifest)
        fused, _ = run_fuse(bundle, bundle, PipelineConfig(), "vertical")
        got = load_manifest(out / "fused_vertical.json")
        assert len(got.instances) == len(fused.instances)
        for a, b in zip(got.instances, fused.instances):
            assert a.mask.counts == b.mask.counts and a.score == b.score


class TestFuseAndEvaluateDecodeNoMask:
    def test_outputs_are_the_same_without_the_decoder(self, tmp_path,
                                                      monkeypatch):
        # fuse averages each cell on its runs and every instance's box is
        # checked from its runs, so neither command needs rle_decode
        image = synth_fixture(tmp_path, seed=21, scales=("1.0",))
        calib = synth_fixture(tmp_path, seed=22, scales=("1.0",))

        def run(out):
            assert main(["fuse", str(image), "--grouping", "both", "--calib",
                         str(calib), "--out-dir", str(out)]) == 0
            assert main(["evaluate", str(out / "fused_vertical.json"),
                         str(image), "--out", str(out / "evaluation.json")]) == 0
            return _tree_bytes(out)

        want = run(tmp_path / "decoded")
        assert len(want) == 5

        def decode(*args, **kwargs):
            raise AssertionError("a mask was decoded")

        monkeypatch.setattr(masks, "rle_decode", decode)
        assert run(tmp_path / "runs") == want


class TestCalibrationModels:
    @pytest.mark.parametrize("command", ["fuse", "pipeline"])
    @pytest.mark.parametrize("calib_models", ["2", "4"],
                             ids=["lacks-a-model", "extra-model"])
    def test_other_model_set_is_data_error(self, tmp_path, capsys, command,
                                           calib_models):
        paths = []
        for seed, models in ((31, "3"), (32, calib_models)):
            out = tmp_path / f"s{seed}"
            assert main(["synth", "--seed", str(seed), "--models", models,
                         "--height", "48", "--width", "48", "--objects", "2",
                         "--out-dir", str(out)]) == 0
            paths.append(str(out / "manifest.json"))
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, paths[0], "--calib", paths[1],
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        calib = [f"m{k}" for k in range(int(calib_models))]
        assert (f"calibration manifest models {calib} differ from the image "
                f"manifest's ['m0', 'm1', 'm2']") in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fuse", "pipeline"])
    def test_image_manifest_as_calib_is_read_once(self, tmp_path, monkeypatch,
                                                  command):
        manifest = synth_fixture(tmp_path)
        copy = tmp_path / "copy"
        shutil.copytree(manifest.parent, copy)
        loads = []

        def counting_load(path, **kwargs):
            loads.append(path)
            return load_manifest(path, **kwargs)

        monkeypatch.setattr("segfuse.cli.load_manifest", counting_load)
        outs = []
        for calib, total in ((manifest, 1), (copy / "manifest.json", 3)):
            out = tmp_path / f"out{total}"
            assert main([command, str(manifest), "--calib", str(calib),
                         "--out-dir", str(out)]) == 0
            assert len(loads) == total
            outs.append(out)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])


class TestHostileManifest:
    """A manifest that is not UTF-8, or nested past the recursion limit,
    is a format error naming the file, wherever a manifest is read."""

    @pytest.mark.parametrize("raw", [b'\xff\xfe{"schema_version": 1}',
                                     b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "nested"])
    @pytest.mark.parametrize("command", ["evaluate", "pipeline", "calib"])
    def test_exit_2_naming_the_file(self, tmp_path, capsys, command, raw):
        bad = tmp_path / "hostile.json"
        bad.write_bytes(raw)
        good = str(single_model_manifest(tmp_path))
        argv = {"evaluate": ["evaluate", good, str(bad),
                             "--out", str(tmp_path / "e.json")],
                "pipeline": ["pipeline", str(bad),
                             "--out-dir", str(tmp_path / "o")],
                "calib": ["pipeline", good, "--calib", str(bad),
                          "--out-dir", str(tmp_path / "o")]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: malformed JSON" in err and "Traceback" not in err

    def test_bad_schema_version_is_not_echoed_whole(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text('{"schema_version": ' + "[" * 900 + "]" * 900 + "}")
        capsys.readouterr()
        assert main(["evaluate", str(bad), str(bad),
                     "--out", str(tmp_path / "e.json")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{bad}: schema_version" in err
        assert max(map(len, err.splitlines())) < 200, err

    def test_grid_past_a_signed_64_bit_count(self, tmp_path, capsys):
        side = 10 ** 10
        bad = tmp_path / "huge_grid.json"
        bad.write_text(json.dumps({
            "schema_version": 1, "image_id": "huge", "height": side,
            "width": side, "models": ["m0"], "scales": [1.0],
            "instances": [{"model": "m0", "scale": 1.0, "score": 0.9,
                           "component": "shell", "object_id": 0,
                           "bbox": [0, 0, 1, 1],
                           "rle": [0, 1, side * side - 1]}]}))
        capsys.readouterr()
        assert main(["evaluate", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "instances[0]: " in err and "signed 64-bit" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fuse", "evaluate"])
    def test_rle_count_past_int64_is_the_sum_error(self, tmp_path, capsys,
                                                   command):
        # counts are summed as Python ints before any int64 array is made,
        # so a count of 2**70 is the sum error, never an OverflowError
        def edit(doc):
            doc["instances"][0]["rle"] = [0, 2 ** 70, 4]
        bad = _edited(single_model_manifest(tmp_path), "past.json", edit)
        argv = {"fuse": ["fuse", str(bad), "--grouping", "both", "--calib",
                         str(bad), "--out-dir", str(tmp_path / "o")],
                "evaluate": ["evaluate", str(bad), str(bad),
                             "--out", str(tmp_path / "e.json")]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"instances[0]: RLE counts sum {2 ** 70 + 4} != 256 "
                f"(16x16 grid)") in err, err
        assert "Traceback" not in err and "Overflow" not in err, err

    @pytest.mark.parametrize("field, digits", [("schema_version", 5001),
                                               ("score", 5000)])
    def test_oversized_integer_is_not_echoed(self, tmp_path, capsys, field,
                                             digits):
        # json.loads refuses integers past 4,300 digits with a ValueError
        doc = json.loads(single_model_manifest(tmp_path).read_text())
        record = doc if field == "schema_version" else doc["instances"][0]
        record[field] = "HUGE"
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * (digits - 1)))
        capsys.readouterr()
        assert main(["evaluate", str(bad), str(bad),
                     "--out", str(tmp_path / "e.json")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err
        assert "0" * 100 not in err
        assert max(len(line.replace(str(bad), ""))
                   for line in err.splitlines()) < 200, err


def _break_tensor(path, how):
    """Damage one tensor file in the way ``how`` names."""
    blob = path.read_bytes()
    h, w, c, _ = struct.unpack("<4I", blob[8:24])
    first = {"nan": float("nan"), "alpha-above-one": 1.5}
    if how == "missing":
        path.unlink()
    elif how == "bad-magic":
        path.write_bytes(b"XXXXXXX\x00" + blob[8:])
    elif how == "truncated":
        path.write_bytes(blob[:-4])
    elif how in first:
        path.write_bytes(blob[:24] + struct.pack("<f", first[how]) + blob[28:])
    elif how == "wrong-grid":
        save_tensor(path, np.zeros((h + 1, w, c), np.float32))
    else:  # two-channel alpha
        save_tensor(path, np.full((h, w, 2), 0.5, np.float32))


@pytest.fixture(scope="module")
def map_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("maps") / "fx"
    assert main(["synth", "--seed", "3", "--height", "24", "--width", "24",
                 "--objects", "1", "--models", "2", "--scales", "0.5", "1.0",
                 "--out-dir", str(out)]) == 0
    return out


class TestDroppedMapsStillValidated:
    """fuse, evaluate and every --calib load keep no maps, yet still read
    and check every tensor the manifest lists."""

    SITES = {
        "fuse-image": lambda good, bad, out: [
            "fuse", bad, "--calib", good, "--out-dir", out],
        "fuse-calib": lambda good, bad, out: [
            "fuse", good, "--calib", bad, "--out-dir", out],
        "evaluate-pred": lambda good, bad, out: [
            "evaluate", bad, good, "--out", f"{out}/report.json"],
        "evaluate-gt": lambda good, bad, out: [
            "evaluate", good, bad, "--out", f"{out}/report.json"],
        "pipeline-calib": lambda good, bad, out: [
            "pipeline", good, "--calib", bad, "--out-dir", out],
        # uniform weights use no AP, but a named manifest is still checked
        "fuse-calib-uniform": lambda good, bad, out: [
            "fuse", good, "--weights", "uniform", "--calib", bad,
            "--out-dir", out],
        "pipeline-calib-uniform": lambda good, bad, out: [
            "pipeline", good, "--weights", "uniform", "--calib", bad,
            "--out-dir", out],
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize("how, field, message", [
        ("missing", "logit_maps", "tensor file not found"),
        ("bad-magic", "logit_maps", "bad magic"),
        ("truncated", "logit_maps", r"payload is \d+ bytes, expected \d+"),
        ("nan", "logit_maps", "non-finite"),
        ("wrong-grid", "logit_maps", r"tensor grid \(25, 24\) does not match"),
        ("wrong-grid", "alpha_maps", r"tensor grid \(25, 24\) does not match"),
        ("alpha-above-one", "alpha_maps", r"must lie in \[0, 1\]"),
        ("two-channel-alpha", "alpha_maps", "must have 1 channel, got 2"),
    ], ids=["missing", "bad-magic", "truncated", "nan", "wrong-grid",
            "wrong-grid-alpha", "alpha-above-one", "two-channel-alpha"])
    def test_broken_tensor_exits_two(self, tmp_path, capsys, map_fixture,
                                     site, how, field, message):
        good, bad = tmp_path / "good", tmp_path / "bad"
        shutil.copytree(map_fixture, good)
        shutil.copytree(map_fixture, bad)
        doc = json.loads((bad / "manifest.json").read_text())
        _break_tensor(bad / doc[field][1]["path"], how)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = self.SITES[site](str(good / "manifest.json"),
                                str(bad / "manifest.json"), str(out))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert re.search(rf"{field}\[1\]: .*{message}", captured.err), \
            captured.err
        assert captured.err.count(f"{field}[1]") == 1, captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fuse", "pipeline"])
    def test_missing_calib_exits_two_under_uniform_weights(
            self, tmp_path, capsys, map_fixture, command):
        missing = tmp_path / "nowhere" / "calib.json"
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, str(map_fixture / "manifest.json"), "--weights",
                     "uniform", "--calib", str(missing),
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"manifest not found: {missing}" in captured.err
        assert "Traceback" not in captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_load_without_maps_keeps_everything_else(self, map_fixture):
        path = map_fixture / "manifest.json"
        full, lean = load_manifest(path), load_manifest(path, maps=False)
        assert full.logit_maps and full.alpha_maps
        assert lean.logit_maps == {} and lean.alpha_maps == {}
        assert lean.instances == full.instances
        assert lean.ground_truth == full.ground_truth
        assert (lean.image_id, lean.height, lean.width, lean.models,
                lean.scales) == (full.image_id, full.height, full.width,
                                 full.models, full.scales)

    def test_channel_disagreement_exits_two(self, tmp_path, capsys,
                                            map_fixture):
        fx = tmp_path / "fx"
        shutil.copytree(map_fixture, fx)
        doc = json.loads((fx / "manifest.json").read_text())
        save_tensor(fx / doc["logit_maps"][1]["path"],
                    np.zeros((24, 24, 4), np.float32))
        named = r"logit maps disagree on channel count: \[4, 5\]"
        for maps in (True, False):
            with pytest.raises(DataValidationError, match=named):
                load_manifest(fx / "manifest.json", maps=maps)
        capsys.readouterr()
        assert main(["fuse", str(fx / "manifest.json"), "--weights",
                     "uniform", "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and re.search(named, err), err


class TestPipelineCommand:
    def test_upsampled_local_windows_match_whole_region_resamples(
            self, tmp_path, monkeypatch):
        # at scale 2.0 every local window is upsampled; the run must write
        # the bytes of one whose local ensembles fuse, over every channel of
        # the whole region, local maps that resample each whole region
        manifest = synth_fixture(tmp_path, scales=("1.0", "2.0"))
        local_map, upsampled = pipeline._local_map, []

        def watched(sub, oid, region_ref, region_s, weights):
            upsampled.append((region_s.height, region_s.width)
                             > (region_ref.height, region_ref.width))
            return local_map(sub, oid, region_ref, region_s, weights)

        def whole(sub, oid, region_ref, region_s, weights):
            return region_planes(fuse_logits(
                {m: LogitMap._own(local_map_ref(sub, m, oid, region_ref,
                                                region_s, len(COMPONENTS) + 1))
                 for m in sub.models}, [weights] * (len(COMPONENTS) + 1)).data,
                region_s)

        outs = tmp_path / "windows", tmp_path / "whole"
        for out, fn in zip(outs, (watched, whole)):
            monkeypatch.setattr(pipeline, "_local_map", fn)
            assert main(["pipeline", str(manifest), "--weights", "uniform",
                         "--out-dir", str(out)]) == 0
        assert any(upsampled) and not all(upsampled)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])

    def test_constant_chain_folds_to_hand_value(self, tmp_path):
        manifest = constant_chain_manifest(tmp_path)
        out = tmp_path / "pipe"
        assert main(["pipeline", str(manifest), "--weights", "uniform",
                     "--beta-const", "1.0", "--out-dir", str(out)]) == 0
        final = load_tensor(out / "fused_logits.tns")
        # fold: 0.5*1 + 0.5*2 = 1.5; 0.5*1.5 + 0.5*4 = 2.75, resampled to 8x8
        assert np.array_equal(final, np.full((8, 8, 5), 2.75, np.float32))

    def test_single_model_beta_one_keeps_argmax(self, tmp_path):
        manifest = synth_fixture(tmp_path, scales=("1.0",))
        out = tmp_path / "one"
        assert main(["pipeline", str(manifest), "--weights", "uniform",
                     "--beta-const", "1.0", "--out-dir", str(out)]) == 0
        bundle = load_manifest(manifest)
        # three models fused uniformly; restrict to one by slicing the bundle
        from dataclasses import replace
        solo = replace(bundle, models=("m0",),
                       instances=tuple(i for i in bundle.instances
                                       if i.model_id == "m0"),
                       logit_maps={k: v for k, v in bundle.logit_maps.items()
                                   if k[0] == "m0"},
                       alpha_maps={})
        solo_path = save_manifest(solo, tmp_path / "solo" / "m.json")
        solo_out = tmp_path / "solo_out"
        assert main(["pipeline", str(solo_path), "--weights", "uniform",
                     "--beta-const", "1.0", "--out-dir", str(solo_out)]) == 0
        from segfuse.grids import argmax_channel
        labels = load_tensor(solo_out / "labels.tns")[:, :, 0]
        own = argmax_channel(bundle.logit_maps[("m0", 1.0)])
        assert np.array_equal(labels.astype(np.int64), own)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        manifest = synth_fixture(tmp_path)
        outs = []
        for k, workers in ((0, "1"), (1, "4")):
            out = tmp_path / f"run{k}"
            assert main(["pipeline", str(manifest), "--calib", str(manifest),
                         "--workers", workers, "--out-dir", str(out)]) == 0
            outs.append(out)
        for name in ("fused_logits.tns", "labels.tns", "overlay.ppm",
                     "instances.json", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_zero_workers_is_data_error(self, tmp_path, capsys):
        manifest = single_model_manifest(tmp_path)
        code = main(["pipeline", str(manifest), "--weights", "uniform",
                     "--workers", "0", "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "workers" in err and "Traceback" not in err

    def test_workers_start_no_thread(self, tmp_path, monkeypatch):
        # the engine runs on one thread; --workers is only checked
        out = tmp_path / "fx"
        assert main(["synth", "--seed", "3", "--out-dir", str(out),
                     "--height", "64", "--width", "64", "--objects", "4"]) == 0
        start, started = threading.Thread.start, []

        def spied(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spied)
        manifest = str(out / "manifest.json")
        assert main(["pipeline", manifest, "--calib", manifest,
                     "--workers", "4", "--out-dir", str(tmp_path / "o")]) == 0
        assert started == []

    @pytest.mark.parametrize("flag, value, named", [
        ("--expand-factor", "nan", "expand_factor"),
        ("--expand-factor", "inf", "expand_factor"),
        ("--attention-factor", "inf", "attention_factor"),
    ])
    def test_non_finite_setting_is_data_error(self, tmp_path, capsys, flag,
                                              value, named):
        manifest = single_model_manifest(tmp_path)
        code = main(["pipeline", str(manifest), "--weights", "uniform",
                     flag, value, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "Traceback" not in err

    def test_attention_factor_that_overflows_the_gate_is_data_error(
            self, tmp_path, capsys, recwarn):
        # f·|G − L| is formed in float64 from float32 logits, so a factor
        # above 1.797e308 / (2 · 3.403e38) may overflow it: on this fixture
        # 1e308 did, mid-run, with numpy's RuntimeWarning.  The run exits 2
        # before any pixel, and the largest factor that cannot overflow runs
        manifest = synth_fixture(tmp_path, seed=2)
        widest = 2 * float(np.finfo(np.float32).max)
        bound = 2.6414728131223744e269
        assert np.isfinite(bound * widest)
        above = float(np.nextafter(bound, np.inf))
        assert not np.isfinite(above * widest)
        for factor in ("1e308", repr(above)):
            out = tmp_path / f"o{factor}"
            assert main(["pipeline", str(manifest), "--calib", str(manifest),
                         "--attention-factor", factor,
                         "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert "attention_factor" in err and "2.64e+269" in err, err
            assert "Warning" not in err and "Traceback" not in err, err
            assert not out.exists()
        out = tmp_path / "bound"
        assert main(["pipeline", str(manifest), "--calib", str(manifest),
                     "--attention-factor", repr(bound),
                     "--out-dir", str(out)]) == 0
        assert "Warning" not in capsys.readouterr().err
        assert len(recwarn) == 0, [str(w.message) for w in recwarn]
        assert load_tensor(out / "labels.tns").shape == (64, 64, 1)

    def test_huge_expand_factor_covers_the_frame(self, tmp_path):
        # 1e308 * a box side overflows to an infinite half-width; the region
        # clamps to the frame, as it already does at 1e6
        manifest = synth_fixture(tmp_path)
        outs = []
        for factor in ("1e6", "1e308"):
            out = tmp_path / f"x{factor}"
            assert main(["pipeline", str(manifest), "--calib", str(manifest),
                         "--expand-factor", factor, "--out-dir", str(out)]) == 0
            outs.append(out)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])

    @pytest.mark.parametrize("command", ["fuse", "pipeline"])
    def test_scale_without_finite_grid_is_data_error(self, tmp_path, capsys,
                                                     command):
        manifest = synth_fixture(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["scales"] = [0.5, 1e308]
        for field in ("instances", "logit_maps", "alpha_maps"):
            for rec in doc[field]:
                if rec["scale"] == 1.0:
                    rec["scale"] = 1e308
        huge = manifest.parent / "huge.json"
        huge.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, str(huge), "--weights", "uniform",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(r"logit_maps\[1\]: scale 1e\+308 gives no finite "
                         r"grid size", err), err
        assert not out.exists()

    def test_missing_scale_logits_named(self, tmp_path, capsys):
        manifest = single_model_manifest(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["logit_maps"] = []
        stripped = manifest.parent / "stripped.json"
        stripped.write_text(json.dumps(doc))
        code = main(["pipeline", str(stripped), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_missing_model_logits_at_one_scale_named(self, tmp_path, capsys):
        manifest = synth_fixture(tmp_path)
        dropped = _edited(manifest, "dropped.json",
                          _drop("logit_maps", "m1", 0.5))
        out = tmp_path / "o"
        assert main(["pipeline", str(dropped), "--weights", "uniform",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no logit map for model 'm1' at scale 0.5" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, named", [
        (_drop("logit_maps", "m1", 1.0),
         "no logit map for model 'm1' at scale 1.0"),
        (lambda doc: doc["instances"][-1].update(object_id=None),
         "the pipeline requires object ids on every instance"),
    ], ids=["finest-logits-missing", "null-object-id"])
    def test_inputs_checked_before_any_scale(self, tmp_path, capsys,
                                             monkeypatch, edit, named):
        broken = _edited(synth_fixture(tmp_path), "broken.json", edit)
        calls, fuse_global = [], pipeline._fuse_global

        def counting_fuse_global(*args):
            calls.append(args)
            return fuse_global(*args)

        monkeypatch.setattr(pipeline, "_fuse_global", counting_fuse_global)
        out = tmp_path / "o"
        assert main(["pipeline", str(broken), "--weights", "uniform",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err, err
        assert "Traceback" not in err
        assert calls == []
        assert not out.exists()

    def test_coarse_alpha_of_one_model_missing(self, tmp_path):
        manifest = synth_fixture(tmp_path)
        dropped = _edited(manifest, "dropped.json",
                          _drop("alpha_maps", "m1", 0.5))
        outs = []
        for path, run in ((dropped, "a"), (dropped, "b"), (manifest, "full")):
            out = tmp_path / run
            assert main(["pipeline", str(path), "--calib", str(path),
                         "--out-dir", str(out)]) == 0
            outs.append(out)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])
        # the mean of the two alpha maps left is not the mean of all three
        assert ((outs[0] / "fused_logits.tns").read_bytes()
                != (outs[2] / "fused_logits.tns").read_bytes())

    def test_report_contains_ap_records(self, tmp_path):
        manifest = synth_fixture(tmp_path)
        out = tmp_path / "rep"
        assert main(["pipeline", str(manifest), "--calib", str(manifest),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "pipeline_report"
        assert report["ap"], "expected AP records against bundled ground truth"
        assert {r["mode"] for r in report["ap"]} == {"vertical", "horizontal"}


class TestModelMissesAnObject:
    """Models predict nothing for some objects, at every scale: ``m2``
    misses objects 0 and 1 and ``m1`` misses object 0, so object 0 is left
    to ``m0`` alone.  A case the synthetic generator never produces."""

    MISSED = {("m2", 0), ("m2", 1), ("m1", 0)}

    @pytest.fixture(scope="class")
    def missing(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("missing") / "fx"
        assert main(["synth", "--seed", "4", "--objects", "12", "--scales",
                     "0.25", "0.5", "1.0", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        kept = [r for r in doc["instances"]
                if (r["model"], r["object_id"]) not in self.MISSED]
        # 4 components x 3 scales for each missed (model, object)
        assert len(doc["instances"]) - len(kept) == 12 * len(self.MISSED)
        doc["instances"] = kept
        path = out / "missing.json"
        path.write_text(json.dumps(doc))
        return path

    def test_pipeline_carves_the_object_at_any_worker_count(self, tmp_path,
                                                            missing):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["pipeline", str(missing), "--calib", str(missing),
                         "--workers", workers, "--out-dir", str(out)]) == 0
            outs.append(out)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])
        carved = json.loads((outs[0] / "instances.json").read_text())
        assert sorted(r["component"] for r in carved["instances"]
                      if r["object_id"] == 0) == sorted(COMPONENTS)

    def test_fuse_both_groupings(self, tmp_path, missing):
        out = tmp_path / "both"
        assert main(["fuse", str(missing), "--calib", str(missing),
                     "--grouping", "both", "--out-dir", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "fused_horizontal.json", "fused_vertical.json",
            "weights_horizontal.json", "weights_vertical.json"]

    def test_evaluate(self, tmp_path, missing):
        out = tmp_path / "eval.json"
        assert main(["evaluate", str(missing), str(missing),
                     "--out", str(out)]) == 0
        ap = {(r["scale"], r["model"], r["group"]): r["ap"]
              for r in json.loads(out.read_text())["records"]
              if r["mode"] == "horizontal"}
        for scale in (0.25, 0.5, 1.0):
            # a missed object scores 0; m0, synth's exact model, scores 1
            assert all(ap[(scale, *pair)] == 0.0 for pair in self.MISSED)
            assert ap[(scale, "m0", 0)] == ap[(scale, "m0", 1)] == 1.0


class TestModelLogitsMissAnObject:
    """``m2`` misses object 0 twice over: it has no instances of it, and at
    every scale its logit maps hold zero in every component channel over
    the object's box.  A case the synthetic generator never produces."""

    @pytest.fixture(scope="class")
    def missing(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("missing_logits") / "fx"
        assert main(["synth", "--seed", "4", "--objects", "12", "--scales",
                     "0.25", "0.5", "1.0", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        doc["instances"] = [r for r in doc["instances"]
                            if (r["model"], r["object_id"]) != ("m2", 0)]
        x0, y0, x1, y1 = zip(*(r["bbox"] for r in doc["ground_truth"]
                               if r["object_id"] == 0))
        box = BBox(min(x0), min(y0), max(x1), max(y1))
        for rec in doc["logit_maps"]:
            if rec["model"] == "m2":
                data = load_tensor(out / rec["path"])
                b = scale_box(box, doc["height"], doc["width"], *data.shape[:2])
                assert data[b.y0:b.y1, b.x0:b.x1, 1:].any()
                data[b.y0:b.y1, b.x0:b.x1, 1:] = 0.0
                save_tensor(out / rec["path"], data)
        path = out / "missing.json"
        path.write_text(json.dumps(doc))
        return path

    def test_pipeline_carves_the_object_deterministically(self, tmp_path,
                                                          missing):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["pipeline", str(missing), "--calib", str(missing),
                         "--out-dir", str(out)]) == 0
            outs.append(out)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])
        carved = json.loads((outs[0] / "instances.json").read_text())
        assert sorted(r["component"] for r in carved["instances"]
                      if r["object_id"] == 0) == sorted(COMPONENTS)


def _poke_header(path, **dims):
    """Rewrite fields of a tensor file's header in place."""
    blob = bytearray(path.read_bytes())
    h, w, c, r = struct.unpack("<4I", blob[8:24])
    new = {"h": h, "w": w, "c": c, **dims}
    blob[8:24] = struct.pack("<4I", new["h"], new["w"], new["c"], r)
    path.write_bytes(bytes(blob))


class TestPipelineReadsEachScaleWhenItFusesIt:
    """``pipeline`` checks every tensor of its image manifest on load but
    keeps none; each scale's logit and alpha maps are read again band by
    band by the pass that fuses that scale, and no map is held whole.  The
    finest level has no gate, so its alpha maps are checked on load only."""

    @pytest.fixture(scope="class")
    def dense(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("dense")
        for seed in (4, 5):
            assert main(["synth", "--seed", str(seed), "--height", "256",
                         "--width", "256", "--objects", "4", "--models", "3",
                         "--scales", "0.25", "0.5", "1.0",
                         "--out-dir", str(root / f"s{seed}")]) == 0
        return root / "s4" / "manifest.json", root / "s5" / "manifest.json"

    @pytest.fixture
    def small(self, tmp_path):
        # a 24x32 image, so swapping a header's height and width keeps its size
        out = tmp_path / "small"
        assert main(["synth", "--seed", "3", "--height", "24", "--width", "32",
                     "--objects", "1", "--models", "2", "--scales", "0.5",
                     "1.0", "--out-dir", str(out)]) == 0
        return out / "manifest.json"

    @pytest.mark.parametrize("field, how, message", [
        pytest.param("logit_maps", "truncated",
                     r"payload is \d+ bytes, expected \d+", id="truncated"),
        pytest.param("logit_maps", "nan", "payload contains non-finite values",
                     id="nan"),
        pytest.param("logit_maps", "swapped",
                     r"changed since the manifest was loaded: shape "
                     r"\(32, 24, 5\), was \(24, 32, 5\)", id="swapped"),
        pytest.param("logit_maps", "channels",
                     r"changed since the manifest was loaded: shape "
                     r"\(24, 32, 4\), was \(24, 32, 5\)", id="channels"),
        pytest.param("alpha_maps", "truncated",
                     r"payload is \d+ bytes, expected \d+", id="alpha-truncated"),
        pytest.param("alpha_maps", "alpha-above-one",
                     r"AttentionMap values must lie in \[0, 1\]",
                     id="alpha-above-one"),
        pytest.param("alpha_maps", "swapped",
                     r"changed since the manifest was loaded: shape "
                     r"\(16, 12, 1\), was \(12, 16, 1\)", id="alpha-swapped"),
    ])
    def test_tensor_changed_after_load_exits_two(self, tmp_path, capsys,
                                                  monkeypatch, small, field,
                                                  how, message):
        # a logit map at the finest scale; an alpha map at the coarser one,
        # since the finest scale's alpha maps are not read again
        alpha = field == "alpha_maps"
        doc = json.loads(small.read_text())
        k, rec = next((k, r) for k, r in enumerate(doc[field])
                      if r["scale"] == (0.5 if alpha else 1.0))
        target = (small.parent / rec["path"]).resolve()
        open_rows = formats._tensor_rows

        def changed_then_opened(path, *args):
            # the load has checked the file; change it before it is opened
            # again to be read by rows
            if Path(path).resolve() == target:
                if how == "swapped":
                    h, w = struct.unpack("<2I", target.read_bytes()[8:16])
                    _poke_header(target, h=w, w=h)
                elif how == "channels":
                    save_tensor(target, np.zeros((24, 32, 4), np.float32))
                else:
                    _break_tensor(target, how)
            return open_rows(path, *args)

        monkeypatch.setattr(formats, "_tensor_rows", changed_then_opened)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", str(small), "--weights", "uniform",
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert re.search(rf"{field}\[{k}\]: .*{message}", captured.err), \
            captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("how, message", [
        ("truncated", r"payload is \d+ bytes, expected \d+"),
        ("nan-last-row", "payload contains non-finite values"),
        ("alpha-nan-last-row", "payload contains non-finite values"),
        ("alpha-above-one-last-row",
         r"AttentionMap values must lie in \[0, 1\]"),
    ])
    def test_tensor_changed_between_bands_exits_two(self, tmp_path, capsys,
                                                     monkeypatch, dense, how,
                                                     message):
        # a logit map at the finest scale, or an alpha map at scale 0.5,
        # whose 128 rows are two bands
        field = "alpha_maps" if how.startswith("alpha-") else "logit_maps"
        src = tmp_path / "src"
        shutil.copytree(dense[0].parent, src)
        image = src / dense[0].name
        doc = json.loads(image.read_text())
        k, rec = next((k, r) for k, r in enumerate(doc[field])
                      if r["scale"] == (0.5 if field == "alpha_maps" else 1.0))
        target = (src / rec["path"]).resolve()
        h, w, c = struct.unpack("<3I", target.read_bytes()[8:20])
        assert h > _band_rows(w)
        read_rows = formats._read_rows

        def read_then_changed(f, path, *args):
            band = read_rows(f, path, *args)
            # the file is open; change it in place after its first band
            if Path(path).resolve() == target and args[-2] == 0:
                blob = bytearray(target.read_bytes())
                if how == "truncated":
                    del blob[-4:]
                else:
                    at = 24 + (h - 1) * w * c * 4
                    bad = 1.5 if "above-one" in how else float("nan")
                    blob[at:at + 4] = struct.pack("<f", bad)
                target.write_bytes(bytes(blob))
            return band

        monkeypatch.setattr(formats, "_read_rows", read_then_changed)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", str(image), "--weights", "uniform",
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert re.search(rf"{field}\[{k}\]: .*{message}", captured.err), \
            captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_finest_alpha_maps_are_never_read_again(self, tmp_path, dense):
        image, calib = dense
        src = tmp_path / "src"
        shutil.copytree(image.parent, src)
        doc = json.loads(image.read_text())
        finest = max(doc["scales"])
        doc["alpha_maps"] = [r for r in doc["alpha_maps"]
                             if r["scale"] != finest]
        assert len(doc["alpha_maps"]) == 6
        trimmed = src / "trimmed.json"
        trimmed.write_text(json.dumps(doc))
        outs = []
        for manifest, run in ((src / image.name, "full"), (trimmed, "trimmed")):
            out = tmp_path / run
            assert main(["pipeline", str(manifest), "--calib", str(calib),
                         "--out-dir", str(out)]) == 0
            outs.append(out)
        assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])

    def test_image_logit_maps_are_read_only_in_bands(self, tmp_path,
                                                    monkeypatch, dense):
        image, calib = dense
        loads, opens, bands, whole, files = Counter(), Counter(), {}, [], []
        staged_opens = Counter()
        read_tensor, tensor_rows = formats._read_tensor, formats._tensor_rows
        read_rows, open_tensor = formats._read_rows, formats._open_tensor
        path_open = Path.open

        def counted_read(path, **kw):
            loads[Path(path).resolve()] += 1
            if kw["keep"]:
                whole.append(Path(path).resolve())
            return read_tensor(path, **kw)

        def counted_open(path, *args):
            opens[Path(path).resolve()] += 1
            return tensor_rows(path, *args)

        def spied_rows(f, path, *args):
            bands.setdefault(Path(path).resolve(), []).append(args[-2:])
            return read_rows(f, path, *args)

        def watched_open(path):
            files.append(Path(path).resolve())
            return open_tensor(path)

        def counted_path_open(path, *args, **kw):
            if path.parent.name.startswith(".segfuse-"):
                staged_opens[path.name] += 1
            return path_open(path, *args, **kw)

        monkeypatch.setattr(formats, "_read_tensor", counted_read)
        monkeypatch.setattr(formats, "_tensor_rows", counted_open)
        # the file sink reads its frames back through the name pipeline
        # bound at import
        monkeypatch.setattr(formats, "_read_rows", spied_rows)
        monkeypatch.setattr(pipeline, "_read_rows", spied_rows)
        monkeypatch.setattr(formats, "_open_tensor", watched_open)
        monkeypatch.setattr(Path, "open", counted_path_open)
        assert main(["pipeline", str(image), "--calib", str(calib),
                     "--out-dir", str(tmp_path / "out")]) == 0

        assert whole == []
        # each staged frame is opened once and read back through the handle
        # that wrote it, never opened again as an input map
        assert all(staged_opens[n] == 1 for n in ("fused_logits.tns",
                                                  "labels.tns", "overlay.ppm"))
        assert files and not any(p.parent.name.startswith(".segfuse-")
                                 for p in files)
        # each image tensor is read on load and opened once more, but the
        # finest scale's alpha maps only on load; each calibration tensor
        # once
        for manifest in dense:
            doc = json.loads(manifest.read_text())
            for field in ("logit_maps", "alpha_maps"):
                assert len(doc[field]) == 9
                for r in doc[field]:
                    path = (manifest.parent / r["path"]).resolve()
                    once = manifest == calib or (field, r["scale"]) == (
                        "alpha_maps", 1.0)
                    assert (loads[path], opens[path]) == (
                        (1, 0) if once else (1, 1)), (path, r)
                    if once:
                        assert path not in bands
                        continue
                    height, width = struct.unpack("<2I",
                                                  path.read_bytes()[8:16])
                    got = bands[path]
                    # bands of at most _band_rows(width) rows, in order,
                    # each row read once
                    assert got[0][0] == 0 and got[-1][1] == height
                    assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
                    assert all(0 < r1 - r0 <= _band_rows(width)
                               for r0, r1 in got)
        # the carving reads rows back from the two frame files it staged,
        # which are gone once renamed into --out-dir
        staged = [p for p in bands if p.parent.name.startswith(".segfuse-")]
        assert sorted(p.name for p in staged) == ["fused_logits.tns",
                                                  "labels.tns"]
        assert not any(p.parent.exists() for p in staged)
        assert len(loads) == 36 and len(opens) == len(bands) - 2 == 15

    def test_run_pipeline_peak_is_under_4_5_frames(
            self, tmp_path, monkeypatch):
        # 512x512, 3 models, scales 0.25/0.5/1.0: a finest frame is 5 MiB.
        # Whole-frame logit maps and a whole upsampled level put the peak
        # at about 5.2 frames; the band pass leaves the output frame the
        # only whole finest-grid frame
        root = tmp_path / "fx"
        for seed in (4, 5):
            assert main(["synth", "--seed", str(seed), "--height", "512",
                         "--width", "512", "--objects", "4", "--models", "3",
                         "--scales", "0.25", "0.5", "1.0",
                         "--out-dir", str(root / f"s{seed}")]) == 0
        peaks = []

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = run_pipeline(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            return result

        run_pipeline = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline", traced)
        assert main(["pipeline", str(root / "s4" / "manifest.json"),
                     "--calib", str(root / "s5" / "manifest.json"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        frame = 512 * 512 * 5 * 4
        assert len(peaks) == 1 and peaks[0] < 4.5 * frame, peaks[0] / frame

    def test_traced_peak_holds_one_scale_of_maps(self, tmp_path, dense):
        # 256x256, 3 models, scales 0.25/0.5/1.0: about 14.8 MiB traced when
        # every map was kept to the end, 9.4 MiB with one scale at a time
        image, calib = dense
        argv = ["pipeline", str(image), "--calib", str(calib),
                "--out-dir", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak

    def test_traced_peak_holds_no_dense_local_map(self, tmp_path):
        # the pipeline_ap geometry: 640x640, 16 objects, 4 models, scales
        # 0.5/1.0, --workers 2.  14.1 MiB traced when every object's local
        # ensemble was a dense region x 5 grid, built from one such grid per
        # model; 8.6 MiB with one plane per component over its support
        geometry = ["--objects", "16", "--models", "4", "--height", "640",
                    "--width", "640", "--scales", "0.5", "1.0"]
        for seed in (2, 3):
            assert main(["synth", "--seed", str(seed), *geometry,
                         "--out-dir", str(tmp_path / f"s{seed}")]) == 0
        argv = ["pipeline", str(tmp_path / "s2" / "manifest.json"),
                "--calib", str(tmp_path / "s3" / "manifest.json"),
                "--workers", "2", "--out-dir", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak

    # a map whose last row turns NaN after the load and after its first
    # band is read: a scale-1.0 logit map, or a logit or alpha map of the
    # next coarser scale, whose last rows the finest pass pulls only when
    # it folds in its fourth band of 32 rows
    @pytest.mark.parametrize("field, scale, bands_written", [
        ("logit_maps", 1.0, 6), ("logit_maps", 0.5, 2),
        ("alpha_maps", 0.5, 2)], ids=["finest-logits", "coarser-logits",
                                      "coarser-alpha"])
    @pytest.mark.parametrize("prior", ["none", "earlier-run", "file"])
    def test_failed_finest_pass_leaves_out_dir_as_it_was(
            self, tmp_path, capsys, monkeypatch, dense, prior, field, scale,
            bands_written):
        # the finest pass fails after the sink has written the bands before
        # the one the fault reaches
        image, calib = dense
        src = tmp_path / "src"
        shutil.copytree(image.parent, src)
        image = src / image.name
        doc = json.loads(image.read_text())
        k, rec = next((k, r) for k, r in enumerate(doc[field])
                      if r["scale"] == scale)
        target = (src / rec["path"]).resolve()
        h, w, c = struct.unpack("<3I", target.read_bytes()[8:20])
        step = _band_rows(256)
        assert (h, step) == (256 * scale, 32)
        out = tmp_path / "out"
        if prior == "earlier-run":
            assert main(["pipeline", str(image), "--calib", str(calib),
                         "--out-dir", str(out)]) == 0
        elif prior == "file":
            out.write_bytes(b"not a directory")

        def state():
            if out.is_dir():
                return _tree_bytes(out)
            return out.read_bytes() if out.exists() else None
        before = state()
        read_rows, written = formats._read_rows, []

        def read_then_changed(f, path, *args):
            band = read_rows(f, path, *args)
            if Path(path).resolve() == target and args[-2] == 0:
                blob = bytearray(target.read_bytes())
                at = 24 + (h - 1) * w * c * 4
                blob[at:at + 4] = struct.pack("<f", float("nan"))
                target.write_bytes(bytes(blob))
            return band

        write = pipeline._PipelineFiles.write

        def counted_write(files, r0, *args):
            written.append(r0)
            return write(files, r0, *args)

        monkeypatch.setattr(formats, "_read_rows", read_then_changed)
        monkeypatch.setattr(pipeline._PipelineFiles, "write", counted_write)
        capsys.readouterr()
        assert main(["pipeline", str(image), "--calib", str(calib),
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert re.search(rf"{field}\[{k}\]: .*payload contains "
                         r"non-finite values", captured.err), captured.err
        assert "wrote" not in captured.out
        # a reference band is written once the finest row after it has
        # arrived, so every band built before the failing one but the last
        # was written
        assert written == list(range(0, bands_written * step, step))
        assert state() == before
        assert not list(tmp_path.rglob(".segfuse-*"))
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["out", "src"] if prior != "none" else ["src"])

    def test_out_dir_that_is_a_file_fails_after_the_run(self, tmp_path,
                                                       capsys, dense):
        # the outputs are staged beside it, then making the directory fails
        image, calib = dense
        out = tmp_path / "out"
        out.write_bytes(b"not a directory")
        capsys.readouterr()
        assert main(["pipeline", str(image), "--calib", str(calib),
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "File exists" in captured.err and "wrote" not in captured.out
        assert out.read_bytes() == b"not a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestPipelineStreamsTheFinestScale:
    """The finest scale's band pass writes the reference-grid logits, labels
    and overlay to files band by band, and the carving reads them back; the
    library's ``run_pipeline`` fills the same bands into memory."""

    def test_finest_scale_below_one_writes_the_library_bytes(self, tmp_path):
        # the last scale is 0.5 of a 130 x 97 image, so the final resize
        # upsamples a kept level, in reference bands that do not divide
        # the height
        root = tmp_path / "fx"
        for seed in (2, 3):
            assert main(["synth", "--seed", str(seed), "--height", "130",
                         "--width", "97", "--objects", "4", "--scales",
                         "0.25", "0.5", "--out-dir",
                         str(root / f"s{seed}")]) == 0
        image, calib = (root / f"s{seed}" / "manifest.json" for seed in (2, 3))
        out = tmp_path / "cli"
        assert main(["pipeline", str(image), "--calib", str(calib),
                     "--out-dir", str(out)]) == 0
        result = run_pipeline(load_manifest(image),
                              load_manifest(calib, maps=False),
                              PipelineConfig())
        assert result.final_logits.shape == (130, 97, 5)
        assert result.carved.instances
        lib = tmp_path / "lib"
        lib.mkdir()
        save_tensor(lib / "fused_logits.tns", result.final_logits)
        save_tensor(lib / "labels.tns", result.labels.astype(np.float32))
        write_overlay(130, 97, result.labels, lib / "overlay.ppm")
        save_manifest(result.carved, lib / "instances.json")
        write_json_report(result.report, lib / "report.json")
        assert _tree_bytes(out) == _tree_bytes(lib)
        # an in-memory result's writer goes through the same sink
        written = write_pipeline_outputs(result, tmp_path / "again")
        assert [p.name for p in written] == sorted(_tree_bytes(lib), key=[
            "fused_logits.tns", "labels.tns", "overlay.ppm", "instances.json",
            "report.json"].index)
        assert _tree_bytes(tmp_path / "again") == _tree_bytes(lib)

    def test_cli_holds_no_reference_frame_or_label_grid(self, tmp_path,
                                                        monkeypatch):
        # one scale of 512 x 512: the library's result holds the 5 MiB
        # reference frame and the 2 MiB int64 label grid; the CLI streams
        # both to files, so its peak after the load is well below
        fx = tmp_path / "fx"
        assert main(["synth", "--seed", "4", "--height", "512", "--width",
                     "512", "--objects", "4", "--models", "3", "--scales",
                     "1.0", "--out-dir", str(fx)]) == 0
        manifest = fx / "manifest.json"
        load, bases = cli.load_manifest, []

        def loaded(*args, **kwargs):
            bundle = load(*args, **kwargs)
            tracemalloc.reset_peak()
            bases.append(tracemalloc.get_traced_memory()[0])
            return bundle

        monkeypatch.setattr(cli, "load_manifest", loaded)
        tracemalloc.start()
        try:
            assert main(["pipeline", str(manifest), "--weights", "uniform",
                         "--out-dir", str(tmp_path / "out")]) == 0
            cli_peak = tracemalloc.get_traced_memory()[1] - bases[-1]
            maps = {}
            bundle = load_manifest(manifest, maps=maps)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = run_pipeline(bundle, None,
                                  PipelineConfig(weights_mode="uniform"),
                                  maps=maps)
            lib_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(bases) == 1 and result.labels.dtype == np.int64
        assert cli_peak <= lib_peak - 4 * 2**20, (cli_peak, lib_peak)


class TestEvaluateCommand:
    def test_perfect_predictions_score_one(self, tmp_path):
        manifest = single_model_manifest(tmp_path)
        report_path = tmp_path / "eval.json"
        assert main(["evaluate", str(manifest), str(manifest),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["records"]
        assert all(r["ap"] == 1.0 for r in report["records"])

    def test_empty_predictions_score_zero(self, tmp_path):
        manifest = single_model_manifest(tmp_path)
        bundle = load_manifest(manifest)
        from dataclasses import replace
        empty = replace(bundle, instances=())
        empty_path = save_manifest(empty, tmp_path / "empty" / "m.json")
        report_path = tmp_path / "eval0.json"
        assert main(["evaluate", str(empty_path), str(manifest),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert all(r["ap"] == 0.0 for r in report["records"])

    def test_image_id_mismatch_is_data_error(self, tmp_path):
        a = single_model_manifest(tmp_path, name="one")
        b = single_model_manifest(tmp_path, name="two")
        assert main(["evaluate", str(a), str(b)]) == 2

    def test_worked_ap_fixture(self, tmp_path):
        # TP, FP, TP over 2 gts scores 0.9/0.8/0.7: AP = 5/6
        h = w = 8
        g1 = block_mask(h, w, 0, 4, 0, 4)
        g2 = block_mask(h, w, 4, 8, 4, 8)
        off = block_mask(h, w, 0, 4, 2, 6)  # IoU 0.33 vs g1: below threshold
        preds = (make_instance(g1, score=0.9, uid=0),
                 make_instance(off, score=0.8, uid=1),
                 make_instance(g2, score=0.7, uid=2))
        gts = (make_instance(g1, model_id="gt", uid=0),
               make_instance(g2, model_id="gt", uid=1))
        bundle = PredictionBundle(image_id="ap", height=h, width=w,
                                  models=("m0",), scales=(1.0,),
                                  instances=preds, ground_truth=gts)
        path = save_manifest(bundle, tmp_path / "ap" / "m.json")
        report_path = tmp_path / "ap.json"
        assert main(["evaluate", str(path), str(path),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        shell = [r for r in report["records"]
                 if r["mode"] == "vertical" and r["group"] == "shell"]
        assert shell[0]["ap"] == pytest.approx(0.8333, abs=5e-5)

    def test_same_manifest_twice_loads_once(self, tmp_path, monkeypatch):
        out = tmp_path / "fx"
        assert main(["synth", "--seed", "2", "--objects", "3",
                     "--out-dir", str(out)]) == 0
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        manifest = out / "manifest.json"
        loads = []

        def counting_load(path, **kwargs):
            loads.append(path)
            return load_manifest(path, **kwargs)

        monkeypatch.setattr("segfuse.cli.load_manifest", counting_load)
        same, other = tmp_path / "same.json", tmp_path / "other.json"
        assert main(["evaluate", str(manifest), str(manifest),
                     "--out", str(same)]) == 0
        assert len(loads) == 1
        assert main(["evaluate", str(manifest), str(copy / "manifest.json"),
                     "--out", str(other)]) == 0
        assert len(loads) == 3
        assert same.read_bytes() == other.read_bytes()

    @pytest.mark.parametrize("field", ["ground_truth", "instances"])
    def test_null_object_ids_give_vertical_records_only(self, tmp_path, field):
        manifest = single_model_manifest(tmp_path)
        edited = _edited(manifest, "no_ids.json", _null_ids(field))
        pred, gt = ((manifest, edited) if field == "ground_truth"
                    else (edited, manifest))
        reports = []
        for args in ((pred, gt), (manifest, manifest)):
            out = tmp_path / f"eval{len(reports)}.json"
            assert main(["evaluate", *map(str, args), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["records"])
        assert [(r["mode"], r["group"]) for r in reports[0]] == [
            ("vertical", c) for c in COMPONENTS]
        assert reports[0] == [r for r in reports[1] if r["mode"] == "vertical"]

    def test_same_missing_manifest_twice_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["evaluate", missing, missing]) == 2
        err = capsys.readouterr().err
        assert "manifest not found" in err and "Traceback" not in err


class TestUsage:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command, flag", [
        ("fuse", ("--workers", "2")),
        ("pipeline", ("--binarize-threshold", "0.7")),
    ])
    def test_flag_of_another_command_is_usage_error(self, tmp_path, capsys,
                                                    command, flag):
        manifest = single_model_manifest(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, str(manifest), "--weights", "uniform", *flag,
                  "--out-dir", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("command, positional", [
        ("fuse", ["m.json"]),
        ("pipeline", ["m.json"]),
        ("evaluate", ["m.json", "gt.json"]),
    ])
    def test_algorithm_defaults_come_from_config(self, capsys, command,
                                                 positional):
        args = build_parser().parse_args([command, *positional])
        for f in fields(PipelineConfig):
            assert getattr(args, f.name) == f.default, f.name
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shown = capsys.readouterr().out
        assert "(default None)" not in shown
        assert f"(default {PipelineConfig.iou_threshold})" in shown


    @pytest.mark.parametrize("argv, names", [
        (["fuse", "--grouping", "both"],
         ["fused_vertical.json", "weights_vertical.json",
          "fused_horizontal.json", "weights_horizontal.json"]),
        (["pipeline"], ["fused_logits.tns", "labels.tns", "overlay.ppm",
                        "instances.json", "report.json"]),
    ], ids=["fuse", "pipeline"])
    def test_wrote_lines_follow_write_order(self, tmp_path, capsys, argv,
                                            names):
        manifest = synth_fixture(tmp_path)
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([*argv[:1], str(manifest), *argv[1:], "--calib",
                     str(manifest), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names]
        assert sorted(f.name for f in out.iterdir()) == sorted(names)


class TestRecordOrder:
    """The order of fused instances and AP records is part of the output
    bytes; these pin it on a fixture whose object ids sort differently as
    strings and as integers."""

    @pytest.fixture
    def twelve(self, tmp_path):
        out = tmp_path / "twelve"
        assert main(["synth", "--seed", "4", "--objects", "12",
                     "--scales", "0.5", "1.0", "--out-dir", str(out)]) == 0
        return out / "manifest.json"

    def test_fuse_both_output_order(self, tmp_path, twelve):
        out = tmp_path / "both"
        assert main(["fuse", str(twelve), "--calib", str(twelve),
                     "--grouping", "both", "--out-dir", str(out)]) == 0
        rank = {c: k for k, c in enumerate(COMPONENTS)}
        vert = load_manifest(out / "fused_vertical.json").instances
        keys = [(i.scale, rank[i.component], str(i.object_id)) for i in vert]
        assert keys == sorted(keys)
        shell_ids = [i.object_id for i in vert
                     if i.scale == 1.0 and i.component == "shell"]
        assert shell_ids[:4] == [0, 1, 10, 11]
        horiz = load_manifest(out / "fused_horizontal.json").instances
        keys = [(i.scale, i.object_id, i.component) for i in horiz]
        assert keys == sorted(keys)
        first = [i.component for i in horiz
                 if i.scale == 1.0 and i.object_id == 0]
        assert first == ["gonad", "meat", "muscle", "shell"]
        weights = json.loads((out / "weights_horizontal.json").read_text())
        assert [r["group"] for r in weights["records"]
                if r["scale"] == 1.0] == list(range(12))

    def test_evaluate_record_order(self, tmp_path, twelve):
        report_path = tmp_path / "eval.json"
        assert main(["evaluate", str(twelve), str(twelve),
                     "--out", str(report_path)]) == 0
        records = json.loads(report_path.read_text())["records"]
        rank = {c: k for k, c in enumerate(COMPONENTS)}
        keys = [(r["scale"], r["mode"] == "horizontal", r["model"],
                 rank[r["group"]] if r["mode"] == "vertical" else r["group"])
                for r in records]
        assert keys == sorted(keys)
        assert len(records) == 2 * 3 * (len(COMPONENTS) + 12)

    def test_report_without_gt_object_ids_is_vertical_only(self, tmp_path):
        manifest = single_model_manifest(tmp_path)
        doc = json.loads(manifest.read_text())
        for rec in doc["ground_truth"]:
            rec["object_id"] = None
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "rep"
        assert main(["pipeline", str(manifest), "--weights", "uniform",
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [(r["mode"], r["group"]) for r in report["ap"]] == [
            ("vertical", c) for c in COMPONENTS]
