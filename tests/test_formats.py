"""Tensor files, manifests, and PPM overlays."""

import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from segfuse import formats
from segfuse.bundle import PredictionBundle
from segfuse.cli import main
from segfuse.errors import DataValidationError, FormatError
from segfuse.formats import (PALETTE, TENSOR_MAGIC, load_manifest,
                             load_tensor, save_manifest, save_tensor,
                             write_overlay)
from segfuse.grids import _BAND_ROWS, AttentionMap, LogitMap, scaled_dim
from segfuse.synth import generate

from conftest import block_mask, make_instance


class TestTensorFile:
    def test_byte_accounting_for_unit_tensor(self, tmp_path):
        p = tmp_path / "t.tns"
        save_tensor(p, LogitMap.zeros(1, 1, 1))
        blob = p.read_bytes()
        assert len(blob) == 28  # 8 magic + 16 header + 4 payload
        assert blob[:8] == TENSOR_MAGIC
        assert struct.unpack("<4I", blob[8:24]) == (1, 1, 1, 0)
        assert struct.unpack("<f", blob[24:]) == (0.0,)

    def test_roundtrip_bit_identical(self, tmp_path, rng):
        data = rng.normal(scale=10.0, size=(5, 7, 3)).astype(np.float32)
        p = tmp_path / "t.tns"
        save_tensor(p, LogitMap.from_array(data))
        assert np.array_equal(load_tensor(p), data)

    def test_logit_map_freezes_the_array_it_read(self, tmp_path, rng,
                                                 monkeypatch):
        p = tmp_path / "t.tns"
        save_tensor(p, LogitMap.from_array(
            rng.normal(size=(3, 4, 2)).astype(np.float32)))
        read, read_tensor = [], formats._read_tensor
        monkeypatch.setattr(formats, "_read_tensor", lambda path, **kw: (
            read.append(read_tensor(path, **kw)) or read[0]))
        grid = formats._read_map(p, "logit_maps[0]", False, True)[1]
        assert grid.data is read[0][1] and not grid.data.flags.writeable

    def test_attention_roundtrip(self, tmp_path, rng):
        data = rng.uniform(size=(4, 6)).astype(np.float32)
        p = tmp_path / "a.tns"
        save_tensor(p, AttentionMap.from_array(data))
        shape, back = formats._read_map(p, "alpha_maps[0]", True, True)
        assert shape == (4, 6, 1) and isinstance(back, AttentionMap)
        assert back.data.tobytes() == data.tobytes()

    def test_attention_map_freezes_the_array_it_read(self, tmp_path, rng,
                                                     monkeypatch):
        p = tmp_path / "a.tns"
        save_tensor(p, rng.uniform(size=(4, 6)).astype(np.float32))
        read, read_tensor = [], formats._read_tensor
        monkeypatch.setattr(formats, "_read_tensor", lambda path, **kw: (
            read.append(read_tensor(path, **kw)) or read[0]))
        data = formats._read_map(p, "alpha_maps[0]", True, True)[1].data
        # reshaped in place: the grid holds the array the read filled
        assert data is read[0][1] and data.shape == (4, 6)
        assert data.flags.owndata and not data.flags.writeable

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.tns"
        p.write_bytes(b"XXXXXXX\x00" + struct.pack("<4I", 1, 1, 1, 0) + b"\x00" * 4)
        with pytest.raises(FormatError):
            load_tensor(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "short.tns"
        p.write_bytes(TENSOR_MAGIC + struct.pack("<4I", 2, 2, 1, 0) + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_tensor(p)

    def test_nan_payload_rejected(self, tmp_path):
        p = tmp_path / "nan.tns"
        payload = struct.pack("<f", float("nan"))
        p.write_bytes(TENSOR_MAGIC + struct.pack("<4I", 1, 1, 1, 0) + payload)
        with pytest.raises(FormatError):
            load_tensor(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_tensor(tmp_path / "absent.tns")

    def test_save_makes_no_whole_payload_copy(self, tmp_path, rng):
        grid = LogitMap.from_array(
            rng.normal(size=(256, 256, 5)).astype(np.float32))
        peak = _traced_peak(lambda: save_tensor(tmp_path / "t.tns", grid))
        assert peak < grid.data.nbytes / 2, peak

    def test_nonzero_reserved_rejected(self, tmp_path):
        p = tmp_path / "r.tns"
        p.write_bytes(TENSOR_MAGIC + struct.pack("<4I", 1, 1, 1, 7) + b"\x00" * 4)
        with pytest.raises(FormatError):
            load_tensor(p)


def _tiny_bundle(with_maps=False):
    inst = make_instance(block_mask(4, 4, 0, 2, 0, 2), score=0.75, uid=0)
    gt = make_instance(block_mask(4, 4, 0, 2, 0, 2), model_id="gt", score=1.0,
                       uid=0)
    maps = {}
    alphas = {}
    if with_maps:
        maps[("m0", 1.0)] = LogitMap.full(4, 4, 5, 0.25)
        alphas[("m0", 1.0)] = AttentionMap.full(4, 4, 0.5)
    return PredictionBundle(image_id="img-1", height=4, width=4, models=("m0",),
                            scales=(1.0,), instances=(inst,),
                            ground_truth=(gt,), logit_maps=maps,
                            alpha_maps=alphas)


class TestManifest:
    def test_minimal_manifest_roundtrip(self, tmp_path):
        path = save_manifest(_tiny_bundle(), tmp_path / "m.json")
        bundle = load_manifest(path)
        assert bundle.image_id == "img-1"
        assert len(bundle.instances) == 1
        inst = bundle.instances[0]
        assert inst.component == "shell" and inst.score == 0.75
        # rows 0-1 carry [1,1,0,0]; the trailing zeros coalesce into one run
        assert inst.mask.counts == (0, 2, 2, 2, 10)

    def test_roundtrip_with_tensors(self, tmp_path):
        path = save_manifest(_tiny_bundle(with_maps=True), tmp_path / "m.json")
        bundle = load_manifest(path)
        assert np.array_equal(bundle.logit_maps[("m0", 1.0)].data,
                              np.full((4, 4, 5), 0.25, np.float32))
        assert np.array_equal(bundle.alpha_maps[("m0", 1.0)].data,
                              np.full((4, 4), 0.5, np.float32))

    @pytest.mark.parametrize("field", ["logit_maps", "alpha_maps"])
    def test_model_id_that_leaves_the_directory_is_refused(self, tmp_path,
                                                           field):
        # a tensor's file name is built from its model id; "m0"'s maps sort
        # first, so a writer that checked each name only as it came to it
        # would have written them before it refused
        escaped = "m1/../../../escaped"
        tiny = _tiny_bundle(with_maps=True)
        maps = {f: dict(getattr(tiny, f)) for f in ("logit_maps", "alpha_maps")}
        maps[field][escaped, 1.0] = maps[field]["m0", 1.0]
        bundle = replace(tiny, models=("m0", escaped), **maps)
        target = tmp_path / "a" / "b" / "m.json"
        with pytest.raises(DataValidationError,
                           match=re.escape(f"map {(escaped, 1.0)!r}: tensor "
                                           f"file '{escaped}_s1.0_")):
            save_manifest(bundle, target)
        assert list(tmp_path.rglob("*")) == []

    def test_save_load_save_is_byte_stable(self, tmp_path):
        p1 = save_manifest(_tiny_bundle(with_maps=True), tmp_path / "a" / "m.json")
        p2 = save_manifest(load_manifest(p1), tmp_path / "b" / "m.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_rle_sum_mismatch_names_record(self, tmp_path):
        doc = json.loads(save_manifest(_tiny_bundle(),
                                       tmp_path / "m.json").read_text())
        doc["instances"][0]["rle"] = [15]  # 4x4 grid needs 16
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"instances\[0\].*15"):
            load_manifest(bad)

    @pytest.mark.parametrize("counts, total", [
        ([2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62 + 16], 2 ** 64 + 16),
        ([10 ** 30, 16], 10 ** 30 + 16),
    ], ids=["int64-sum-wraps-to-16", "beyond-int64"])
    def test_hostile_rle_counts_name_record(self, tmp_path, capsys, counts,
                                            total):
        doc = json.loads(save_manifest(_tiny_bundle(),
                                       tmp_path / "m.json").read_text())
        doc["instances"][0]["rle"] = counts  # a 4x4 grid needs 16
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        named = rf"instances\[0\]: RLE counts sum {total} != 16"
        with pytest.raises(FormatError, match=rf"^{named}"):
            load_manifest(bad)
        with pytest.raises(FormatError, match=rf"^{named}"):
            load_manifest(bad, maps=False)
        assert main(["fuse", str(bad), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(named, err), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("rle", [True, 15], "rle counts must be integers"),
        ("rle", [0, 2, 2, 2, 10.0], "rle counts must be integers"),
        ("bbox", [False, 0, 2, 2], "bbox must be four integers"),
        ("object_id", True, "object_id must be an integer or null"),
    ], ids=["bool-count", "float-count", "bool-bbox", "bool-object-id"])
    def test_non_integer_field_names_record(self, tmp_path, key, value,
                                            message):
        doc = json.loads(save_manifest(_tiny_bundle(),
                                       tmp_path / "m.json").read_text())
        doc["instances"][0][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"^instances\[0\]: {message}$"):
            load_manifest(bad)

    def test_unknown_component_names_record(self, tmp_path):
        doc = json.loads(save_manifest(_tiny_bundle(),
                                       tmp_path / "m.json").read_text())
        doc["instances"][0]["component"] = "pearl"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError, match=r"instances\[0\].*pearl"):
            load_manifest(bad)

    @pytest.mark.parametrize("key, value, message", [
        ("model", "m9", "unknown model 'm9'"),
        ("scale", 2.0, "unknown scale 2.0"),
    ])
    def test_unlisted_instance_key_names_record(self, tmp_path, key, value,
                                                message):
        bundle = _tiny_bundle()
        bundle = replace(bundle, instances=bundle.instances * 4)
        doc = json.loads(save_manifest(bundle, tmp_path / "m.json").read_text())
        doc["instances"][3][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataValidationError,
                           match=rf"^instances\[3\]: {message}$"):
            load_manifest(bad)
        assert main(["fuse", str(bad), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("with_maps", [False, True])
    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_manifest_scale_rejected(self, tmp_path, capsys,
                                                with_maps, scale):
        doc = json.loads(save_manifest(_tiny_bundle(with_maps=with_maps),
                                       tmp_path / "m.json").read_text())
        doc["scales"] = [scale]
        for rec in (*doc["instances"], *doc.get("logit_maps", []),
                    *doc.get("alpha_maps", [])):
            rec["scale"] = scale
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="finite"):
            load_manifest(bad)
        assert main(["fuse", str(bad), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, named", [
        (("instances", 0, "score"), r"instances\[0\]: field 'score'"),
        (("instances", 0, "scale"), r"instances\[0\]: field 'scale'"),
        (("logit_maps", 0, "scale"), r"logit_maps\[0\]: field 'scale'"),
        (("alpha_maps", 0, "scale"), r"alpha_maps\[0\]: field 'scale'"),
        (("scales", 0), r"manifest: scales\[0\]"),
        (("ground_truth", 0, "score"), r"ground_truth\[0\]: field 'score'"),
    ], ids=["instance-score", "instance-scale", "logit-map-scale",
            "alpha-map-scale", "scales-entry", "gt-score"])
    def test_integer_too_large_for_a_float_names_field(self, tmp_path, capsys,
                                                       path, named):
        doc = json.loads(save_manifest(_tiny_bundle(with_maps=True),
                                       tmp_path / "m.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["fuse", str(bad), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(rf"{named} is too large for a float", err), err

    @pytest.mark.parametrize("field", ["instances", "ground_truth"])
    def test_bbox_outside_image_names_record(self, tmp_path, capsys, field):
        doc = json.loads(save_manifest(_tiny_bundle(),
                                       tmp_path / "m.json").read_text())
        doc[field][0]["bbox"] = [0, 0, 2, 5]  # 4x4 image
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        named = rf"{field}\[0\]: bbox .* exceeds .*4x4"
        with pytest.raises(DataValidationError, match=rf"^{named}"):
            load_manifest(bad)
        assert main(["fuse", str(bad), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(named, err), err

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_bundle_rejects_non_finite_scale(self, scale):
        with pytest.raises(DataValidationError, match="finite"):
            PredictionBundle(image_id="x", height=4, width=4, models=("m0",),
                             scales=(scale,), instances=())

    @pytest.mark.parametrize("field", ["logit_maps", "alpha_maps"])
    def test_non_object_map_record_names_record(self, tmp_path, field):
        doc = json.loads(save_manifest(_tiny_bundle(with_maps=True),
                                       tmp_path / "m.json").read_text())
        doc[field] = [doc[field][0], 5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"{field}\[1\]"):
            load_manifest(bad)
        assert main(["pipeline", str(bad), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_boolean_dimension_rejected(self, tmp_path):
        doc = json.loads(save_manifest(_tiny_bundle(),
                                       tmp_path / "m.json").read_text())
        doc["height"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="'height' must be int"):
            load_manifest(bad)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            load_manifest(p)
        # not UTF-8, and nested past the recursion limit
        for raw in (b'\xff\xfe{"schema_version": 1}',
                    b"[" * 100_000 + b"]" * 100_000):
            p.write_bytes(raw)
            with pytest.raises(FormatError, match=re.escape(str(p))):
                load_manifest(p)

    def test_wrong_schema_version(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(FormatError):
            load_manifest(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_manifest(tmp_path / "absent.json")

    def test_tensor_dim_mismatch_detected(self, tmp_path):
        path = save_manifest(_tiny_bundle(with_maps=True), tmp_path / "m.json")
        # overwrite the tensor with wrong dims
        save_tensor(tmp_path / "tensors" / "m0_s1.0_logits.tns",
                    LogitMap.full(3, 3, 5, 0.1))
        with pytest.raises(DataValidationError, match="logit_maps"):
            load_manifest(path)

    def test_synth_bundle_roundtrips(self, tmp_path):
        bundle = generate(5, scales=(0.5, 1.0), objects=2, height=48,
                          width=64)
        path = save_manifest(bundle, tmp_path / "m.json")
        back = load_manifest(path)
        assert back.models == bundle.models
        assert back.scales == bundle.scales
        assert len(back.instances) == len(bundle.instances)
        for a, b in zip(back.instances, bundle.instances):
            assert a.mask.counts == b.mask.counts
            assert a.score == b.score
        for key in bundle.logit_maps:
            assert np.array_equal(back.logit_maps[key].data,
                                  bundle.logit_maps[key].data)


def _odd_bundle(rng):
    """Two models at three scales on a 5x7 image, with random maps on each
    scale's round-half-up grid."""
    logits, alphas = {}, {}
    for key in ((m, s) for m in ("m0", "m1") for s in (0.25, 0.5, 1.0)):
        grid = (scaled_dim(5, key[1]), scaled_dim(7, key[1]))
        logits[key] = LogitMap.from_array(
            rng.normal(size=(*grid, 5)).astype(np.float32))
        alphas[key] = AttentionMap.from_array(
            rng.uniform(size=grid).astype(np.float32))
    return PredictionBundle(
        image_id="odd", height=5, width=7, models=("m0", "m1"),
        scales=(0.25, 0.5, 1.0),
        instances=(make_instance(block_mask(5, 7, 0, 2, 0, 2), uid=0),),
        logit_maps=logits, alpha_maps=alphas)


class TestBundleMaps:
    """A bundle holds only maps on their scales' grids, in read-only
    mappings, so every bundle it accepts can be saved and loaded back."""

    OFF_GRID = {"logit": LogitMap.full(90, 120, 5, 0.0),
                "alpha": AttentionMap.full(90, 120, 0.5)}

    @pytest.mark.parametrize("build", ["init", "replace"])
    @pytest.mark.parametrize("kind", ["logit", "alpha"])
    def test_off_grid_map_is_named(self, kind, build):
        bundle = generate(5, scales=(0.5, 1.0))
        maps = {**getattr(bundle, f"{kind}_maps"),
                ("m1", 1.0): self.OFF_GRID[kind]}
        named = (rf"{kind} map \('m1', 1.0\): tensor grid \(90, 120\) does "
                 rf"not match scale 1.0 of a 96x128 image "
                 rf"\(expected \(96, 128\)\)")
        with pytest.raises(DataValidationError, match=named):
            if build == "init":
                PredictionBundle(**{**vars(bundle), f"{kind}_maps": maps})
            else:
                replace(bundle, **{f"{kind}_maps": maps})

    @pytest.mark.parametrize("field", ["logit_maps", "alpha_maps"])
    def test_maps_are_read_only(self, field):
        bundle = generate(5, scales=(0.5, 1.0))
        maps = getattr(bundle, field)
        with pytest.raises(TypeError):
            maps[("m0", 0.5)] = maps[("m0", 1.0)]

    @pytest.mark.parametrize("built", ["generate", "hand"])
    def test_round_trip_keeps_every_map_bitwise(self, tmp_path, rng, built):
        bundle = (generate(5, scales=(0.5, 1.0)) if built == "generate"
                  else _odd_bundle(rng))
        back = load_manifest(save_manifest(bundle, tmp_path / "m.json"))
        for field in ("logit_maps", "alpha_maps"):
            mine, theirs = getattr(bundle, field), getattr(back, field)
            assert sorted(mine) == sorted(theirs)
            for key, grid in mine.items():
                assert grid.data.tobytes() == theirs[key].data.tobytes()


def _large_manifest(tmp_path, side, rng):
    """One model at scale 1.0 on a side x side image, with random logits and
    alphas; returns the manifest path and both arrays written."""
    inst = make_instance(block_mask(side, side, 0, 2, 0, 2), uid=0)
    logits = rng.normal(size=(side, side, 5)).astype(np.float32)
    alpha = rng.uniform(size=(side, side)).astype(np.float32)
    bundle = PredictionBundle(
        image_id="large", height=side, width=side, models=("m0",),
        scales=(1.0,), instances=(inst,), ground_truth=(),
        logit_maps={("m0", 1.0): LogitMap.from_array(logits)},
        alpha_maps={("m0", 1.0): AttentionMap.from_array(alpha)})
    return save_manifest(bundle, tmp_path / "m.json"), logits, alpha


def _poke(path, index, value):
    """Overwrite float ``index`` of a tensor file's payload in place."""
    blob = bytearray(path.read_bytes())
    at = 24 + 4 * index if index >= 0 else len(blob) + 4 * index
    blob[at:at + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))


def _traced_peak(fn):
    """Traced allocation peak of ``fn()`` above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_window_decode_is_bounded_by_the_box(tmp_path):
    # one pixel on a 2 x 200,000,000 grid: decoding whole rows of the box
    # would take 200 MB
    width = 200_000_000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "schema_version": 1, "image_id": "wide", "height": 2, "width": width,
        "models": ["m0"], "scales": [1.0],
        "instances": [{"model": "m0", "scale": 1.0, "score": 0.9,
                       "component": "shell", "object_id": 0,
                       "bbox": [5, 1, 6, 2], "rle": [width + 5, 1, width - 6]}]}))
    assert _traced_peak(lambda: load_manifest(path, maps=False)) < 256 * 1024



def test_bbox_error_names_the_extent_from_the_runs(tmp_path):
    # the one pixel, at x=5 of row 1, lies outside its bbox: decoding the
    # whole 2 x 200,000,000 frame to name the mask's extent would take 400 MB
    width = 200_000_000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "schema_version": 1, "image_id": "wide", "height": 2, "width": width,
        "models": ["m0"], "scales": [1.0],
        "instances": [{"model": "m0", "scale": 1.0, "score": 0.9,
                       "component": "shell", "object_id": 0,
                       "bbox": [7, 1, 8, 2], "rle": [width + 5, 1, width - 6]}]}))
    errors = []

    def load():
        with pytest.raises(DataValidationError) as info:
            load_manifest(path, maps=False)
        errors.append(str(info.value))

    assert _traced_peak(load) < 256 * 1024
    assert errors == ["instances[0]: bbox BBox(x0=7, y0=1, x1=8, y1=2) does "
                      "not enclose the mask extent BBox(x0=5, y0=1, x1=6, y1=2)"]


def test_a_loaded_bundle_holds_no_decoded_mask(tmp_path):
    # one large object per frame, so its runs take far fewer bytes than
    # its box has pixels; a decoded window would take a byte per pixel
    path = save_manifest(generate(2, objects=1, models=2, height=256,
                                  width=256), tmp_path / "manifest.json")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bundle = load_manifest(path, maps=False)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    insts = bundle.instances + bundle.ground_truth
    assert not [name for inst in insts for name, value in vars(inst).items()
                if isinstance(value, np.ndarray)]
    assert held < sum(i.bbox.width * i.bbox.height for i in insts) / 2


class TestChunkedCheck:
    """Tensor payloads are read and checked in chunks of
    ``formats._CHUNK_BYTES``; a kept load and a validation-only load give
    the same error, in the same order of checks, wherever the fault lies."""

    SIDE = 300  # every tensor here spans more than one chunk

    @staticmethod
    def _break(logits, alpha, how):
        side = TestChunkedCheck.SIDE
        if how == "nan-in-last-chunk":
            _poke(logits, -1, float("nan"))
        elif how == "alpha-above-one-in-last-chunk":
            _poke(alpha, -1, 1.5)
        elif how == "extra-bytes":
            logits.write_bytes(logits.read_bytes() + b"\x00" * 4)
        elif how == "alpha-range-first-nan-last":
            _poke(alpha, 0, 1.5)
            _poke(alpha, -1, float("nan"))
        elif how == "two-channel-alpha-with-nan":
            save_tensor(alpha, np.full((side, side, 2), 0.5, np.float32))
            _poke(alpha, -1, float("nan"))
        elif how == "two-channel-alpha-above-one":
            save_tensor(alpha, np.full((side, side, 2), 1.5, np.float32))
        elif how == "wrong-grid-alpha-above-one":
            save_tensor(alpha, np.full((side + 1, side), 1.5, np.float32))
        else:  # wrong-grid-logits-with-nan
            save_tensor(logits, np.zeros((side + 1, side, 5), np.float32))
            _poke(logits, -1, float("inf"))

    NON_FINITE = r"{}_maps\[0\]: \S+_{}\.tns: payload contains non-finite values"
    OUT_OF_RANGE = r"alpha_maps\[0\]: AttentionMap values must lie in \[0, 1\]"
    ERRORS = {
        "nan-in-last-chunk": (FormatError, NON_FINITE.format("logit", "logits")),
        "alpha-above-one-in-last-chunk": (DataValidationError, OUT_OF_RANGE),
        "extra-bytes": (FormatError, r"logit_maps\[0\]: \S+_logits\.tns: "
                        r"payload is 1800004 bytes, expected 1800000"),
        "alpha-range-first-nan-last": (FormatError,
                                       NON_FINITE.format("alpha", "alpha")),
        "two-channel-alpha-with-nan": (FormatError,
                                       NON_FINITE.format("alpha", "alpha")),
        "two-channel-alpha-above-one": (
            FormatError, r"alpha_maps\[0\]: \S+_alpha\.tns: attention tensor "
                         r"must have 1 channel, got 2"),
        "wrong-grid-alpha-above-one": (DataValidationError, OUT_OF_RANGE),
        "wrong-grid-logits-with-nan": (FormatError,
                                       NON_FINITE.format("logit", "logits")),
    }

    @pytest.mark.parametrize("how", list(ERRORS))
    def test_same_error_kept_or_not(self, tmp_path, rng, how):
        kind, message = self.ERRORS[how]
        path = _large_manifest(tmp_path, self.SIDE, rng)[0]
        logits = tmp_path / "tensors" / "m0_s1.0_logits.tns"
        alpha = tmp_path / "tensors" / "m0_s1.0_alpha.tns"
        self._break(logits, alpha, how)
        assert alpha.stat().st_size - 24 > formats._CHUNK_BYTES
        errors = []
        for maps in (True, False):
            with pytest.raises((FormatError, DataValidationError)) as caught:
                load_manifest(path, maps=maps)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is kind and re.fullmatch(message, errors[0][1]), \
            errors[0]

    @pytest.mark.parametrize("how", ["nan-in-last-chunk",
                                     "alpha-above-one-in-last-chunk"])
    def test_band_read_raises_what_the_load_raises(self, tmp_path, rng, how):
        # the band reader and the load share one checked range read: the
        # same fault gives the same error, record name included
        path = _large_manifest(tmp_path, self.SIDE, rng)[0]
        logits = tmp_path / "tensors" / "m0_s1.0_logits.tns"
        alpha = tmp_path / "tensors" / "m0_s1.0_alpha.tns"
        self._break(logits, alpha, how)
        field = "alpha_maps" if how.startswith("alpha") else "logit_maps"
        [rec] = json.loads(path.read_text())[field]
        shape = (self.SIDE, self.SIDE, 1 if field == "alpha_maps" else 5)
        errors = []
        for maps in (True, False):
            with pytest.raises((FormatError, DataValidationError)) as caught:
                load_manifest(path, maps=maps)
            errors.append((type(caught.value), str(caught.value)))
        with pytest.raises((FormatError, DataValidationError)) as caught:
            with formats._tensor_rows(path.parent / rec["path"], f"{field}[0]",
                                      field == "alpha_maps", shape) as read:
                for r0 in range(0, self.SIDE, _BAND_ROWS):
                    read(r0, min(r0 + _BAND_ROWS, self.SIDE))
        errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1] == errors[2]
        kind, message = self.ERRORS[how]
        assert errors[0][0] is kind and re.fullmatch(message, errors[0][1]), \
            errors[0]

    def test_kept_load_returns_every_chunk(self, tmp_path, rng):
        path, logits, alpha = _large_manifest(tmp_path, self.SIDE, rng)
        bundle = load_manifest(path)
        for grid, data in ((bundle.logit_maps[("m0", 1.0)], logits),
                           (bundle.alpha_maps[("m0", 1.0)], alpha)):
            assert np.array_equal(grid.data, data)
            assert not grid.data.flags.writeable

    def test_validation_only_load_holds_no_whole_tensor(self, tmp_path, rng):
        path, logits, _ = _large_manifest(tmp_path, 512, rng)
        assert logits.nbytes >= 4 * 2**20
        peak = _traced_peak(lambda: load_manifest(path, maps=False))
        assert peak < logits.nbytes, peak


class TestOverlay:
    def test_all_background(self, tmp_path):
        p = tmp_path / "o.ppm"
        write_overlay(2, 3, np.zeros((2, 3), dtype=np.int64), p)
        blob = p.read_bytes()
        assert blob == b"P6\n3 2\n255\n" + bytes(PALETTE[0]) * 6

    def test_single_shell_pixel(self, tmp_path):
        p = tmp_path / "o.ppm"
        write_overlay(1, 1, np.array([[1]]), p)
        assert p.read_bytes() == b"P6\n1 1\n255\n" + bytes(PALETTE[1])

    def test_deterministic_bytes(self, tmp_path, rng):
        labels = rng.integers(0, 5, size=(8, 8))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_overlay(8, 8, labels, p1)
        write_overlay(8, 8, labels, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_int64_labels_are_not_copied(self, tmp_path):
        labels = np.zeros((256, 256), dtype=np.int64)
        labels[::2] = 3
        p = tmp_path / "o.ppm"
        peak = _traced_peak(lambda: write_overlay(256, 256, labels, p))
        assert peak < 2 * labels.size * 3, peak  # the pixels, built once
        assert p.read_bytes()[-3:] == bytes(PALETTE[0])

    def test_out_of_range_label(self, tmp_path):
        with pytest.raises(DataValidationError):
            write_overlay(1, 1, np.array([[5]]), tmp_path / "o.ppm")
