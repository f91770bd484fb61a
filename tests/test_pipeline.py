"""Orchestration-level contracts not exercised through the CLI."""

import tracemalloc
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from segfuse import pipeline
from segfuse.bundle import PredictionBundle
from segfuse.config import PipelineConfig
from segfuse.errors import DataValidationError
from segfuse.formats import load_manifest, save_manifest
from segfuse.fusion import FusionWeights, weighted_average
from segfuse.grids import (AttentionMap, LogitMap, _band_rows,
                           _resample_rows)
from segfuse.hierarchy import run_inference_chain
from segfuse.masks import COMPONENTS, rle_decode
from segfuse.pipeline import (_fuse_global, _fusion_weights,
                              _mean_alpha, _object_regions, run_evaluate,
                              run_fuse, run_pipeline, write_pipeline_outputs)
from segfuse.synth import generate

from conftest import block_mask, make_instance
from reference import (argmax_ref, bilinear_gather_ref, fuse_logits_ref,
                       label_instances_ref, mean_alpha_ref)

# a 128-wide grid walks 64-row bands
WIDTH = 128
ROWS = _band_rows(WIDTH)


@pytest.fixture
def pixel_calls(monkeypatch):
    """Calls of each pixel stage of ``fuse`` and ``pipeline``, by name."""
    calls = Counter()

    def counted(name):
        fn = getattr(pipeline, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_fuse_global", "_local_map", "fuse_masks"):
        monkeypatch.setattr(pipeline, name, counted(name))
    return calls


def test_fuse_requires_object_ids_for_correspondence():
    inst = make_instance(block_mask(8, 8, 0, 4, 0, 4), object_id=None)
    bundle = PredictionBundle(image_id="x", height=8, width=8, models=("m0",),
                              scales=(1.0,), instances=(inst,))
    with pytest.raises(DataValidationError, match="object id"):
        run_fuse(bundle, None, PipelineConfig(weights_mode="uniform"),
                 "vertical")


def test_fuse_rejects_missing_calibration():
    inst = make_instance(block_mask(8, 8, 0, 4, 0, 4))
    bundle = PredictionBundle(image_id="x", height=8, width=8, models=("m0",),
                              scales=(1.0,), instances=(inst,))
    with pytest.raises(DataValidationError, match="calib"):
        run_fuse(bundle, None, PipelineConfig(), "vertical")


def test_fuse_empty_cell_result_is_dropped():
    # two models disagree completely with weights 0.5/0.5: threshold 0.6
    # leaves no pixel, so no fused instance is emitted
    a = make_instance(block_mask(8, 8, 0, 4, 0, 8), model_id="m0", uid=0,
                      score=0.9)
    b = make_instance(block_mask(8, 8, 4, 8, 0, 8), model_id="m1", uid=1,
                      score=0.9)
    bundle = PredictionBundle(image_id="x", height=8, width=8,
                              models=("m0", "m1"), scales=(1.0,),
                              instances=(a, b))
    fused, _ = run_fuse(bundle, None,
                        PipelineConfig(weights_mode="uniform",
                                       binarize_threshold=0.6), "vertical")
    assert fused.instances == ()


def test_pipeline_requires_component_channel_layout():
    maps = {("m0", 1.0): LogitMap.full(8, 8, 3, 0.0)}
    inst = make_instance(block_mask(8, 8, 0, 4, 0, 4))
    bundle = PredictionBundle(image_id="x", height=8, width=8, models=("m0",),
                              scales=(1.0,), instances=(inst,),
                              logit_maps=maps)
    with pytest.raises(DataValidationError, match="channels"):
        run_pipeline(bundle, None, PipelineConfig(weights_mode="uniform"))


@pytest.mark.parametrize("mode, message", [
    ("vertical", "mask fusion requires object ids"),
    ("horizontal", "horizontal grouping requires object ids on every instance"),
])
def test_fuse_checks_object_ids_before_any_cell(pixel_calls, mode, message):
    bundle = generate(3, objects=2, height=64, width=64, scales=(0.5, 1.0))
    *kept, last = bundle.instances  # the last cell of the finest scale
    bundle = replace(bundle, instances=(*kept, replace(last, object_id=None)))
    with pytest.raises(DataValidationError, match=message):
        run_fuse(bundle, None, PipelineConfig(weights_mode="uniform"), mode)
    assert pixel_calls == Counter()


@pytest.mark.parametrize("run", [
    lambda bundle, calib: run_pipeline(bundle, calib, PipelineConfig()),
    lambda bundle, calib: run_fuse(bundle, calib, PipelineConfig(), "vertical"),
], ids=["pipeline", "fuse"])
def test_calibration_without_finest_scale_fails_before_pixels(pixel_calls,
                                                              run):
    bundle = generate(3, objects=2, height=64, width=64, scales=(0.5, 1.0))
    calib = generate(4, objects=2, height=64, width=64, scales=(0.5,))
    with pytest.raises(DataValidationError, match=r"calibration manifest "
                       r"has no predictions at scale 1\.0"):
        run(bundle, calib)
    assert pixel_calls == Counter()


def test_pipeline_horizontal_weights_need_calibrated_object(pixel_calls):
    # object 1 of the image is missing from the split: no pixel is worked
    # before the weights fail
    bundle = generate(3, objects=2, height=64, width=64, scales=(0.5, 1.0))
    calib = generate(3, objects=1, height=64, width=64, scales=(0.5, 1.0))
    with pytest.raises(DataValidationError,
                       match="no AP entry for model 'm0' in group 1"):
        run_pipeline(bundle, calib, PipelineConfig())
    with pytest.raises(DataValidationError,
                       match="no AP entry for model 'm0' in group 1"):
        run_fuse(bundle, calib, PipelineConfig(), "horizontal")
    assert pixel_calls == Counter()


def test_logit_map_off_its_scale_grid_is_named():
    bundle = generate(5, scales=(0.5, 1.0))
    maps = {**bundle.logit_maps, ("m1", 0.5): LogitMap.full(40, 60, 5, 0.0)}
    with pytest.raises(DataValidationError,
                       match=r"logit map \('m1', 0.5\): tensor grid \(40, 60\) "
                             r"does not match scale 0.5 of a 96x128 image "
                             r"\(expected \(48, 64\)\)"):
        replace(bundle, logit_maps=maps)


@pytest.mark.parametrize("dropped", [("m1",), ("m0", "m2")])
def test_mean_alpha_over_present_maps_matches_reference(dropped):
    sub = generate(5, scales=(0.5, 1.0)).with_scale(0.5)
    by_model = {m: a.data for (m, _), a in sub.alpha_maps.items()}
    # keyed in reverse model order; the reference below sums in model order
    alphas = {m: by_model[m] for m in reversed(sub.models) if m not in dropped}
    got = _mean_alpha(sub.models, alphas, (48, 64), PipelineConfig())
    ref = mean_alpha_ref([by_model[m] for m in sub.models if m not in dropped])
    assert got.tobytes() == ref.tobytes()
    full = _mean_alpha(sub.models, by_model, (48, 64), PipelineConfig())
    assert got.tobytes() != full.tobytes()
    const = _mean_alpha(sub.models, {}, (48, 64),
                        PipelineConfig(alpha_const=0.25))
    assert const.tobytes() == np.full((48, 64), 0.25, np.float32).tobytes()


@pytest.mark.parametrize("alphas", ["all", "one-missing", "none"])
@pytest.mark.parametrize("rows", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
def test_band_built_gate_is_the_whole_frame_mean(tmp_path, monkeypatch,
                                                  rows, alphas):
    # the coarser scale's grid has ``rows`` rows of 128 pixels, so its gate
    # is built from one band, from whole bands, or from whole bands and one
    # row more
    assert 2 * ROWS + 1 > 2 * _band_rows(WIDTH)
    height, scale = (16, 0.0625) if rows == 1 else (2 * rows, 0.5)
    bundle = generate(3, objects=1, height=height, width=2 * WIDTH,
                      scales=(scale, 1.0))
    keep = {"all": bundle.models, "one-missing": ("m0", "m2"),
            "none": ()}[alphas]
    # random gates: synth's are mirror-symmetric in rows, which would hide
    # a band read from the mirrored rows
    rng = np.random.default_rng(rows)
    bundle = replace(bundle, alpha_maps={
        k: AttentionMap.from_array(rng.uniform(size=a.shape).astype(np.float32))
        for k, a in bundle.alpha_maps.items() if k[0] in keep})
    path = save_manifest(bundle, tmp_path / "manifest.json")
    maps, opened = {}, []
    loaded = load_manifest(path, maps=maps)

    def counted(key, opener):
        return lambda: opened.append(key) or opener()

    maps = {k: (c, counted(k, opener)) for k, (c, opener) in maps.items()}
    fuse_scale, passes = pipeline._fuse_scale, []

    def recorded(*args, **kwargs):
        bands = []  # listed when the pass is made, not when pulled
        passes.append(bands)
        return (bands.append(item) or item
                for item in fuse_scale(*args, **kwargs))

    monkeypatch.setattr(pipeline, "_fuse_scale", recorded)
    run_pipeline(loaded, None, PipelineConfig(weights_mode="uniform",
                                              alpha_const=0.25), maps=maps)
    # the finest scale's bands go to the reference grid: they carry no
    # gate, and its alpha maps are never opened
    coarse, finest = passes
    assert {band.shape[2] for _, band in finest} == {len(COMPONENTS) + 1}
    assert {band.shape[2] for _, band in coarse} == {len(COMPONENTS) + 2}
    assert [k for k in opened if k[0] == "alpha_maps"] == [
        ("alpha_maps", m, scale) for m in keep]
    width = WIDTH if rows > 1 else 16
    assert [r0 for r0, _ in coarse] == list(range(0, rows, _band_rows(width)))
    gate = np.concatenate([band[..., -1:] for _, band in coarse])
    assert gate.shape == (rows, width, 1)
    want = (mean_alpha_ref([bundle.alpha_maps[m, scale].data for m in keep])
            if keep else np.full(gate.shape[:2], 0.25, np.float32))
    assert gate.tobytes() == want.tobytes()


def test_evaluate_requires_ground_truth():
    inst = make_instance(block_mask(8, 8, 0, 4, 0, 4))
    pred = PredictionBundle(image_id="x", height=8, width=8, models=("m0",),
                            scales=(1.0,), instances=(inst,))
    with pytest.raises(DataValidationError, match="ground"):
        run_evaluate(pred, pred, PipelineConfig())


def test_uniform_and_ap_weights_agree_when_models_tie():
    # perturbation 0 makes every model identical, so AP weights collapse to
    # uniform and both fusions produce identical bytes
    bundle = generate(8, perturb=0, objects=2, height=64, width=64)
    ap_fused, _ = run_fuse(bundle, bundle, PipelineConfig(), "vertical")
    uni_fused, _ = run_fuse(bundle, None,
                            PipelineConfig(weights_mode="uniform"),
                            "vertical")
    assert len(ap_fused.instances) == len(uni_fused.instances)
    for x, y in zip(ap_fused.instances, uni_fused.instances):
        assert x.mask.counts == y.mask.counts


def test_pipeline_ap_weights_beat_uniform_baseline():
    # one exact model, two heavily perturbed: AP-derived weights must not do
    # worse than the unweighted mean on any component of this fixture
    bundle = generate(99, objects=4, models=3, perturb=7, height=96,
                      width=128, scales=(0.5, 1.0))
    cfg = PipelineConfig()
    weighted = {r["group"]: r["ap"]
                for r in run_pipeline(bundle, bundle, cfg).report["ap"]
                if r["mode"] == "vertical"}
    uniform_cfg = PipelineConfig(weights_mode="uniform")
    uniform = {r["group"]: r["ap"]
               for r in run_pipeline(bundle, None, uniform_cfg).report["ap"]
               if r["mode"] == "vertical"}
    for comp in ("shell", "meat", "gonad", "muscle"):
        assert weighted.get(comp, 0.0) >= uniform.get(comp, 0.0), comp
    assert any(weighted.get(c, 0.0) > uniform.get(c, 0.0)
               for c in ("shell", "meat", "gonad", "muscle"))


def test_pipeline_result_instances_nest():
    bundle = generate(5, objects=2, height=64, width=64)
    result = run_pipeline(bundle, bundle, PipelineConfig())
    by_key = {(i.object_id, i.component): rle_decode(i.mask)
              for i in result.carved.instances}
    for oid in {i.object_id for i in result.carved.instances}:
        chain = [by_key.get((oid, c)) for c in
                 ("shell", "meat", "gonad", "muscle")]
        present = [c for c in chain if c is not None]
        for outer, inner in zip(present, present[1:]):
            assert (inner <= outer).all()


def test_frame_ensemble_matches_oracle_per_channel():
    bundle = generate(6, objects=3, height=48, width=64)
    cfg = PipelineConfig()
    weights, _ = _fusion_weights(bundle, bundle, cfg, {
        1.0: {"vertical": dict.fromkeys(COMPONENTS)}})
    vectors = [FusionWeights.uniform(bundle.models),
               *weights[1.0, "vertical"].values()]
    assert len({v.weights for v in vectors}) > 2  # channels weigh differently
    maps = {m: bundle.logit_maps[(m, 1.0)] for m in bundle.models}
    got = _fuse_global(maps, vectors).data
    for ch, vec in enumerate(vectors):
        want = fuse_logits_ref([maps[m].data[:, :, ch] for m in vec.models],
                               [c for _, c in vec.weights])
        assert np.array_equal(got[:, :, ch], want)


def test_label_regions_span_every_scale():
    # object 0 is predicted only at the coarse scale: its region still comes
    # from the union over all scales, so its components are still carved
    full = generate(5, objects=3, height=64, width=64, scales=(0.5, 1.0))
    bundle = replace(full, instances=tuple(
        i for i in full.instances if (i.object_id, i.scale) != (0, 1.0)))
    cfg = PipelineConfig(weights_mode="uniform")
    regions = _object_regions(bundle, cfg)
    result = run_pipeline(bundle, None, cfg)
    assert {i.object_id for i in result.carved.instances} == set(regions) == {0, 1, 2}
    for inst in result.carved.instances:
        region = regions[inst.object_id]
        assert region.union(inst.bbox) == region


def _union_boxes(bundle):
    boxes = {}
    for inst in bundle.instances:
        box = boxes.get(inst.object_id)
        boxes[inst.object_id] = inst.bbox if box is None else box.union(inst.bbox)
    return boxes


def _overlapping_pairs(regions):
    oids = sorted(regions)
    return [(a, b) for k, a in enumerate(oids) for b in oids[k + 1:]
            if regions[a].intersection(regions[b]) is not None]


# (fixture, config): expanded regions that overlap, regions clipped at the
# frame edge, a single object, and overlapping regions taller than two bands
# of the carving's softmax
CARVING_CASES = {
    "overlap": (dict(seed=4, objects=12, height=96, width=128,
                     scales=(0.5, 1.0)),
                PipelineConfig(expand_factor=2.5)),
    "overlap_minmax": (dict(seed=9, objects=12, height=96, width=128,
                            scales=(0.25, 0.5, 1.0)),
                       PipelineConfig(expand_factor=3.0,
                                      normalization="minmax")),
    "edge": (dict(seed=6, objects=4, height=64, width=80, scales=(1.0,)),
             PipelineConfig(expand_factor=3.0, weights_mode="uniform")),
    "single": (dict(seed=2, objects=1, height=48, width=40,
                    scales=(0.5, 1.0)),
               PipelineConfig()),
    "tall": (dict(seed=3, objects=2, height=300, width=64, scales=(0.5, 1.0)),
             PipelineConfig(expand_factor=2.0)),
}


@pytest.mark.parametrize("case", sorted(CARVING_CASES))
def test_carving_equals_whole_frame_oracle(case):
    kwargs, cfg = CARVING_CASES[case]
    bundle = generate(**kwargs)
    regions = _object_regions(bundle, cfg)
    if case.startswith("overlap") or case == "tall":
        assert _overlapping_pairs(regions)
    if case == "tall":
        assert all(r.height > 2 * _band_rows(bundle.width)
                   for r in regions.values())
    if case == "edge":
        boxes = _union_boxes(bundle)
        assert any(regions[o].width < boxes[o].width * cfg.expand_factor
                   or regions[o].height < boxes[o].height * cfg.expand_factor
                   for o in regions)
    calib = None if cfg.weights_mode == "uniform" else bundle
    result = run_pipeline(bundle, calib, cfg)
    want = label_instances_ref(result.final_logits.data, result.labels,
                               regions, COMPONENTS)
    got = [(i.object_id, i.component, i.mask.counts,
            (i.bbox.x0, i.bbox.y0, i.bbox.x1, i.bbox.y1), i.score)
           for i in result.carved.instances]
    assert want
    assert got == want
    assert [i.uid for i in result.carved.instances] == list(range(len(got)))


@pytest.mark.parametrize("height", [16, 2 * ROWS + 9])
def test_equal_grid_fold_matches_the_whole_frame_fold(monkeypatch, height):
    # at scales 0.999 and 1.0 both levels round to one grid, so the band
    # pass folds equal grids, where a resample keeps every value but the
    # -0.0 that a lerp at t = 0 flips.  The coarser level
    # is swapped for one full of signed zeros, beside negative neighbours
    # and positive ones, so every case of that rule occurs
    bundle = generate(2, objects=1, height=height, width=WIDTH,
                      scales=(0.999, 1.0))
    assert {m.shape[:2] for m in bundle.logit_maps.values()} == {
        (height, WIDTH)}
    rng = np.random.default_rng(height)
    fuse_scale, folds = pipeline._fuse_scale, []

    def frame(bands):
        return LogitMap.from_array(np.concatenate([rows for _, rows in bands]))

    def banded(data):
        # in the bands the coarser scale's pass yields, its gate the last
        # channel
        step = _band_rows(data.shape[1])
        return ((r0, data[r0:r0 + step].copy())
                for r0 in range(0, len(data), step))

    def swapped(sub, maps, weights, cfg, coarser=None, finest=False):
        if coarser is None:
            yield from fuse_scale(sub, maps, weights, cfg, finest=finest)
            return
        shape = coarser[1]
        lower = LogitMap.from_array(rng.choice(
            np.array([-1.5, -0.0, 0.0, 0.75], np.float32), size=(*shape, 5)))
        alpha = AttentionMap.from_array(rng.choice(
            np.array([-0.0, 0.0, 0.25, 1.0], np.float32), size=shape))
        finer = frame(fuse_scale(sub, maps, weights, cfg, finest=finest))
        # the finest scale's frame, from the bands it yields
        level = np.concatenate((lower.data, alpha.data[:, :, None]), axis=2)
        bands = list(fuse_scale(sub, maps, weights, cfg,
                                (banded(level), shape), finest=finest))
        assert [r0 for r0, _ in bands] == list(range(0, len(finer.data),
                                                     ROWS))
        folds.append((lower, alpha, finer, frame(bands)))
        yield from bands

    monkeypatch.setattr(pipeline, "_fuse_scale", swapped)
    run_pipeline(bundle, None, PipelineConfig(weights_mode="uniform"))
    [(lower, alpha, finer, folded)] = folds
    assert height < ROWS or height > 2 * ROWS
    assert np.signbit(lower.data[lower.data == 0]).any()
    assert (run_inference_chain([(lower, alpha), (finer, None)]).data.tobytes()
            == folded.data.tobytes())
    # the rule itself, as the gather oracle resamples whole frames
    up = bilinear_gather_ref(lower.data, height, WIDTH)
    gate = bilinear_gather_ref(alpha.data[:, :, None], height, WIDTH)
    gate = np.minimum(np.maximum(gate, np.float32(0.0)), np.float32(1.0))
    assert (weighted_average([up, finer.data], [gate, np.float32(1) - gate])
            .tobytes() == folded.data.tobytes())


def test_overlapping_regions_both_claim_shared_pixels():
    kwargs, cfg = CARVING_CASES["overlap"]
    bundle = generate(**kwargs)
    regions = _object_regions(bundle, cfg)
    result = run_pipeline(bundle, bundle, cfg)
    masks = {(i.object_id, i.component): rle_decode(i.mask)
             for i in result.carved.instances}
    shared = 0
    for a, b in _overlapping_pairs(regions):
        common = regions[a].intersection(regions[b])
        for ch, comp in enumerate(COMPONENTS, start=1):
            labeled = np.zeros(result.labels.shape, dtype=bool)
            labeled[common.slices] = result.labels[common.slices] >= ch
            if not labeled.any():
                continue
            shared += 1
            for oid in (a, b):
                assert labeled[~masks[(oid, comp)]].sum() == 0, (oid, comp)
    assert shared > 0


def test_per_object_stage_builds_no_whole_region_float64_frames(monkeypatch):
    # one 222 x 209 region, 3 models, 5 channels: the stage peaked 14.6 MiB
    # above its start when the gate widened the whole region, 5.2 MiB with
    # the gate per band and each mask resampled only where it reaches
    bundle = generate(3, objects=1, models=3, height=256, width=256)
    pmap, peaks = pipeline._pmap, []

    def traced(fn, items, workers):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = pmap(fn, items, workers)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(pipeline, "_pmap", traced)
    tracemalloc.start()
    try:
        run_pipeline(bundle, None, PipelineConfig(weights_mode="uniform"))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 8 * 2**20, peaks


class _Recorder:
    """A sink that keeps every band it is handed."""

    def start(self, height, width, channels):
        self.shape, self.bands = (height, width, channels), []

    def write(self, r0, logits, labels):
        self.bands.append((r0, logits.copy(), labels.copy()))

    def frames(self):
        return (np.concatenate([b[1] for b in self.bands]),
                np.concatenate([b[2] for b in self.bands]))


def _streamed(level, height, width):
    """The sink's bands when ``level`` arrives in the bands the band pass
    yields and is resampled toward a height x width reference grid."""
    sink = _Recorder()
    sink.start(height, width, level.shape[2])
    step = _band_rows(level.shape[1])
    bands = ((r0, level[r0:r0 + step].copy())
             for r0 in range(0, len(level), step))
    pipeline._emit(sink, _resample_rows(bands, level.shape[:2], height,
                                        width))
    assert [b[0] for b in sink.bands] == list(range(0, height,
                                                    _band_rows(width)))
    return sink.frames()


@pytest.mark.parametrize("height", [ROWS, ROWS + 1, 2 * ROWS + 7])
def test_streamed_same_size_resize_is_the_whole_frame_resize(height):
    # -0.0 on rows 63 and 64, either side of the first band edge of a
    # 128-wide grid, on the last row and in the last column.  A -0.0 on
    # row 63 beside a negative right neighbour stays -0.0 only where row
    # 64, the next band's first row, is negative below it; the last row and
    # column clamp to themselves, so every zero there flips
    width = WIDTH
    assert ROWS == 64 and 2 * ROWS + 7 > 2 * _band_rows(width)
    rng = np.random.default_rng(height)
    frame = rng.choice(np.array([-1.5, -0.0, 0.0, 0.75], np.float32),
                       size=(height, width, 5))
    cols = np.arange(width)[:, None]
    frame[-1] = np.where(cols % 2 == 0, -0.0, -1.5)
    frame[63] = np.where(cols % 2 == 0, -0.0, -1.5)
    if height > 64:
        frame[64] = np.where(cols % 4 == 2, -0.0, -1.5)
    frame[:, -1] = -0.0
    want = bilinear_gather_ref(frame, height, width)
    logits, labels = _streamed(frame, height, width)
    assert logits.tobytes() == want.tobytes()
    assert labels.tobytes() == argmax_ref(want).tobytes()
    kept = np.signbit(want) & (want == 0)
    assert not kept[-1].any() and not kept[:, -1].any()
    if height > 64:
        # row 63 keeps its zeros where row 64 is negative, flips the others
        assert kept[63, cols[:, 0] % 4 == 0].all()
        assert not kept[63, cols[:, 0] % 4 == 2].any()


def test_equal_grid_stream_passes_bands_on_and_holds_no_stale_band():
    # five level bands and 7 rows; bands 1, 3 and 5 hold a -0.0 beside
    # positive neighbours, which the resample turns to +0.0, band 3 on its
    # first row, which band 2's last row taps.  Every other band is its own
    # resample and passes on as the level band itself, and no level band is
    # still held while the band two after it is built
    height, width = 5 * ROWS + 7, WIDTH
    assert _band_rows(width) == ROWS
    frame = np.random.default_rng(0).uniform(
        0.5, 2.0, size=(height, width, 5)).astype(np.float32)
    frame[ROWS + 3, 4, 1] = frame[3 * ROWS, 7, 2] = frame[-1, -1, -1] = -0.0
    want = bilinear_gather_ref(frame, height, width)
    assert not np.signbit(want[ROWS + 3, 4, 1])
    refs = []

    def level_bands():
        for k, r0 in enumerate(range(0, height, ROWS)):
            if k >= 2:
                assert refs[k - 2]() is None, f"level band {k - 2} is held"
            band = frame[r0:r0 + ROWS].copy()
            refs.append(weakref.ref(band))
            yield r0, band

    built = []
    for q0, rows in _resample_rows(level_bands(), (height, width), height,
                                   width):
        k = q0 // ROWS
        assert (rows is refs[k]()) == (k not in (1, 3, 5))
        assert rows.tobytes() == want[q0:q0 + ROWS].tobytes()
        built.append(q0)
        del rows  # so that the loop holds no band while the next is built
    assert built == list(range(0, height, ROWS))


# upsampled by 2 and by about 4, downsampled by 2; a 1-row level, a
# near-equal ratio whose taps cross band edges one row apart from the
# level's, and a downsample by more than 2, whose reference bands tap
# several level bands each.  The widths make bands of 16 to 71 rows
@pytest.mark.parametrize("shape, ref", [((65, 245), (130, 485)),
                                        ((33, 125), (130, 485)),
                                        ((130, 485), (65, 245)),
                                        ((1, 245), (130, 485)),
                                        ((129, 485), (130, 485)),
                                        ((300, 305), (97, 115))])
def test_streamed_resize_of_a_kept_level_is_the_whole_frame_resize(shape,
                                                                   ref):
    assert ref[0] > _band_rows(ref[1]) or shape[0] > _band_rows(shape[1])
    level = np.random.default_rng(shape[0]).normal(
        scale=3.0, size=(*shape, 5)).astype(np.float32)
    level[::7, ::5] = -0.0
    want = bilinear_gather_ref(level, *ref)
    logits, labels = _streamed(level, *ref)
    assert logits.tobytes() == want.tobytes()
    assert labels.tobytes() == argmax_ref(want).tobytes()


def _held_at_writes(bundle):
    """The traced memory a run of ``bundle``, which has no instances, holds
    each time it hands the sink a band, above what it held at its start
    and above that band of logits and labels."""
    held = []

    class Sink:
        def start(self, height, width, channels):
            pass

        def write(self, r0, logits, labels):
            held.append(tracemalloc.get_traced_memory()[0] - base
                        - logits.nbytes - labels.nbytes)

        @contextmanager
        def rows(self):
            yield None  # no object regions, so the carving reads no rows

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_pipeline(bundle, None, PipelineConfig(weights_mode="uniform"),
                     sink=Sink())
    finally:
        tracemalloc.stop()
    return held


def test_resampling_holds_a_few_level_bands_not_the_level():
    # a 512-row level resampled to 1024 reference rows: besides the band
    # of logits and labels being handed to the sink, the run holds a few
    # level bands (the ones later reference rows tap, and the band pass's
    # own), never the whole level, which is 16 bands
    level = np.random.default_rng(0).normal(
        size=(512, 256, 5)).astype(np.float32)
    band = level.nbytes // (512 // _band_rows(256))
    assert band == level.nbytes // 16
    held = _held_at_writes(PredictionBundle(
        image_id="x", height=1024, width=512, models=("m0",), scales=(0.5,),
        instances=(), logit_maps={("m0", 0.5): LogitMap.from_array(level)}))
    assert len(held) == 1024 // _band_rows(512)
    assert max(held) < 4 * band, [round(h / band, 2) for h in held]


def test_the_fold_holds_a_few_coarser_bands_not_the_coarser_level():
    # a 1024-row coarser level folded into a 2048-row finest one: while the
    # finest pass hands the sink its bands, the run holds a few bands of
    # each scale (about 0.25 of the coarser level), never the coarser
    # level, which is 32 bands, and its gate (1.35 of it when both were
    # kept whole)
    rng = np.random.default_rng(0)
    coarse = rng.normal(size=(1024, 256, 5)).astype(np.float32)
    assert 1024 // _band_rows(256) == 32
    held = _held_at_writes(PredictionBundle(
        image_id="x", height=2048, width=512, models=("m0",),
        scales=(0.5, 1.0), instances=(), logit_maps={
            ("m0", 0.5): LogitMap.from_array(coarse),
            ("m0", 1.0): LogitMap.from_array(rng.normal(
                size=(2048, 512, 5)).astype(np.float32))},
        alpha_maps={("m0", 0.5): AttentionMap.from_array(
            rng.uniform(size=(1024, 256)).astype(np.float32))}))
    assert len(held) == 2048 // _band_rows(512)
    assert max(held) < coarse.nbytes / 2, [round(h / coarse.nbytes, 2)
                                           for h in held]


def _largest_band_transient(width):
    """The largest traced rise of a 256-row, one-object run at ``width``
    while it builds one reference band after the first, above what it held
    when it handed the sink the band before and above the band it hands
    the sink, and the number of bands."""
    bundle = generate(3, objects=1, models=2, height=256, width=width)
    marks = []

    class Traced(pipeline._Frames):
        def write(self, r0, logits, labels):
            super().write(r0, logits, labels)
            now, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            marks.append((now, peak, logits.nbytes + labels.nbytes))

    tracemalloc.start()
    try:
        run_pipeline(bundle, None, PipelineConfig(weights_mode="uniform"),
                     sink=Traced())
    finally:
        tracemalloc.stop()
    pairs = zip(marks, marks[1:])
    return max(peak - band - (held - handed)
               for (held, _, handed), (_, peak, band) in pairs), len(marks)


def test_band_memory_does_not_grow_with_the_width():
    # bands of 64 rows built about 11 MiB of temporaries per band at
    # 1024 wide and twice that at 2048; bands of a fixed pixel count build
    # the same at both
    (narrow, n_narrow), (wide, n_wide) = (_largest_band_transient(w)
                                          for w in (1024, 2048))
    assert n_narrow > 2 and n_wide > 2
    assert wide <= 1.25 * narrow, (narrow, wide)


def test_writing_a_streamed_result_is_refused(tmp_path):
    # a result whose frames went to a file sink holds no frame to write:
    # the writer says so, and makes no output or staging directory
    bundle = generate(5, objects=1, height=32, width=32)
    with pipeline._PipelineFiles(tmp_path / "streamed") as files:
        result = run_pipeline(bundle, None,
                              PipelineConfig(weights_mode="uniform"),
                              sink=files)
        files.commit(result)
    assert result.final_logits is None and result.labels is None
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(DataValidationError, match="streamed"):
        write_pipeline_outputs(result, tmp_path / "out")
    assert sorted(tmp_path.rglob("*")) == before
