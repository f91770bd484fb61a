"""Grouping, weight computation, and weighted mask/logit fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse.bundle import PredictionBundle
from segfuse.config import PipelineConfig
from segfuse.errors import DataValidationError, ShapeError
from segfuse.fusion import (FusionWeights, binarize, compute_weights,
                            fuse_logits, fuse_masks, weighted_average)
from segfuse.grids import LogitMap, _band_rows
from segfuse.masks import BBox, rle_encode, tight_bbox
from segfuse.metrics import ApTable
from segfuse.pipeline import run_fuse

from conftest import block_mask, fused_frame, make_instance, traced_peak_ratio
from reference import fuse_logits_ref, fuse_masks_ref, weighted_average_ref

# a 128-wide grid walks 64-row bands; heights on both sides of two edges
WIDTH = 128
ROWS = _band_rows(WIDTH)
EDGE_HEIGHTS = [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1]


class TestGroupPredictions:
    def test_horizontal_requires_object_ids(self):
        inst = make_instance(block_mask(4, 4, 0, 2, 0, 2), object_id=None)
        b = PredictionBundle(image_id="x", height=4, width=4, models=("m0",),
                             scales=(1.0,), instances=(inst,))
        with pytest.raises(DataValidationError, match="object ids"):
            run_fuse(b, None, PipelineConfig(weights_mode="uniform"),
                     "horizontal")


class TestComputeWeights:
    def test_equal_aps_give_uniform(self):
        table = ApTable({("m0", "shell"): 0.8, ("m1", "shell"): 0.8,
                         ("m2", "shell"): 0.8})
        w = compute_weights(table, "shell")
        assert [v for _, v in w.weights] == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_single_model_gets_everything(self):
        w = compute_weights(ApTable({("m0", "shell"): 0.4}), "shell")
        assert w.weights == (("m0", 1.0),)

    def test_published_shell_aps(self):
        # shell APs 91.19 / 91.76 / 91.79 percent as fractions
        table = ApTable({("a_r50", "shell"): 0.9119, ("b_r101", "shell"): 0.9176,
                         ("c_rxt", "shell"): 0.9179})
        w = compute_weights(table, "shell", "fraction")
        values = [v for _, v in w.weights]
        assert values[0] == pytest.approx(0.33191, abs=1e-5)
        assert values[1] == pytest.approx(0.33399, abs=1e-5)
        assert values[2] == pytest.approx(0.33410, abs=1e-5)
        assert values[0] < values[1] < values[2]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_falls_back_to_uniform(self):
        table = ApTable({("m0", "g"): 0.0, ("m1", "g"): 0.0})
        w = compute_weights(table, "g")
        assert [v for _, v in w.weights] == [0.5, 0.5]

    def test_monotone_in_ap(self, rng):
        for _ in range(50):
            aps = sorted(rng.uniform(0.01, 1.0, 3))
            table = ApTable({(f"m{i}", "k"): float(a) for i, a in enumerate(aps)})
            for mode in ("fraction", "minmax"):
                values = [v for _, v in compute_weights(table, "k", mode).weights]
                assert values[0] <= values[1] <= values[2]
                assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_weights_must_cover_group(self):
        table = ApTable({("m0", "shell"): 0.8})
        with pytest.raises(DataValidationError):
            compute_weights(table, "meat")


class TestFuseMasks:
    def test_identical_masks_fuse_to_themselves(self):
        bits = block_mask(6, 6, 1, 4, 1, 4)
        members = tuple(make_instance(bits, model_id=f"m{i}", score=0.9, uid=i)
                        for i in range(3))
        w = FusionWeights("shell", (("m0", 0.2), ("m1", 0.3), ("m2", 0.5)))
        soft = fused_frame(members, w)
        assert np.array_equal(soft, bits.astype(np.float64))

    def test_degenerate_weight_selects_one_model(self):
        a = block_mask(4, 4, 0, 2, 0, 4)
        b = block_mask(4, 4, 2, 4, 0, 4)
        members = (make_instance(a, model_id="m0", score=0.9, uid=0),
                   make_instance(b, model_id="m1", score=0.8, uid=1))
        w = FusionWeights("shell", (("m0", 1.0), ("m1", 0.0)))
        soft = fused_frame(members, w)
        assert np.array_equal(soft, a.astype(np.float64))

    def test_left_right_hand_worked(self):
        left = block_mask(2, 4, 0, 2, 0, 2)
        right = block_mask(2, 4, 0, 2, 2, 4)
        members = (make_instance(left, model_id="m0", score=0.9, uid=0),
                   make_instance(right, model_id="m1", score=0.8, uid=1))
        w = FusionWeights("shell", (("m0", 0.6), ("m1", 0.4)))
        soft = fused_frame(members, w)
        assert np.allclose(soft[:, :2], 0.6, atol=0) and np.allclose(
            soft[:, 2:], 0.4, atol=0)

    def test_convex_envelope(self, rng):
        arrays = [rng.uniform(size=(8, 8)) for _ in range(3)]
        coeffs = [0.2, 0.5, 0.3]
        out = weighted_average(arrays, coeffs)
        lo = np.minimum(np.minimum(arrays[0], arrays[1]), arrays[2])
        hi = np.maximum(np.maximum(arrays[0], arrays[1]), arrays[2])
        assert (out >= lo).all() and (out <= hi).all()

    def test_uniform_weights_match_scalar_mean_oracle(self, rng):
        arrays = [rng.uniform(size=(8, 8)) for _ in range(3)]
        coeffs = [1 / 3] * 3
        got = weighted_average(arrays, coeffs)
        want = weighted_average_ref(arrays, coeffs)
        assert np.array_equal(got, want)

    def test_missing_model_means_empty_mask(self):
        bits = block_mask(4, 4, 0, 4, 0, 4)
        members = (make_instance(bits, model_id="m0", score=0.9, uid=0),)
        w = FusionWeights("shell", (("m0", 0.5), ("m1", 0.5)))
        soft = fused_frame(members, w)
        assert np.allclose(soft, 0.5, atol=0)


    def test_segments_of_every_bound_and_one_at_the_threshold(self):
        # rows [0, 4) and [2, 6) of a 2x4 frame, the second across the end
        # of row 0: one segment per pair of bounds, two of them at exactly
        # the threshold, fused into one run across the row end
        pixel = np.arange(8).reshape(2, 4)
        members = (make_instance(pixel < 4, model_id="m0"),
                   make_instance((pixel >= 2) & (pixel < 6), model_id="m1"))
        w = FusionWeights.uniform(("m0", "m1"), "shell")
        bounds, soft = fuse_masks(members, w)
        assert bounds.tolist() == [0, 2, 4, 6, 8]
        assert soft.tolist() == [0.5, 1.0, 0.5, 0.0]
        bundle = PredictionBundle(image_id="x", height=2, width=4,
                                  models=("m0", "m1"), scales=(1.0,),
                                  instances=members)
        fused, _ = run_fuse(bundle, None, PipelineConfig(
            weights_mode="uniform"), "vertical")
        inst, = fused.instances
        assert inst.mask.counts == (0, 6, 2)
        assert inst.bbox == BBox(0, 0, 4, 2)


@st.composite
def run_cells(draw):
    """(height, width, members, models) of one cell.  Every member's runs
    are cut at bounds from one shared pool: 0, the frame's end, every row
    end and a few free picks, so members start at pixel 0, end at the last
    pixel, overlap, share bounds and touch across row ends.  A model may
    give several members or none."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n = h * w
    pool = sorted({*range(0, n + 1, w),
                   *draw(st.lists(st.integers(0, n), max_size=6))})
    models = ("m0", "m1", "m2", "m3")[:draw(st.integers(1, 4))]
    members = []
    for k in range(draw(st.integers(1, 5))):
        cuts = sorted(set(draw(st.lists(st.sampled_from(pool), max_size=6))))
        flat = np.zeros(n, dtype=bool)
        for start, end in zip(cuts[0::2], cuts[1::2]):
            flat[start:end] = True
        bits = flat.reshape(h, w)
        box = tight_bbox(bits)
        members.append(make_instance(
            bits, model_id=draw(st.sampled_from(models)), uid=k,
            bbox=box if box is not None and draw(st.booleans())
            else BBox(0, 0, w, h)))
    return h, w, members, models


@given(run_cells(), st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_run_fusion_equals_the_dense_oracle(cell, data):
    """The run kernel against the whole-frame oracle, bit for bit, and
    run_fuse's mask and box against encoding the binarized oracle.  The
    weights are multiples of 1/8 and the thresholds too, so a segment
    often averages to exactly the threshold."""
    h, w, members, models = cell
    raw = data.draw(st.lists(st.integers(0, 4), min_size=len(models),
                             max_size=len(models)).filter(any))
    weights = FusionWeights("shell", tuple(
        (m, r / sum(raw)) for m, r in zip(models, raw)))
    bounds, soft = fuse_masks(members, weights)
    assert bounds.tolist() == sorted({b for m in members
                                      for b in m.mask.bounds.tolist()})
    assert soft.dtype == np.float64 and soft.size == bounds.size - 1
    ref = fuse_masks_ref(members, weights)
    assert fused_frame(members, weights).tobytes() == ref.tobytes()

    threshold = data.draw(st.sampled_from((0.125, 0.25, 0.5, 0.75)))
    bundle = PredictionBundle(image_id="x", height=h, width=w, models=models,
                              scales=(1.0,), instances=tuple(members))
    fused, _ = run_fuse(bundle, None, PipelineConfig(
        weights_mode="uniform", binarize_threshold=threshold), "vertical")
    bits = binarize(fuse_masks_ref(members, FusionWeights.uniform(models)),
                    threshold)
    if not bits.any():
        assert fused.instances == ()
    else:
        inst, = fused.instances
        assert inst.mask == rle_encode(bits)
        assert inst.bbox == tight_bbox(bits)


class TestWeightedAverage:
    """The one fusion kernel: bands, coefficients cut per band, promotion."""

    @pytest.mark.parametrize("height", EDGE_HEIGHTS)
    def test_per_element_coefficients_across_band_edges(self, rng, height):
        assert ROWS == 64 and max(EDGE_HEIGHTS) > 2 * ROWS
        shape = (height, WIDTH, 2)
        arrays = [rng.normal(scale=3.0, size=shape) for _ in range(3)]
        raw = rng.uniform(0.05, 1.0, size=(3, height, WIDTH, 1))
        coeffs = list(raw / raw.sum(axis=0))
        got = weighted_average(arrays, coeffs)
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == weighted_average_ref(arrays, coeffs).tobytes()

    def test_float32_arrays_with_float64_vectors_equal_widening_first(self, rng):
        shape = (130, 4, 5)
        arrays = [rng.normal(scale=4.0, size=shape).astype(np.float32)
                  for _ in range(3)]
        raw = rng.uniform(0.05, 1.0, size=(3, 5))
        coeffs = list(raw / raw.sum(axis=0))
        got = weighted_average(arrays, coeffs)
        wide = weighted_average([a.astype(np.float64) for a in arrays], coeffs)
        assert got.dtype == np.float32 and wide.dtype == np.float64
        assert got.tobytes() == wide.astype(np.float32).tobytes()

    def test_rank0_input_raises(self):
        with pytest.raises(ShapeError):
            weighted_average([np.array(1.0), np.array(2.0)], [0.5, 0.5])


class TestFuseLogits:
    def test_identical_maps_unchanged(self, rng):
        data = rng.normal(size=(4, 4, 2)).astype(np.float32)
        maps = {f"m{i}": LogitMap.from_array(data) for i in range(3)}
        w = FusionWeights(None, (("m0", 0.5), ("m1", 0.25), ("m2", 0.25)))
        assert np.array_equal(fuse_logits(maps, [w] * 2).data, data)

    def test_uniform_two_maps_is_mean(self):
        a = LogitMap.full(2, 2, 1, 3.0)
        b = LogitMap.full(2, 2, 1, 5.0)
        w = FusionWeights(None, (("m0", 0.5), ("m1", 0.5)))
        out = fuse_logits({"m0": a, "m1": b}, [w])
        assert np.array_equal(out.data, np.full((2, 2, 1), 4.0, np.float32))

    def test_three_value_hand_worked(self):
        maps = {"m0": LogitMap.full(1, 1, 1, 1.0),
                "m1": LogitMap.full(1, 1, 1, 2.0),
                "m2": LogitMap.full(1, 1, 1, 4.0)}
        w = FusionWeights(None, (("m0", 0.5), ("m1", 0.25), ("m2", 0.25)))
        assert fuse_logits(maps, [w]).data[0, 0, 0] == np.float32(2.0)

    def test_matches_scalar_oracle_bitwise(self, rng):
        stacks = [rng.normal(scale=4.0, size=(8, 8, 5)).astype(np.float32)
                  for _ in range(3)]
        coeffs = [0.33191, 0.33399, 0.33410]
        maps = {f"m{i}": LogitMap.from_array(s) for i, s in enumerate(stacks)}
        w = FusionWeights(None, tuple((f"m{i}", c) for i, c in enumerate(coeffs)))
        got = fuse_logits(maps, [w] * 5).data
        assert np.array_equal(got, fuse_logits_ref(stacks, coeffs))

    def test_per_channel_weights_match_oracle_bitwise(self, rng):
        stacks = [rng.normal(scale=4.0, size=(8, 8, 5)).astype(np.float32)
                  for _ in range(3)]
        maps = {f"m{i}": LogitMap.from_array(s) for i, s in enumerate(stacks)}
        vectors = []
        for ch in range(5):
            raw = rng.uniform(0.1, 1.0, 3)
            coeffs = [float(c) for c in raw / raw.sum()]
            coeffs[-1] = 1.0 - coeffs[0] - coeffs[1]
            vectors.append(FusionWeights(ch, tuple(
                (f"m{i}", c) for i, c in enumerate(coeffs))))
        got = fuse_logits(maps, vectors).data
        for ch, vec in enumerate(vectors):
            want = fuse_logits_ref([s[:, :, ch] for s in stacks],
                                   [c for _, c in vec.weights])
            assert np.array_equal(got[:, :, ch], want)

    @pytest.mark.parametrize("height", EDGE_HEIGHTS)
    @pytest.mark.parametrize("channels", [1, 5])
    def test_bytes_across_band_edges(self, height, channels):
        assert max(EDGE_HEIGHTS) > 2 * _band_rows(WIDTH)
        rng = np.random.default_rng(100 * height + channels)
        stacks = [rng.normal(scale=4.0, size=(height, WIDTH, channels)
                             ).astype(np.float32) for _ in range(3)]
        maps = {f"m{i}": LogitMap.from_array(s) for i, s in enumerate(stacks)}
        vectors = []
        for ch in range(channels):
            raw = rng.uniform(0.1, 1.0, 3)
            vectors.append(FusionWeights(ch, tuple(
                (f"m{i}", float(c)) for i, c in enumerate(raw / raw.sum()))))
        got = fuse_logits(maps, vectors).data
        assert not got.flags.writeable
        for ch, vec in enumerate(vectors):
            want = fuse_logits_ref([s[:, :, ch] for s in stacks],
                                   [c for _, c in vec.weights])
            assert got[:, :, ch].tobytes() == want.tobytes()

    def test_peak_memory_bounded_by_bands(self, rng):
        # whole-frame float64 channel planes would peak at 4.2x the output
        maps = {f"m{i}": LogitMap.from_array(
            rng.normal(size=(512, 512, 5)).astype(np.float32))
            for i in range(3)}
        w = FusionWeights(None, (("m0", 0.2), ("m1", 0.3), ("m2", 0.5)))
        assert traced_peak_ratio(fuse_logits, maps, [w] * 5) <= 3.5

    def test_one_weight_vector_per_channel(self):
        w = FusionWeights(None, (("m0", 1.0),))
        with pytest.raises(ShapeError, match="2 weight vectors for 3"):
            fuse_logits({"m0": LogitMap.zeros(2, 2, 3)}, [w, w])

    def test_weights_must_cover_the_maps(self):
        w = FusionWeights(None, (("m0", 1.0),))
        with pytest.raises(DataValidationError, match="do not match"):
            fuse_logits({"m0": LogitMap.zeros(2, 2, 1),
                         "m1": LogitMap.zeros(2, 2, 1)}, [w])

    def test_shape_mismatch(self):
        w = FusionWeights(None, (("m0", 0.5), ("m1", 0.5)))
        with pytest.raises(ShapeError):
            fuse_logits({"m0": LogitMap.zeros(2, 2, 1),
                         "m1": LogitMap.zeros(2, 3, 1)}, [w])

    def test_model_order_is_canonical(self, rng):
        # fusing the same maps presented in any dict order is bit-identical
        stacks = {f"m{i}": LogitMap.from_array(
            rng.normal(size=(4, 4, 2)).astype(np.float32)) for i in range(3)}
        w = FusionWeights(None, (("m0", 0.2), ("m1", 0.3), ("m2", 0.5)))
        a = fuse_logits(dict(sorted(stacks.items())), [w] * 2)
        b = fuse_logits(dict(sorted(stacks.items(), reverse=True)), [w] * 2)
        assert np.array_equal(a.data, b.data)


class TestBinarize:
    def test_all_zero_soft(self):
        assert not binarize(np.zeros((3, 3)), 0.5).any()

    def test_all_one_soft(self):
        assert binarize(np.ones((3, 3)), 0.5).all()

    def test_exact_threshold_is_set(self):
        assert binarize(np.full((1, 1), 0.5), 0.5)[0, 0]

    def test_threshold_range(self):
        with pytest.raises(DataValidationError):
            binarize(np.zeros((2, 2)), 1.0)


class TestFusionWeightsInvariants:
    def test_sum_must_be_one(self):
        with pytest.raises(DataValidationError):
            FusionWeights(None, (("m0", 0.5), ("m1", 0.6)))

    def test_nonnegative(self):
        with pytest.raises(DataValidationError):
            FusionWeights(None, (("m0", 1.5), ("m1", -0.5)))

    def test_ascending_model_order(self):
        with pytest.raises(DataValidationError):
            FusionWeights(None, (("m1", 0.5), ("m0", 0.5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_the_model(self, bad):
        # nan < 0 and abs(nan - 1) > tol are both false: no other check fires
        with pytest.raises(DataValidationError, match="model 'a'.*not finite"):
            FusionWeights("shell", (("a", bad), ("b", 1.0)))

    def test_nan_weight_never_reaches_a_fused_mask(self):
        bits = block_mask(4, 4, 0, 4, 0, 4)
        members = (make_instance(bits, model_id="a", score=0.9, uid=0),
                   make_instance(bits, model_id="b", score=0.8, uid=1))
        with pytest.raises(DataValidationError, match="model 'a'"):
            fuse_masks(members, FusionWeights("shell", (("a", np.nan),
                                                        ("b", 1.0))))
