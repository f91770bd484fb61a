"""Difference attention and the whole-frame / per-object blend."""

import re
import warnings

import numpy as np
import pytest

from segfuse import attention
from segfuse.attention import (attention_to_map, difference_matrix,
                               fuse_global_local, local_attention,
                               row_normalize)
from segfuse.config import PipelineConfig
from segfuse.errors import (DataValidationError, DegenerateAttentionError,
                            ShapeError)
from segfuse.grids import AttentionMap, LogitMap, _band_rows
from segfuse.masks import BBox

from conftest import signed_zeros
from reference import fuse_global_local_ref


class TestDifferenceMatrix:
    def test_equal_features_give_zeros(self, rng):
        g = rng.normal(size=(4, 5))
        assert not difference_matrix(g, g.copy()).any()

    def test_absolute_difference(self):
        assert difference_matrix([[1.0]], [[-2.0]])[0, 0] == 3.0

    def test_symmetry(self, rng):
        g = rng.normal(size=(6, 3))
        l = rng.normal(size=(6, 3))
        assert np.array_equal(difference_matrix(g, l), difference_matrix(l, g))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            difference_matrix(np.zeros((2, 2)), np.zeros((2, 3)))


class TestLocalAttention:
    def test_zero_row_is_uniform(self):
        out = local_attention(np.zeros((1, 5)), 1.0)
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_ln2_hand_worked(self):
        out = local_attention(np.array([[0.0, np.log(2.0)]]), 1.0)
        assert np.allclose(out[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_larger_factor_sharpens(self):
        d = np.array([[0.0, 1.0]])
        soft = local_attention(d, 1.0)[0, 0]
        sharp = local_attention(d, 2.0)[0, 0]
        assert sharp > soft

    def test_rows_sum_to_one(self, rng):
        d = np.abs(rng.normal(size=(30, 12)))
        out = local_attention(d, 0.7)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9

    def test_row_shift_invariance(self, rng):
        # adding a constant to a whole row of differences cancels in the softmax
        d = np.abs(rng.normal(size=(10, 6)))
        shifted = d + rng.uniform(0.5, 3.0, size=(10, 1))
        a = local_attention(d, 1.0)
        b = local_attention(shifted, 1.0)
        assert np.abs(a - b).max() <= 1e-12

    def test_negative_differences_rejected(self):
        with pytest.raises(DataValidationError):
            local_attention(np.array([[-0.5]]), 1.0)

    def test_factor_must_be_positive(self):
        with pytest.raises(DataValidationError):
            local_attention(np.zeros((1, 2)), 0.0)

    def test_non_finite_or_overflowing_d_is_rejected_before_any_arithmetic(
            self):
        # f·1e308 overflowed with numpy's RuntimeWarning and then failed as
        # "softmax input must be finite"; NaN and inf got that message too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in ([[np.nan, 0.0]], [[np.inf, 0.0]], [[0.0, -np.inf]],
                      [[1e308, 0.0]]):
                with pytest.raises(DataValidationError, match=(
                        r"^difference matrix d must be finite, and so must "
                        r"f·max\(d\)$")):
                    local_attention(np.array(d), 2.0)
            # the largest d whose f·d is finite runs
            top = np.finfo(np.float64).max / 2.0
            assert local_attention(np.array([[top, 0.0]]), 2.0).tolist() == [
                [0.0, 1.0]]

    def test_factor_past_the_bound_is_rejected_before_any_arithmetic(self):
        # f·d is formed in float64, and d of finite float32 logits is at
        # most twice the largest float32: 1e308 overflowed it with numpy's
        # RuntimeWarning and failed as "softmax input must be finite"
        bound = 2.6414728131223744e269
        d = np.array([[2.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (1e308, float(np.nextafter(bound, np.inf)), np.inf,
                      np.float64(1e308)):
                with pytest.raises(DataValidationError, match=(
                        r"^attention factor f \S+ must be positive and at "
                        r"most 2\.64e\+269")):
                    local_attention(d, f)
            # the bound itself runs: -f·2 is finite and its softmax exact
            assert local_attention(d, bound).tolist() == [[0.0, 1.0]]
        # one rule for the library and PipelineConfig
        assert PipelineConfig(attention_factor=bound).attention_factor == bound
        with pytest.raises(DataValidationError, match="^attention_factor"):
            PipelineConfig(attention_factor=float(np.nextafter(bound, np.inf)))


class TestRowNormalize:
    def test_idempotent_on_stochastic_rows(self, rng):
        d = np.abs(rng.normal(size=(20, 9)))
        stochastic = local_attention(d, 1.0)
        again = row_normalize(stochastic)
        assert np.abs(again - stochastic).max() <= 1e-12

    def test_hand_worked_rows(self):
        assert np.array_equal(row_normalize([[2.0, 2.0]]), [[0.5, 0.5]])
        assert np.array_equal(row_normalize([[1.0, 3.0]]), [[0.25, 0.75]])

    def test_all_zero_row_rejected(self):
        with pytest.raises(DegenerateAttentionError):
            row_normalize(np.array([[0.0, 0.0]]))

    def test_non_finite_rows_are_rejected_without_a_warning(self):
        # NaN once passed `m.min() < 0` and came back as a NaN row; inf and
        # an overflowing sum printed numpy's RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in ([[np.nan, 1.0]], [[np.inf, 1.0]], [[1e308, 1e308]]):
                with pytest.raises(DataValidationError):
                    row_normalize(np.array(rows))
            # the largest entries the bound admits still normalize
            top = np.finfo(np.float64).max / 4.0
            assert row_normalize(np.array([[top, top]])).tolist() == [
                [0.5, 0.5]]


class TestAttentionToMap:
    def test_whole_canvas_uniform(self):
        m = np.full((1, 4), 0.25)
        out = attention_to_map([(m, BBox(0, 0, 4, 1))], 1, 4)
        assert np.allclose(out.data, 0.25, atol=0)

    def test_no_regions_gives_neutral(self):
        out = attention_to_map([], 3, 3)
        assert np.array_equal(out.data, np.full((3, 3), 0.5, np.float32))

    def test_direct_placement(self):
        patch = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = attention_to_map([(patch, BBox(1, 1, 3, 3))], 4, 4)
        assert np.allclose(out.data[1:3, 1:3], patch.astype(np.float32), atol=0)
        outside = np.ones((4, 4), dtype=bool)
        outside[1:3, 1:3] = False
        assert np.allclose(out.data[outside], 0.5, atol=0)

    def test_later_patch_wins_on_overlap(self):
        first = (np.full((3, 3), 0.25), BBox(0, 0, 3, 3))
        second = (np.full((3, 3), 0.75), BBox(1, 1, 4, 4))
        out = attention_to_map([first, second], 4, 4)
        want = np.full((4, 4), 0.5, np.float32)
        want[0:3, 0:3] = 0.25
        want[1:4, 1:4] = 0.75
        assert np.array_equal(out.data, want)
        out = attention_to_map([second, first], 4, 4)
        want[1:4, 1:4] = 0.75
        want[0:3, 0:3] = 0.25
        assert np.array_equal(out.data, want)

    def test_patch_must_fit_region(self):
        for shape in ((2, 2), (8,), (8, 8, 1)):
            with pytest.raises(ShapeError, match="does not fit region"):
                attention_to_map([(np.full(shape, 0.75), BBox(0, 0, 8, 8))],
                                 8, 8)

    def test_region_outside_canvas(self):
        with pytest.raises(ShapeError):
            attention_to_map([(np.zeros((2, 2)), BBox(3, 3, 6, 6))], 4, 4)

    def test_values_validated(self):
        with pytest.raises(DataValidationError):
            attention_to_map([(np.full((2, 2), 1.5), BBox(0, 0, 2, 2))], 4, 4)

    def test_configurable_neutral(self):
        out = attention_to_map([], 2, 2, neutral=1.0)
        assert np.array_equal(out.data, np.ones((2, 2), np.float32))


def _full_frame_local(value, h, w, c):
    return (LogitMap.full(h, w, c, value), BBox(0, 0, w, h))


class TestFuseGlobalLocal:
    def test_beta_one_returns_global_bitwise(self, rng):
        g = LogitMap.from_array(rng.normal(size=(4, 4, 2)).astype(np.float32))
        out = fuse_global_local(g, [_full_frame_local(7.0, 4, 4, 2)],
                                AttentionMap.full(4, 4, 1.0))
        assert np.array_equal(out.data, g.data)

    def test_beta_zero_returns_local(self):
        g = LogitMap.full(4, 4, 1, 2.0)
        out = fuse_global_local(g, [_full_frame_local(4.0, 4, 4, 1)],
                                AttentionMap.full(4, 4, 0.0))
        assert np.array_equal(out.data, np.full((4, 4, 1), 4.0, np.float32))

    def test_half_half_hand_worked(self):
        g = LogitMap.full(2, 2, 1, 2.0)
        out = fuse_global_local(g, [_full_frame_local(4.0, 2, 2, 1)],
                                AttentionMap.full(2, 2, 0.5))
        assert np.array_equal(out.data, np.full((2, 2, 1), 3.0, np.float32))

    def test_no_locals_blends_against_zero(self):
        g = LogitMap.full(2, 2, 1, 2.0)
        out = fuse_global_local(g, [], AttentionMap.full(2, 2, 0.5))
        assert np.array_equal(out.data, np.full((2, 2, 1), 1.0, np.float32))

    def test_zero_outside_local_boxes(self):
        g = LogitMap.full(4, 4, 1, 2.0)
        patch = (LogitMap.full(2, 2, 1, 6.0), BBox(0, 0, 2, 2))
        out = fuse_global_local(g, [patch], AttentionMap.full(4, 4, 0.0))
        assert np.array_equal(out.data[:2, :2, 0], np.full((2, 2), 6.0, np.float32))
        assert np.array_equal(out.data[2:, 2:, 0], np.zeros((2, 2), np.float32))

    def test_overlapping_locals_sum(self):
        g = LogitMap.zeros(2, 2, 1)
        locals_ = [_full_frame_local(1.0, 2, 2, 1), _full_frame_local(2.0, 2, 2, 1)]
        out = fuse_global_local(g, locals_, AttentionMap.full(2, 2, 0.0))
        assert np.array_equal(out.data, np.full((2, 2, 1), 3.0, np.float32))

    def test_convexity_with_disjoint_locals(self, rng):
        g = LogitMap.from_array(rng.normal(size=(8, 8, 3)).astype(np.float32))
        p1 = LogitMap.from_array(rng.normal(size=(3, 4, 3)).astype(np.float32))
        p2 = LogitMap.from_array(rng.normal(size=(4, 3, 3)).astype(np.float32))
        boxes = [BBox(0, 0, 4, 3), BBox(4, 4, 7, 8)]
        beta = AttentionMap.from_array(rng.uniform(size=(8, 8)).astype(np.float32))
        out = fuse_global_local(g, [(p1, boxes[0]), (p2, boxes[1])], beta)
        lsum = np.zeros_like(g.data)
        lsum[0:3, 0:4] = p1.data
        lsum[4:8, 4:7] = p2.data
        assert (out.data >= np.minimum(g.data, lsum)).all()
        assert (out.data <= np.maximum(g.data, lsum)).all()

    def test_matches_scalar_oracle_bitwise(self, rng):
        g = signed_zeros(rng, rng.normal(scale=3.0, size=(8, 8, 5))
                         .astype(np.float32))
        p1 = signed_zeros(rng, rng.normal(scale=3.0, size=(3, 4, 5))
                          .astype(np.float32))
        p2 = signed_zeros(rng, rng.normal(scale=3.0, size=(4, 3, 5))
                          .astype(np.float32))
        boxes = [BBox(0, 0, 4, 3), BBox(4, 4, 7, 8)]
        beta = signed_zeros(rng, rng.uniform(size=(8, 8)).astype(np.float32))
        got = fuse_global_local(
            LogitMap.from_array(g),
            [(LogitMap.from_array(p1), boxes[0]),
             (LogitMap.from_array(p2), boxes[1])],
            AttentionMap.from_array(beta))
        want = fuse_global_local_ref(g, [(p1, boxes[0]), (p2, boxes[1])], beta)
        assert got.data.tobytes() == want.tobytes()

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_global_local(LogitMap.zeros(4, 4, 1), [],
                              AttentionMap.full(3, 3, 0.5))

    def test_patch_channel_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_global_local(
                LogitMap.zeros(4, 4, 2),
                [(LogitMap.zeros(2, 2, 1), BBox(0, 0, 2, 2))],
                AttentionMap.full(4, 4, 0.5))

    def test_patches_across_bands_match_scalar_oracle(self, rng):
        # patches that start and end inside bands, overlap each other and
        # cross one or two band edges
        w, c = 128, 3
        rows = _band_rows(w)
        h = 2 * rows + 20
        boxes = [BBox(0, 10, 4, rows + 6), BBox(2, 30, 6, h - 8),
                 BBox(1, rows - 1, 3, rows + 1),
                 BBox(0, 2 * rows + 3, 6, 2 * rows + 9)]
        assert rows == 64 and all(b.y0 < rows < b.y1 for b in boxes[:3])
        g = signed_zeros(rng, rng.normal(scale=3.0, size=(h, w, c))
                         .astype(np.float32))
        patches = [signed_zeros(rng, rng.normal(
            scale=3.0, size=(b.height, b.width, c)).astype(np.float32))
            for b in boxes]
        beta = signed_zeros(rng, rng.uniform(size=(h, w)).astype(np.float32))
        got = fuse_global_local(
            LogitMap.from_array(g),
            [(LogitMap.from_array(p), b) for p, b in zip(patches, boxes)],
            AttentionMap.from_array(beta))
        want = fuse_global_local_ref(g, list(zip(patches, boxes)), beta)
        assert got.data.tobytes() == want.tobytes()

    def test_stacked_patches_sum_in_the_given_order(self, rng):
        # five patches over one pixel block: float32 sums of five terms
        # depend on their order, so only the given order matches the oracle
        g = rng.normal(scale=3.0, size=(6, 6, 3)).astype(np.float32)
        boxes = [BBox(0, 0, 6, 6), BBox(1, 1, 5, 6), BBox(0, 2, 4, 5),
                 BBox(2, 0, 6, 4), BBox(1, 1, 4, 4)]
        patches = [rng.normal(scale=100.0, size=(b.height, b.width, 3))
                   .astype(np.float32) for b in boxes]
        beta = AttentionMap.full(6, 6, 0.0)
        want = fuse_global_local_ref(g, list(zip(patches, boxes)), beta.data)
        backwards = fuse_global_local_ref(g, list(zip(patches, boxes))[::-1],
                                          beta.data)
        assert want.tobytes() != backwards.tobytes()
        got = fuse_global_local(
            LogitMap.from_array(g),
            [(LogitMap.from_array(p), b) for p, b in zip(patches, boxes)],
            beta)
        assert got.data.tobytes() == want.tobytes()

    # a 4-wide frame of two bands and two rows
    MISFIT_ROW = _band_rows(4) + 100

    @pytest.mark.parametrize("patch, box, message", [
        (LogitMap.zeros(2, 2, 1), BBox(0, MISFIT_ROW, 3, MISFIT_ROW + 3),
         "local patch (2, 2) does not fit box (3, 3)"),
        (LogitMap.zeros(2, 2, 2), BBox(0, MISFIT_ROW, 2, MISFIT_ROW + 2),
         "local channels 2 != frame channels 1"),
        (LogitMap.zeros(2, 2, 1), BBox(3, MISFIT_ROW, 5, MISFIT_ROW + 2),
         f"exceeds {2 * _band_rows(4) + 2}x4 grid"),
    ], ids=["shape", "channels", "bounds"])
    def test_misfit_patch_raises_before_any_band(self, monkeypatch, patch,
                                                 box, message):
        blends = []
        monkeypatch.setattr(attention, "weighted_average",
                            lambda *args: blends.append(args))
        # a fitting patch in the first band, the misfit one in a later band
        h = 2 * _band_rows(4) + 2
        assert _band_rows(4) <= box.y0 < h
        good = (LogitMap.zeros(2, 2, 1), BBox(0, 0, 2, 2))
        with pytest.raises(ShapeError, match=re.escape(message)):
            fuse_global_local(LogitMap.zeros(h, 4, 1), [good, (patch, box)],
                              AttentionMap.full(h, 4, 0.5))
        assert blends == []
