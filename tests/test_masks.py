"""Mask types, the RLE codec, IoU, and box machinery."""

import dataclasses
import pickle
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from segfuse.errors import DataValidationError, FormatError, ShapeError
from segfuse.grids import LogitMap
from segfuse.fusion import binarize
from segfuse.masks import (BBox, RleMask, _run_extent, crop, expand_bbox, iou,
                           rle_decode, rle_encode, scale_box, tight_bbox)

from conftest import block_mask, make_instance
from reference import rle_counts_ref

# counts that break each rule, and ones past int64 whose int64 sum would
# wrap around to a plausible total
_WILD_COUNTS = st.one_of(
    st.integers(-3, 20),
    st.sampled_from([0, -1, 2 ** 62, 2 ** 63, 2 ** 64 + 16, 10 ** 30,
                     -(10 ** 30)]),
    st.integers(-(2 ** 70), 2 ** 70))


@st.composite
def _rle_cases(draw):
    """A valid RLE of a small grid, then up to three edits of its counts."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = h * w
    cuts = sorted(c for c in draw(st.sets(st.integers(1, n))) if c < n)
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    if draw(st.booleans()):
        counts.insert(0, 0)  # an empty leading zero-run is valid
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["set", "insert", "drop"]))
        at = draw(st.integers(0, len(counts)))
        if edit == "insert":
            counts.insert(at, draw(_WILD_COUNTS))
        elif counts and at < len(counts):
            if edit == "set":
                counts[at] = draw(_WILD_COUNTS)
            else:
                del counts[at]
    return h, w, counts


def _outcome(build):
    try:
        build()
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)
    return None


class TestRleCodec:
    def test_all_zeros(self):
        r = rle_encode(np.zeros((2, 2), dtype=bool))
        assert r.counts == (4,)

    def test_all_ones(self):
        r = rle_encode(np.ones((2, 2), dtype=bool))
        assert r.counts == (0, 4)

    def test_hand_worked_row(self):
        r = rle_encode([[0, 1, 1, 0]])
        assert r.counts == (1, 2, 1)

    def test_decode_examples(self):
        assert not rle_decode(RleMask(2, 2, (4,))).any()
        assert rle_decode(RleMask(2, 2, (0, 4))).all()

    @pytest.mark.parametrize("box", [BBox(2, 2, 6, 6), BBox(0, 1, 4, 5),
                                     BBox(2, 0, 5, 4)],
                             ids=["rows_and_columns", "rows", "columns"])
    def test_decode_box_off_the_grid_is_shape_error(self, box):
        r = rle_encode(block_mask(4, 4, 1, 3, 1, 3))
        with pytest.raises(ShapeError, match=r"exceeds 4x4 grid"):
            rle_decode(r, box)
        with pytest.raises(ShapeError, match=r"exceeds 4x4 grid"):
            make_instance(block_mask(4, 4, 1, 3, 1, 3)).window(box)

    def test_sum_mismatch_is_format_error(self):
        with pytest.raises(FormatError):
            RleMask(2, 2, (3,))

    def test_interior_zero_run_rejected(self):
        with pytest.raises(FormatError):
            RleMask(1, 4, (1, 0, 3))

    @given(_rle_cases())
    @example((4, 4, [2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62 + 16]))
    @example((4, 4, [10 ** 30, 16]))
    @example((4, 4, [0, 16]))
    @example((4, 4, [16, 0]))
    @example((4, 4, [-1, 17]))
    @example((4, 4, []))
    @settings(max_examples=400, deadline=None)
    def test_count_checks_match_scalar_oracle(self, case):
        h, w, counts = case
        expected = _outcome(lambda: rle_counts_ref(counts, h, w))
        assert _outcome(lambda: RleMask(h, w, tuple(counts))) == expected
        if expected is None:
            assert RleMask(h, w, tuple(counts)).counts == tuple(counts)

    @given(hnp.arrays(dtype=bool, shape=st.tuples(st.integers(1, 16),
                                                  st.integers(1, 16))))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_is_lossless(self, bits):
        back = rle_decode(rle_encode(bits))
        assert back.dtype == bool and np.array_equal(back, bits)

    @given(hnp.arrays(dtype=bool, shape=st.tuples(st.integers(1, 12),
                                                  st.integers(1, 12))))
    @example(np.eye(3, dtype=bool)[::-1])
    @example(np.array([[0, 0, 1], [1, 0, 0]], dtype=bool))
    @settings(max_examples=300, deadline=None)
    def test_run_extent_is_the_decoded_tight_box(self, bits):
        r = rle_encode(bits)
        if bits.any():
            assert _run_extent(r) == tight_bbox(rle_decode(r))

    def test_grid_past_a_signed_64_bit_count_is_rejected(self):
        side = 10 ** 10
        with pytest.raises(DataValidationError, match="signed 64-bit"):
            RleMask(side, side, (0, 1, side * side - 1))


class TestRleMaskContract:
    """An ``RleMask`` holds its runs once, as a read-only int64 array of run
    boundaries, and keeps the checks, messages, equality and hashing it
    had as a dataclass of counts."""

    @given(_rle_cases())
    @settings(max_examples=200, deadline=None)
    def test_counts_round_trip_as_python_ints(self, case):
        h, w, counts = case
        if _outcome(lambda: rle_counts_ref(counts, h, w)) is None:
            for given_counts in (tuple(counts), list(counts),
                                 np.array(counts, dtype=np.int64)):
                r = RleMask(h, w, given_counts)
                assert r.counts == tuple(counts)
                assert all(type(c) is int for c in r.counts)
                assert RleMask(h, w, r.counts) == r

    def test_bounds_are_one_read_only_int64_array(self):
        r = RleMask(2, 3, (0, 2, 4))
        assert r.bounds.dtype == np.int64
        assert r.bounds.tolist() == [0, 0, 2, 6]
        assert not r.bounds.flags.writeable
        with pytest.raises(ValueError):
            r.bounds[1] = 1
        with pytest.raises(FrozenInstanceError):
            r.bounds = np.zeros(4, dtype=np.int64)
        with pytest.raises(FrozenInstanceError):
            r.height = 3

    def test_equality_and_hashing_follow_height_width_and_counts(self):
        a, b = RleMask(2, 3, (1, 2, 3)), RleMask(2, 3, [1, 2, 3])
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((2, 3, (1, 2, 3)))
        assert a != RleMask(3, 2, (1, 2, 3))
        assert a != RleMask(2, 3, (1, 3, 2))
        assert a != RleMask(2, 3, (1, 2, 2, 1))
        assert a != (2, 3, (1, 2, 3))
        assert len({a, b, RleMask(2, 3, (6,))}) == 2
        assert repr(a) == "RleMask(height=2, width=3, counts=(1, 2, 3))"
        assert pickle.loads(pickle.dumps(a)) == a
        assert not pickle.loads(pickle.dumps(a)).bounds.flags.writeable
        # the instance dataclass compares and hashes through its mask
        bits = block_mask(4, 4, 1, 3, 1, 3)
        one, two = make_instance(bits), make_instance(bits.copy())
        assert one == two and hash(one) == hash(two)
        assert one != make_instance(block_mask(4, 4, 1, 3, 1, 4))

    @pytest.mark.parametrize("h, w, counts, error, message", [
        (0, 3, (0,), DataValidationError, "RleMask dimensions must be positive"),
        (10 ** 10, 10 ** 10, (1,), DataValidationError,
         "10000000000x10000000000 grid has more pixels than a signed 64-bit "
         "count holds"),
        (2, 2, (), FormatError, "RLE counts must be non-empty"),
        (2, 2, (5, -1), FormatError, "RLE counts must be nonnegative"),
        (2, 2, (1, 0, 3), FormatError,
         "only the leading zero-run of an RLE may be empty"),
        (2, 2, (3,), FormatError, "RLE counts sum 3 != 4 (2x2 grid)"),
        (2, 2, (0, 2 ** 70), FormatError,
         f"RLE counts sum {2 ** 70} != 4 (2x2 grid)"),
        (2, 2, (2 ** 62,) * 4 + (4,), FormatError,
         f"RLE counts sum {2 ** 64 + 4} != 4 (2x2 grid)"),
    ], ids=["dims", "pixels", "empty", "negative", "interior-zero", "sum",
            "past-int64", "int64-sum-wraps"])
    def test_malformed_rle_messages(self, h, w, counts, error, message):
        with pytest.raises(error) as caught:
            RleMask(h, w, counts)
        assert type(caught.value) is error and str(caught.value) == message


class TestIou:
    def test_identical_nonempty(self):
        m = block_mask(4, 4, 0, 2, 0, 2)
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = block_mask(4, 4, 0, 2, 0, 2)
        b = block_mask(4, 4, 2, 4, 2, 4)
        assert iou(a, b) == 0.0

    def test_partial_overlap_hand_counted(self):
        # two 2x2 blocks sharing a 1x2 strip: 2 / (4 + 4 - 2)
        a = block_mask(4, 4, 0, 2, 0, 2)
        b = block_mask(4, 4, 1, 3, 0, 2)
        assert iou(a, b) == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_both_empty_is_zero(self):
        assert iou(np.zeros((3, 3), bool), np.zeros((3, 3), bool)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            iou(np.zeros((2, 2), bool), np.zeros((2, 3), bool))

    @given(hnp.arrays(dtype=bool, shape=(6, 6)), hnp.arrays(dtype=bool, shape=(6, 6)))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, a_bits, b_bits):
        v = iou(a_bits, b_bits)
        assert v == iou(b_bits, a_bits)
        assert 0.0 <= v <= 1.0
        assert (v == 1.0) == (np.array_equal(a_bits, b_bits) and a_bits.any())

    def test_monotone_under_pixel_loss(self):
        a = block_mask(5, 5, 0, 3, 0, 3)
        b_bits = block_mask(5, 5, 0, 3, 0, 3)
        before = iou(a, b_bits)
        b_bits[1, 1] = False  # drop a pixel inside the intersection
        after = iou(a, b_bits)
        assert after < before


class TestExpandBbox:
    def test_factor_one_is_identity(self):
        b = BBox(3, 4, 9, 11)
        assert expand_bbox(b, 1.0, 100, 100) == b

    def test_hand_worked_expansion(self):
        out = expand_bbox(BBox(10, 10, 20, 20), 1.2, 100, 100)
        assert out == BBox(9, 9, 21, 21)

    def test_clamped_at_origin(self):
        out = expand_bbox(BBox(0, 0, 10, 10), 1.2, 12, 12)
        assert out == BBox(0, 0, 11, 11)

    def test_always_encloses_and_stays_inside(self, rng):
        for _ in range(200):
            x0, y0 = rng.integers(0, 30, 2)
            bw, bh = rng.integers(1, 20, 2)
            b = BBox(int(x0), int(y0), int(x0 + bw), int(y0 + bh))
            f = float(rng.uniform(1.0, 3.0))
            out = expand_bbox(b, f, 50, 50)
            assert out.union(b) == out
            assert out.x0 >= 0 and out.y0 >= 0 and out.x1 <= 50 and out.y1 <= 50

    def test_degenerate_box_rejected(self):
        with pytest.raises(DataValidationError):
            BBox(5, 5, 5, 9)

    def test_shrinking_factor_rejected(self):
        with pytest.raises(DataValidationError):
            expand_bbox(BBox(0, 0, 4, 4), 0.9, 10, 10)

    def test_nan_factor_rejected(self):
        # NaN < 1.0 is False, so a NaN factor once passed the check and
        # returned the whole image
        with pytest.raises(DataValidationError, match="got nan"):
            expand_bbox(BBox(10, 10, 20, 20), float("nan"), 100, 100)

    @pytest.mark.parametrize("factor", [1e6, 1e200, 1e308])
    def test_huge_factor_clamps_to_the_image(self, factor):
        # 1e308 * 6 overflows to an infinite half-width
        assert expand_bbox(BBox(3, 4, 9, 11), factor, 40, 30) == BBox(0, 0, 30, 40)


class TestCropPaste:
    def test_full_image_crop_is_copy(self, rng):
        a = LogitMap.from_array(rng.normal(size=(4, 5, 2)).astype(np.float32))
        out = crop(a, BBox(0, 0, 5, 4))
        assert np.array_equal(out.data, a.data)

    def test_single_pixel_crop(self):
        a = LogitMap.from_array(np.arange(8, dtype=np.float32).reshape(2, 4, 1))
        assert crop(a, BBox(2, 1, 3, 2)).data[0, 0, 0] == 6.0

    def test_out_of_bounds_box(self):
        with pytest.raises(ShapeError):
            crop(LogitMap.zeros(4, 4, 1), BBox(2, 2, 6, 4))


class TestScaleBox:
    def test_identity_on_same_grid(self):
        b = BBox(2, 3, 7, 9)
        assert scale_box(b, 10, 10, 10, 10) == b

    def test_downscale_rounds_outward(self):
        out = scale_box(BBox(1, 1, 5, 5), 10, 10, 5, 5)
        assert out == BBox(0, 0, 3, 3)


def _instance_of_block():
    return make_instance(block_mask(6, 6, 1, 4, 2, 5))


class TestMaskArrays:
    """A decoded mask is a read-only 2-D bool ndarray; the functions that
    take one reject any other rank."""

    @pytest.mark.parametrize("fn", [rle_encode, tight_bbox,
                                    lambda m: iou(m, m),
                                    lambda m: iou(np.zeros((2, 2), bool), m),
                                    lambda m: binarize(m.astype(float))],
                             ids=["rle_encode", "tight_bbox", "iou", "iou_mixed",
                                  "binarize"])
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1d", "3d"])
    def test_non_2d_mask_is_shape_error(self, fn, shape):
        with pytest.raises(ShapeError, match="2D"):
            fn(np.zeros(shape, dtype=bool))

    @pytest.mark.parametrize("make", [
        lambda: rle_decode(RleMask(2, 3, (1, 2, 3))),
        lambda: rle_decode(RleMask(4, 4, (5, 2, 9)), BBox(1, 1, 3, 2)),
        lambda: _instance_of_block().window(BBox(0, 0, 6, 6)),
        lambda: _instance_of_block().window(BBox(4, 4, 6, 6)),
        lambda: binarize(np.full((2, 3), 0.7)),
    ], ids=["rle_decode", "rle_decode_box", "window", "window_outside",
            "binarize"])
    def test_returned_masks_are_read_only(self, make):
        m = make()
        assert isinstance(m, np.ndarray) and m.dtype == bool and m.ndim == 2
        with pytest.raises(ValueError):
            m[0, 0] = True


class TestMaskInstance:
    def test_bbox_must_enclose_mask(self):
        with pytest.raises(DataValidationError):
            make_instance(block_mask(6, 6, 0, 4, 0, 4), bbox=BBox(0, 0, 2, 2))

    def test_bbox_must_lie_on_the_mask_grid(self):
        with pytest.raises(DataValidationError,
                           match=r"bbox BBox\(x0=0, y0=0, x1=10, y1=10\) "
                                 r"exceeds the 4x4 mask grid"):
            make_instance(block_mask(4, 4, 0, 2, 0, 2), bbox=BBox(0, 0, 10, 10))

    def test_enclosing_bbox_ok(self):
        inst = make_instance(block_mask(6, 6, 1, 3, 1, 3), bbox=BBox(0, 0, 6, 6))
        assert inst.bbox == BBox(0, 0, 6, 6)

    def test_score_range(self):
        with pytest.raises(DataValidationError):
            make_instance(block_mask(4, 4, 0, 2, 0, 2), score=1.5)

    def test_unknown_component(self):
        with pytest.raises(DataValidationError):
            make_instance(block_mask(4, 4, 0, 2, 0, 2), component="pearl")

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_scale_must_be_positive_and_finite(self, scale):
        # dataclasses.replace runs the constructor's checks on its copy
        inst = make_instance(block_mask(6, 6, 1, 4, 2, 5), scale=0.5)
        message = re.escape(f"scale must be positive and finite, got {scale}")
        with pytest.raises(DataValidationError, match=message):
            make_instance(block_mask(6, 6, 1, 4, 2, 5), scale=scale)
        with pytest.raises(DataValidationError, match=message):
            dataclasses.replace(inst, scale=scale)

    def test_tight_bbox_of_empty_mask(self):
        assert tight_bbox(np.zeros((3, 3), dtype=bool)) is None
