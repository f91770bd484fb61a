"""Grid primitives: resampling, softmax, argmax, gated blend."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from segfuse.errors import DataValidationError, ShapeError
from segfuse.fusion import weighted_average
from segfuse.grids import (_BAND_ROWS, AttentionMap, LogitMap, _lerp, _taps,
                           argmax_channel, bilinear_resize, scaled_dim,
                           softmax_rows)
from segfuse.hierarchy import fuse_adjacent_scales

from conftest import signed_zeros, traced_peak_ratio
from reference import (bilinear_gather_ref, bilinear_ref, fuse_adjacent_ref,
                       gated_blend_ref)


@st.composite
def resize_cases(draw):
    """(in_h, in_w, channels, out_h, out_w, seed, zero_frac) for up-, down-,
    same-size and mixed resamples of small grids, and for narrow grids up to
    200 output rows, which cross the resampling bands."""
    in_h, in_w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    mode = draw(st.sampled_from(("up", "down", "same", "mixed", "tall")))
    if mode == "tall":
        in_h, in_w = draw(st.integers(1, 300)), draw(st.integers(1, 4))
        out_h, out_w = draw(st.integers(1, 200)), draw(st.integers(1, 4))
    elif mode == "same":
        out_h, out_w = in_h, in_w
    elif mode == "up":
        out_h = draw(st.integers(in_h, 2 * in_h + 3))
        out_w = draw(st.integers(in_w, 2 * in_w + 3))
    elif mode == "down":
        out_h, out_w = draw(st.integers(1, in_h)), draw(st.integers(1, in_w))
    else:
        out_h, out_w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    return (in_h, in_w, draw(st.integers(1, 5)), out_h, out_w,
            draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from((0.0, 0.25, 0.5))))


def planted_grid(in_h, in_w, channels, seed, zero_frac):
    """Signed float32 values with a ``zero_frac`` share replaced by +0.0 or
    -0.0 at random."""
    rng = np.random.default_rng(seed)
    src = rng.normal(scale=3.0, size=(in_h, in_w, channels)).astype(np.float32)
    zeros = rng.random(src.shape) < zero_frac
    src[zeros] = np.where(rng.random(src.shape) < 0.5, 0.0, -0.0)[zeros]
    return src


class TestBilinearResize:
    def test_constant_map_exact(self):
        a = LogitMap.full(3, 5, 2, 3.7)
        for th, tw in ((1, 1), (2, 9), (8, 3), (3, 5)):
            out = bilinear_resize(a, th, tw)
            assert np.array_equal(out.data,
                                  np.full((th, tw, 2), np.float32(3.7)))

    def test_identity_sizes(self, rng):
        a = LogitMap.from_array(rng.normal(size=(4, 6, 3)).astype(np.float32))
        assert bilinear_resize(a, 4, 6).data.tobytes() == a.data.tobytes()

    def test_half_pixel_row_values(self):
        # hand evaluation of src = (dst + 0.5) * in/out - 0.5 on [[0,1],[0,1]]
        a = LogitMap.from_array(np.array([[0.0, 1.0], [0.0, 1.0]],
                                         dtype=np.float32))
        out = bilinear_resize(a, 2, 4)
        expected = np.array([0.0, 0.25, 0.75, 1.0], dtype=np.float32)
        assert np.array_equal(out.data[0, :, 0], expected)
        assert np.array_equal(out.data[1, :, 0], expected)

    def test_matches_scalar_reference(self, rng):
        for in_h, in_w, out_h, out_w in ((2, 2, 5, 3), (8, 8, 3, 7),
                                         (4, 6, 8, 8), (1, 5, 4, 4),
                                         (7, 3, 7, 3)):
            src = rng.normal(scale=5.0, size=(in_h, in_w, 2)).astype(np.float32)
            got = bilinear_resize(LogitMap.from_array(src), out_h, out_w)
            assert (got.data.tobytes()
                    == bilinear_ref(src, out_h, out_w).tobytes())

    @given(resize_cases())
    @example((1, 7, 2, 1, 3, 0, 0.5))
    @example((6, 1, 3, 13, 1, 1, 0.5))
    @example((1, 1, 5, 4, 4, 2, 0.5))
    @example((3, 3, 1, 1, 7, 3, 0.25))
    @settings(max_examples=300, deadline=None)
    def test_matches_gather_oracle_bytes(self, case):
        in_h, in_w, channels, out_h, out_w, seed, zero_frac = case
        src = planted_grid(in_h, in_w, channels, seed, zero_frac)
        got = bilinear_resize(LogitMap.from_array(src), out_h, out_w).data
        assert got.tobytes() == bilinear_gather_ref(src, out_h, out_w).tobytes()
        assert got.tobytes() == bilinear_ref(src, out_h, out_w).tobytes()

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_size_signed_zero_rule(self, h, w, channels, seed):
        # half the cells are +-0.0, so every neighbour case of -0.0 occurs
        src = planted_grid(h, w, channels, seed, 0.5)
        a = LogitMap.from_array(src)
        got = bilinear_resize(a, h, w)
        expected = bilinear_gather_ref(src, h, w).tobytes()
        assert got.data.tobytes() == expected
        assert (got is a) == (expected == src.tobytes())

    def test_same_size_returns_input_when_no_zero_flips(self):
        # the -0.0 at (0, 0) keeps its sign: right and lower are negative
        src = np.array([[-0.0, -1.0], [-2.0, 0.0]], dtype=np.float32)
        a = LogitMap.from_array(src)
        assert bilinear_resize(a, 2, 2) is a
        flipped = LogitMap.from_array(np.array([[-0.0, 1.0], [-2.0, 0.0]],
                                               dtype=np.float32))
        out = bilinear_resize(flipped, 2, 2)
        assert out is not flipped
        assert not np.signbit(out.data[0, 0, 0])

    def test_rejects_bad_target(self):
        with pytest.raises(DataValidationError):
            bilinear_resize(LogitMap.zeros(2, 2, 1), 0, 4)

    # output heights on both sides of the 64-row band edges
    @pytest.mark.parametrize("out_h", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("factor", [8, 1 / 8])
    @pytest.mark.parametrize("channels", [1, 5])
    def test_bytes_across_band_edges(self, out_h, factor, channels):
        # a band of 64 rows reads 128 source rows at 8x down, 9 at 8x up
        in_h = max(1, round(out_h * factor))
        in_w, out_w = (24, 3) if factor > 1 else (3, 24)
        src = planted_grid(in_h, in_w, channels, out_h, 0.25)
        got = bilinear_resize(LogitMap.from_array(src), out_h, out_w).data
        assert got.tobytes() == bilinear_gather_ref(src, out_h, out_w).tobytes()
        assert got.tobytes() == bilinear_ref(src, out_h, out_w).tobytes()

    def test_result_is_read_only(self, rng):
        a = LogitMap.from_array(rng.normal(size=(70, 3, 2)).astype(np.float32))
        for out_h, out_w in ((140, 5), (70, 3)):
            with pytest.raises(ValueError):
                bilinear_resize(a, out_h, out_w).data[0, 0, 0] = 1.0
        flipped = LogitMap.from_array(np.array([[-0.0, 1.0]], dtype=np.float32))
        out = bilinear_resize(flipped, 1, 2)
        assert out is not flipped and not out.data.flags.writeable

    def test_peak_memory_bounded_by_bands(self, rng):
        # a whole-frame float64 pass would cost 2x the output per temporary
        a = LogitMap.from_array(
            rng.normal(size=(256, 256, 5)).astype(np.float32))
        assert traced_peak_ratio(bilinear_resize, a, 512, 512) <= 3.5

    def test_same_size_looks_for_negative_zero_a_band_at_a_time(self, rng):
        # 16 bands, every third row +0.0 and no -0.0: the grid is its own
        # resample, and the search for a -0.0 builds no whole-frame mask
        src = rng.normal(size=(16 * _BAND_ROWS, 64, 5)).astype(np.float32)
        src[::3] = 0.0
        a = LogitMap.from_array(src)
        assert bilinear_resize(a, *src.shape[:2]) is a
        assert traced_peak_ratio(bilinear_resize, a, *src.shape[:2]) < 1 / 16


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


@given(arrays(np.float32, array_shapes(min_dims=3, max_dims=3, max_side=7),
              elements=st.floats(width=32, allow_nan=False,
                                 allow_infinity=False)))
@example(np.array([[[0.0, F32_TINY], [F32_MAX, -F32_MAX]],
                   [[-F32_TINY, -F32_MAX], [0.0, F32_MAX]]], np.float32))
@example(np.array([[[-0.0, F32_TINY], [-F32_MAX, -0.0]],
                   [[-F32_TINY, -0.0], [-0.0, F32_MAX]]], np.float32))
@settings(max_examples=300, deadline=None)
def test_equal_grid_lerp_changes_no_bit_but_a_negative_zero(src):
    # the premise of the same-size early-out: at t = 0 the lerp returns
    # every value bit for bit, +0.0, subnormals and the float32 extremes
    # included; only a -0.0 may change, as the gather oracle changes it
    h, w = src.shape[:2]
    got = _lerp(src, _taps(h, h), _taps(w, w))
    assert got.tobytes() == bilinear_gather_ref(src, h, w).tobytes()
    if not np.signbit(src[src == 0]).any():
        assert got.tobytes() == src.tobytes()


class TestScaledDim:
    def test_round_half_up_and_at_least_one(self):
        assert scaled_dim(96, 0.5) == 48
        assert scaled_dim(5, 0.5) == 3
        assert scaled_dim(3, 0.01) == 1

    @pytest.mark.parametrize("scale", [1e308, float("inf"), float("nan")])
    def test_non_finite_size_is_data_error(self, scale):
        with pytest.raises(DataValidationError, match="no finite grid size"):
            scaled_dim(96, scale)


class TestSoftmaxRows:
    def test_uniform_on_equal_inputs(self):
        out = softmax_rows([[0.0, 0.0, 0.0]])
        assert np.allclose(out, 1.0 / 3.0, atol=0)
        assert out[0, 0] == out[0, 1] == out[0, 2]

    def test_ln2_row(self):
        # exp splits 1 : 2 after shifting, for any common offset c
        c = 17.25
        out = softmax_rows([[c, c + np.log(2.0)]])
        assert np.allclose(out[0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        m = rng.normal(scale=30.0, size=(40, 17))
        sums = softmax_rows(m).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, row, shift):
        base = softmax_rows([row])
        shifted = softmax_rows([[v + shift for v in row]])
        assert np.abs(base - shifted).max() <= 1e-12

    def test_underflowed_entries_are_zero(self):
        # every entry but the row max underflows: the softmax is one-hot
        out = softmax_rows([[0.0, -1000.0, -2000.0], [-5000.0, 0.0, -900.0]])
        assert out.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    def test_empty_row_rejected(self):
        with pytest.raises(DataValidationError):
            softmax_rows(np.empty((2, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataValidationError):
            softmax_rows([[np.inf, 0.0]])


class TestArgmaxChannel:
    def test_single_channel_all_zero_labels(self):
        a = LogitMap.full(3, 4, 1, 2.5)
        assert np.array_equal(argmax_channel(a), np.zeros((3, 4), dtype=np.int64))

    def test_picks_max(self):
        a = LogitMap.from_array(np.array([[[1.0, 3.0, 2.0]]], dtype=np.float32))
        assert argmax_channel(a)[0, 0] == 1

    def test_tie_goes_to_lowest_index(self):
        a = LogitMap.from_array(np.array([[[5.0, 5.0]]], dtype=np.float32))
        assert argmax_channel(a)[0, 0] == 0


def gated_blend(a, b, gate):
    """``a * gate + b * (1 - gate)`` as the frame/object blend and the
    scale fold call it: the two-term weighted_average, with a 2-D gate
    given its channel axis."""
    g = gate if gate.ndim == a.ndim else gate[..., None]
    return weighted_average([a, b], [g, np.float32(1) - g])


class TestGatedBlend:
    def test_extremes_are_bitwise(self, rng):
        a = rng.normal(size=(4, 4, 2)).astype(np.float32)
        b = rng.normal(size=(4, 4, 2)).astype(np.float32)
        assert np.array_equal(gated_blend(a, b, np.ones((4, 4), np.float32)), a)
        assert np.array_equal(gated_blend(a, b, np.zeros((4, 4), np.float32)), b)

    def test_never_escapes_envelope(self, rng):
        a = rng.normal(size=(16, 16, 3)).astype(np.float32)
        b = rng.normal(size=(16, 16, 3)).astype(np.float32)
        g = rng.uniform(size=(16, 16)).astype(np.float32)
        out = gated_blend(a, b, g)
        assert (out >= np.minimum(a, b)).all()
        assert (out <= np.maximum(a, b)).all()

    def test_identical_inputs_fixed_point(self, rng):
        a = rng.normal(size=(8, 8, 1)).astype(np.float32)
        g = rng.uniform(size=(8, 8)).astype(np.float32)
        assert np.array_equal(gated_blend(a, a.copy(), g), a)

    @pytest.mark.parametrize("gate_ndim", [2, 3])
    def test_matches_scalar_reference_across_bands(self, rng, gate_ndim):
        shape = (130, 4, 3)
        a = signed_zeros(rng, rng.normal(size=shape).astype(np.float32))
        b = signed_zeros(rng, rng.normal(size=shape).astype(np.float32))
        g = rng.uniform(size=shape[:gate_ndim]).astype(np.float32)
        g.flat[::7] = 0.0
        g.flat[3::7] = 1.0
        out = gated_blend(a, b, g)
        assert out.shape == shape and out.dtype == np.float32
        g3 = g if gate_ndim == 3 else np.broadcast_to(g[..., None], shape)
        for idx in np.ndindex(shape):  # bytes, so a zero's sign counts
            assert (out[idx].tobytes()
                    == gated_blend_ref(a[idx], b[idx], g3[idx]).tobytes())

    def test_peak_memory_bounded_by_bands(self, rng):
        a = rng.normal(size=(512, 512, 5)).astype(np.float32)
        b = rng.normal(size=(512, 512, 5)).astype(np.float32)
        g = rng.uniform(size=(512, 512)).astype(np.float32)
        assert traced_peak_ratio(gated_blend, a, b, g) <= 2.0


class TestFuseAdjacentAcrossBands:
    def test_matches_reference_65_to_130_rows(self, rng):
        # mostly signed zeros, so that many upsampled pixels are zeros too
        lower = signed_zeros(rng, rng.normal(scale=3.0, size=(65, 3, 2))
                             .astype(np.float32), share=0.8)
        alpha = signed_zeros(rng, rng.uniform(size=(65, 3)).astype(np.float32))
        higher = signed_zeros(rng, rng.normal(scale=3.0, size=(130, 6, 2))
                              .astype(np.float32))
        got = fuse_adjacent_scales(LogitMap.from_array(lower),
                                   AttentionMap.from_array(alpha),
                                   LogitMap.from_array(higher))
        assert (got.data.tobytes()
                == fuse_adjacent_ref(lower, alpha, higher).tobytes())
        assert not got.data.flags.writeable

    def test_peak_memory_bounded_by_bands(self, rng):
        lower = LogitMap.from_array(
            rng.normal(size=(256, 256, 5)).astype(np.float32))
        alpha = AttentionMap.from_array(
            rng.uniform(size=(256, 256)).astype(np.float32))
        higher = LogitMap.from_array(
            rng.normal(size=(512, 512, 5)).astype(np.float32))
        assert traced_peak_ratio(fuse_adjacent_scales, lower, alpha,
                                 higher) <= 4.0


class TestTypeInvariants:
    def test_logitmap_rejects_nan(self):
        with pytest.raises(DataValidationError):
            LogitMap.from_array(np.array([[[np.nan]]], dtype=np.float32))

    def test_own_freezes_in_place_with_the_same_checks(self):
        arr = np.ones((2, 3, 4), dtype=np.float32)
        grid = LogitMap._own(arr)
        assert grid.data is arr and not arr.flags.writeable
        assert grid.shape == (2, 3, 4)
        with pytest.raises(DataValidationError):
            LogitMap._own(np.array([[[np.nan]]], dtype=np.float32))
        with pytest.raises(DataValidationError):
            LogitMap._own(np.ones((0, 3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            LogitMap._own(np.ones((2, 3), dtype=np.float32))
        # float64, not C-contiguous, a view that does not own its data
        for bad in (np.ones((2, 3, 4)),
                    np.ones((3, 2, 4), np.float32).swapaxes(0, 1),
                    np.ones((4, 3, 4), np.float32)[:2]):
            with pytest.raises(DataValidationError):
                LogitMap._own(bad)

    def test_attention_range_enforced(self):
        with pytest.raises(DataValidationError):
            AttentionMap.from_array(np.array([[1.5]], dtype=np.float32))

    def test_data_is_immutable(self):
        a = LogitMap.zeros(2, 2, 1)
        with pytest.raises(ValueError):
            a.data[0, 0, 0] = 1.0


class TestOwnChecksByDefault:
    """Both grid types wrap a fresh array through one ``_own``, which checks
    its values unless the caller says it already has."""

    @pytest.mark.parametrize("bad", [np.nan, 7.0])
    def test_attention_own_rejects_bad_values(self, bad):
        with pytest.raises(DataValidationError, match="^AttentionMap "):
            AttentionMap._own(np.array([[bad, 0.5]], np.float32))

    def test_checked_skips_only_the_value_scan(self):
        arr = np.array([[np.nan]], np.float32)
        assert AttentionMap._own(arr, checked=True).data is arr
        with pytest.raises(DataValidationError, match="must be positive"):
            AttentionMap._own(np.ones((0, 2), np.float32), checked=True)
        with pytest.raises(DataValidationError, match="can only own"):
            AttentionMap._own(np.ones((4, 2), np.float32)[:2], checked=True)
        with pytest.raises(ShapeError, match="expected 2D array"):
            AttentionMap._own(np.ones((2, 2, 1), np.float32), checked=True)

    @pytest.mark.parametrize("grid", [LogitMap.full(2, 3, 4, 0.25),
                                      AttentionMap.full(2, 3, 0.25)],
                             ids=["logits", "attention"])
    def test_full_owns_its_frozen_array(self, grid):
        assert grid.data.flags.owndata and not grid.data.flags.writeable
        assert grid.data.shape == grid.shape
        assert (grid.data == np.float32(0.25)).all()

    def test_full_keeps_the_constructor_errors(self):
        with pytest.raises(DataValidationError, match="AttentionMap values"):
            AttentionMap.full(2, 2, 1.5)
        with pytest.raises(DataValidationError, match="LogitMap contains"):
            LogitMap.full(2, 2, 1, np.inf)
        with pytest.raises(DataValidationError, match="LogitMap dimensions"):
            LogitMap.zeros(0, 2, 1)
