"""The two kernels that carry the band traffic, byte for byte against the
scalar oracles, on drawn shapes, dtypes and coefficients.

``fusion.weighted_average`` works in place in one accumulator and one term
buffer per band; ``grids._lerp`` gathers its taps with ``np.take`` and lerps
in place.  Both must do the same IEEE operations in the same order as the
oracles in ``tests/reference.py``, for any band height: the draws include
grids wider than ``grids._BAND_PIXELS``, whose bands are one row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse.fusion import weighted_average
from segfuse.grids import _BAND_PIXELS, _band_rows, _lerp, _taps

from reference import bilinear_gather_ref, weighted_average_ref

DTYPES = (np.float32, np.float64)


def _values(rng, shape, dtype):
    """Signed values with a share of +0.0 and -0.0, in ``dtype``."""
    a = rng.normal(scale=3.0, size=shape)
    zeros = rng.random(shape) < 0.1
    a[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return a.astype(dtype)


@st.composite
def fusion_cases(draw):
    """(arrays, coefficients) of 1-5 terms: float32 and float64 arrays,
    mixed across terms too, each weighted by a Python float, a numpy
    scalar, a per-channel vector, a per-pixel gate or a per-element array.
    The widths give bands of 2730, 64, 2 and 1 rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from((3, 128, 2731, _BAND_PIXELS + 5)))
    rows = _band_rows(width)
    height = draw(st.integers(1, min(3 * rows, 130)))
    channels = draw(st.integers(1, 3))
    shape = (height, width, channels)
    arrays, coeffs = [], []
    for _ in range(draw(st.integers(1, 5))):
        arrays.append(_values(rng, shape, draw(st.sampled_from(DTYPES))))
        kind = draw(st.sampled_from(("python", "numpy", "channel", "gate",
                                     "element")))
        dtype = draw(st.sampled_from(DTYPES))
        size = {"python": None, "numpy": (), "channel": (channels,),
                "gate": (height, width, 1), "element": shape}[kind]
        w = rng.uniform(size=size)
        if size:
            w.flat[::5] = 0.0
            w.flat[1::7] = 1.0
        coeffs.append(float(w) if kind == "python"
                      else dtype(w) if kind == "numpy"
                      else w.astype(dtype))
    return arrays, coeffs


@given(fusion_cases())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_weighted_average_matches_the_scalar_oracle(case):
    arrays, coeffs = case
    got = weighted_average(arrays, coeffs)
    want = weighted_average_ref(arrays, coeffs)
    assert got.dtype == want.dtype == np.result_type(*arrays)
    assert got.tobytes() == want.tobytes()


@st.composite
def lerp_cases(draw):
    """(src, out_h, out_w): up-, down- and same-size resamples whose output
    is wider than a band of pixels, so its bands are one row, or 100-300
    wide, so its bands are 27-81 rows."""
    wide = draw(st.booleans())
    out_w = draw(st.integers(_BAND_PIXELS + 1, _BAND_PIXELS + 300) if wide
                 else st.integers(100, 300))
    out_h = draw(st.integers(1, 4) if wide else st.integers(1, 200))
    in_w = draw(st.sampled_from((1, out_w // 3, out_w, 2 * out_w)))
    in_h = draw(st.sampled_from((1, max(1, out_h // 2), out_h, 2 * out_h + 1)))
    channels = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _values(rng, (in_h, in_w, channels), np.float32), out_h, out_w


@given(lerp_cases())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_lerp_matches_the_gather_oracle(case):
    src, out_h, out_w = case
    in_h, in_w, _ = src.shape
    got = _lerp(src, _taps(in_h, out_h), _taps(in_w, out_w))
    assert got.shape == (out_h, out_w, src.shape[2])
    assert got.tobytes() == bilinear_gather_ref(src, out_h, out_w).tobytes()


def test_draws_reach_one_row_bands():
    # the widest drawn grids walk bands of one row
    assert _band_rows(_BAND_PIXELS + 1) == _band_rows(_BAND_PIXELS + 5) == 1
    assert _band_rows(2731) == 2 and _band_rows(128) == 64
