"""Reductions across the channels of a row, byte for byte against numpy's
axis reductions.

``softmax_rows``, ``row_normalize``, ``argmax_channel`` and the pipeline's
per-object gate pass over the channel columns one at a time; the oracles in
``tests/reference.py`` use ``max(axis=1)``, the last column of
``cumsum(axis=1)`` and ``np.argmax``.  Matrices cover 1, 2, 5 and 7
channels, exact ties and signed zeros, rows whose shifted ``exp``
underflows to 0, non-contiguous layouts, and more rows than a band.  The
gate of a whole object region, computed per band of frame rows as the
pipeline's band pass computes it, is checked against the oracle on the
whole region.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse import pipeline
from segfuse.attention import row_normalize
from segfuse.config import PipelineConfig
from segfuse.grids import LogitMap, _band_rows, argmax_channel, softmax_rows
from segfuse.masks import BBox
from segfuse.pipeline import _band_gate, _object_gate

from reference import (argmax_ref, object_gate_ref, region_planes,
                       row_normalize_ref, softmax_rows_ref)

LAYOUTS = ("c", "columns", "fortran", "transpose")

# a 128-wide frame walks 64-row bands; heights on both sides of two edges
FRAME_WIDTH = 128
ROWS = _band_rows(FRAME_WIDTH)
EDGE_HEIGHTS = [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1]


@st.composite
def channel_rows(draw, channels=(1, 2, 5, 7)):
    """(rows x channels float64 matrix, layout name)."""
    k = draw(st.sampled_from(channels))
    n = draw(st.integers(1, 2 * ROWS + 10))
    kind = draw(st.sampled_from(("normal", "ties", "underflow")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        # few distinct values, both zeros among them: rows tie exactly
        m = rng.choice(np.array([-2.5, -0.0, 0.0, 0.75, 3.0]), size=(n, k))
    elif kind == "underflow":
        # spreads far beyond 745, where exp(x - row max) is 0.0
        m = rng.normal(scale=2000.0, size=(n, k))
    else:
        m = rng.normal(scale=4.0, size=(n, k))
    return m, draw(st.sampled_from(LAYOUTS))


def lay_out(m: np.ndarray, layout: str) -> np.ndarray:
    """The values of ``m`` in another memory layout."""
    if layout == "columns":
        wide = np.zeros((m.shape[0], 2 * m.shape[1] + 1))
        wide[:, 1::2] = m
        return wide[:, 1::2]
    if layout == "fortran":
        return np.asfortranarray(m)
    if layout == "transpose":
        return np.ascontiguousarray(m.T).T
    return m


def test_layouts_are_what_they_say():
    m = np.arange(12.0).reshape(4, 3)
    for layout in LAYOUTS:
        assert np.array_equal(lay_out(m, layout), m)
    assert not lay_out(m, "columns").flags.forc
    assert lay_out(m, "fortran").flags.f_contiguous
    assert not lay_out(m, "transpose").flags.c_contiguous


@given(channel_rows())
@settings(max_examples=300, deadline=None)
def test_softmax_rows_matches_axis_oracle(case):
    m, layout = case
    a = lay_out(m, layout)
    assert softmax_rows(a).tobytes() == softmax_rows_ref(a).tobytes()


@given(channel_rows())
@settings(max_examples=300, deadline=None)
def test_row_normalize_matches_axis_oracle(case):
    m, layout = case
    # nonnegative, keeping -0.0 (it is not below 0); all-zero rows are
    # rejected, which test_attention covers
    w = np.where(m < 0, -m, m)
    w[(w == 0).all(axis=1)] = 1.0
    a = lay_out(w, layout)
    assert row_normalize(a).tobytes() == row_normalize_ref(a).tobytes()
    s = lay_out(softmax_rows_ref(m), layout)
    assert row_normalize(s).tobytes() == row_normalize_ref(s).tobytes()


@given(channel_rows())
@settings(max_examples=300, deadline=None)
def test_argmax_channel_matches_axis_oracle(case):
    m, _ = case
    # two pixels per grid row where the row count allows, one otherwise
    w = 2 if len(m) % 2 == 0 else 1
    grid = LogitMap.from_array(
        m.astype(np.float32).reshape(len(m) // w, w, m.shape[1]))
    assert argmax_channel(grid).tobytes() == argmax_ref(grid.data).tobytes()


@given(channel_rows(channels=(2, 5, 7)),
       st.sampled_from((0.5, 1.0, 3.0, 40.0)))
@settings(max_examples=300, deadline=None)
def test_object_gate_matches_oracle(case, factor):
    m, layout = case
    # the rows reversed disagree with the frame except where they meet
    g, l = lay_out(m, layout), lay_out(m[::-1].copy(), layout)
    got = _object_gate(g, l, factor)
    assert got.tobytes() == object_gate_ref(g, l, factor).tobytes()


@pytest.mark.parametrize("height", EDGE_HEIGHTS)
@pytest.mark.parametrize("width", [1, 7])
def test_region_gate_bands_match_the_whole_region_oracle(rng, monkeypatch,
                                                         height, width):
    # the local map is one plane per channel over the whole region
    check_region_gate(rng, monkeypatch, height, width, parts=False)


@pytest.mark.parametrize("height", EDGE_HEIGHTS)
@pytest.mark.parametrize("width", [1, 7])
def test_region_gate_bands_match_the_oracle_on_partial_planes(
        rng, monkeypatch, height, width):
    check_region_gate(rng, monkeypatch, height, width, parts=True)


def check_region_gate(rng, monkeypatch, height, width, parts):
    """The gate of one region, built band by band by ``_band_gate`` from
    random frame rows and the region's local planes, against
    ``object_gate_ref`` over the whole region."""
    # the region is a window of a larger frame, as the engine crops it, and
    # the frame's bands cut it where the band pass does
    frame = rng.normal(scale=3.0, size=(height + 5, FRAME_WIDTH, 5))
    frame = frame.astype(np.float32)
    region = BBox(1, 2, 1 + width, 2 + height)
    g = frame[region.slices]
    l = rng.normal(scale=3.0, size=(height, width, 5)).astype(np.float32)
    l[::3] = g[::3]  # rows that agree give uniform attention, a gate of 1
    planes = region_planes(l, region)
    if parts:
        # as the engine holds a local map: no background plane, and each
        # component's plane over a corner of the region that starts a
        # quarter further in per channel, with zeros outside it
        planes = []
        l[:, :, 0] = 0
        for ch in range(1, 5):
            y0, x0 = (ch - 1) * height // 4, (ch - 1) * width // 4
            keep = l[y0:, x0:, ch].copy()
            l[:, :, ch] = 0
            l[y0:, x0:, ch] = keep
            planes.append((ch, BBox(region.x0 + x0, region.y0 + y0,
                                    region.x1, region.y1), keep))
    patches = np.full((height, width), np.nan)

    def pasted(band_patches, *args, **kwargs):
        for patch, box in band_patches:
            patches[box.y0 + r0 - region.y0:box.y1 + r0 - region.y0] = patch
        return attention_to_map(band_patches, *args, **kwargs)

    attention_to_map = pipeline.attention_to_map
    monkeypatch.setattr(pipeline, "attention_to_map", pasted)
    cfg = PipelineConfig(attention_factor=1.5, neutral_beta=0.25)
    step = _band_rows(frame.shape[1])
    assert 2 + max(EDGE_HEIGHTS) > 2 * step
    bands = []
    for r0 in range(0, len(frame), step):
        bands.append(_band_gate(frame[r0:r0 + step], r0,
                                [(region, planes)], cfg).data)
    got = np.concatenate(bands)
    want = object_gate_ref(g.reshape(-1, 5).astype(np.float64),
                           l.reshape(-1, 5).astype(np.float64), 1.5)
    assert patches.tobytes() == want.tobytes()
    assert got[region.slices].tobytes() == \
        want.reshape(height, width).astype(np.float32).tobytes()
    got[region.slices] = 0.25
    assert (got == np.float32(0.25)).all()
