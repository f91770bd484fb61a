"""Box-local masks against full-frame definitions.

Each property draws masks inside random boxes on a small frame, including
box pairs that are nested, touching, identical or disjoint, which the
synthetic generator never produces, and checks that working inside boxes
gives exactly what the full-frame definition gives.  The per-object
rasterisation, which resamples each mask only over the output window its
box reaches and holds each component channel as a plane over its support,
is checked against resampling its whole region window, and the local
ensemble it builds against ``fuse_logits`` over those whole-region maps.
IoUs, which are counted from the runs alone, are checked against
full-frame grids, pair by pair, per matching and per AP table.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segfuse.bundle import PredictionBundle
from segfuse.fusion import FusionWeights, fuse_logits
from segfuse.grids import LogitMap, scaled_dim
from segfuse.masks import (COMPONENTS, BBox, MaskInstance, RleMask,
                           _shared_pixels, iou, rle_decode, rle_encode,
                           scale_box, tight_bbox)
from segfuse.metrics import group_ap, match_predictions
from segfuse.pipeline import _local_map

from conftest import fused_frame
from reference import (group_ap_ref, local_map_ref, match_predictions_ref,
                       planes_region, weighted_average_ref)

FRAMES = st.tuples(st.integers(1, 12), st.integers(1, 12))


@st.composite
def boxes(draw, h, w, within=None):
    """A box on an h x w frame, inside ``within`` when given."""
    lo = within or BBox(0, 0, w, h)
    y0 = draw(st.integers(lo.y0, lo.y1 - 1))
    x0 = draw(st.integers(lo.x0, lo.x1 - 1))
    return BBox(x0, y0, draw(st.integers(x0 + 1, lo.x1)),
                draw(st.integers(y0 + 1, lo.y1)))


@st.composite
def related_box(draw, h, w, a):
    """A box that is random, nested in ``a``, equal to it, or touching it."""
    kind = draw(st.sampled_from(("random", "nested", "same", "touching")))
    if kind == "nested":
        return draw(boxes(h, w, within=a))
    if kind == "same":
        return a
    if kind == "touching":
        rows = draw(boxes(h, w))
        if a.x1 < w:
            return BBox(a.x1, rows.y0, draw(st.integers(a.x1 + 1, w)), rows.y1)
        if a.x0 > 0:
            return BBox(draw(st.integers(0, a.x0 - 1)), rows.y0, a.x0, rows.y1)
    return draw(boxes(h, w))


@st.composite
def frame_bits(draw, h, w, box):
    """Full-frame bits that are random inside ``box`` and zero outside."""
    inside = draw(st.lists(st.booleans(), min_size=box.height * box.width,
                           max_size=box.height * box.width))
    bits = np.zeros((h, w), dtype=bool)
    bits[box.y0:box.y1, box.x0:box.x1] = np.reshape(
        inside, (box.height, box.width))
    return bits


def instance(bits, box, **kw):
    return MaskInstance(mask=rle_encode(bits), bbox=box, object_id=0,
                        scale=1.0, **kw)


@st.composite
def instances(draw, h, w, count, model_ids=("m0",), components=("shell",)):
    """``count`` instances whose boxes relate pairwise to earlier ones."""
    out = []
    for k in range(count):
        box = (draw(boxes(h, w)) if not out else
               draw(related_box(h, w, draw(st.sampled_from(out)).bbox)))
        out.append(instance(
            draw(frame_bits(h, w, box)), box, uid=k,
            component=draw(st.sampled_from(components)),
            score=draw(st.sampled_from((0.25, 0.5, 0.9, 1.0))),
            model_id=draw(st.sampled_from(model_ids))))
    return out


def full(inst):
    return rle_decode(inst.mask)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_box_decode_is_the_crop_of_the_full_decode(data):
    h, w = data.draw(FRAMES)
    bits = data.draw(frame_bits(h, w, BBox(0, 0, w, h)))
    box = data.draw(boxes(h, w))
    r = rle_encode(bits)
    got = rle_decode(r, box)
    assert got.shape == (box.height, box.width)
    assert np.array_equal(got, bits[box.y0:box.y1, box.x0:box.x1])
    want = rle_decode(r)[box.slices]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_box_encode_is_the_encode_of_the_pasted_frame(data):
    h, w = data.draw(FRAMES)
    box = data.draw(boxes(h, w))
    bits = data.draw(frame_bits(h, w, box))
    window = bits[box.y0:box.y1, box.x0:box.x1]
    assert rle_encode(window, box, h, w) == rle_encode(bits)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_window_is_the_full_frame_over_any_box(data):
    h, w = data.draw(FRAMES)
    inst, = data.draw(instances(h, w, 1))
    box = data.draw(related_box(h, w, inst.bbox))
    assert np.array_equal(inst.window(box),
                          full(inst)[box.y0:box.y1, box.x0:box.x1])


@st.composite
def instance_pairs(draw):
    h, w = draw(FRAMES)
    return tuple(draw(instances(h, w, 2)))


def pair(h, w, a_box, b_box, a_fill=True, b_fill=True):
    """Two instances on an h x w frame whose bits fill their boxes or are
    empty."""
    def make(box, fill, uid):
        bits = np.zeros((h, w), dtype=bool)
        bits[box.slices] = fill
        return instance(bits, box, uid=uid, component="shell", score=0.5,
                        model_id="m0")
    return make(a_box, a_fill, 0), make(b_box, b_fill, 1)


def wrapped(h, w, a_span, b_span):
    """Two instances on an h x w frame, each one run of row-major pixels
    [start, stop) that wraps across rows, in its tight box."""
    def make(span, uid):
        bits = np.zeros(h * w, dtype=bool)
        bits[slice(*span)] = True
        bits = bits.reshape(h, w)
        return instance(bits, tight_bbox(bits), uid=uid, component="shell",
                        score=0.5, model_id="m0")
    return make(a_span, 0), make(b_span, 1)


CORNERS = (BBox(0, 0, 1, 1), BBox(5, 0, 6, 1), BBox(0, 5, 1, 6),
           BBox(5, 5, 6, 6))


@given(instance_pairs())
@example(pair(6, 6, BBox(0, 0, 4, 4), BBox(2, 2, 6, 6), False, False))
@example(pair(6, 6, BBox(1, 1, 5, 5), BBox(1, 1, 5, 5), False, False))
@example(pair(6, 6, BBox(1, 1, 5, 5), BBox(1, 1, 5, 5), False, True))
@example(pair(6, 6, BBox(0, 0, 3, 4), BBox(3, 1, 6, 5)))
@example(pair(6, 6, BBox(0, 0, 3, 3), BBox(3, 3, 6, 6)))
@example(pair(6, 6, BBox(0, 3, 2, 6), BBox(4, 0, 6, 2)))
@example(pair(6, 6, BBox(0, 0, 6, 6), BBox(1, 2, 3, 5)))
@example(pair(6, 6, BBox(0, 0, 6, 6), BBox(1, 2, 3, 5), False, True))
@example(wrapped(5, 6, (4, 15), (10, 22)))
@example(wrapped(5, 6, (4, 15), (15, 30)))
@example(wrapped(5, 6, (0, 30), (5, 7)))
@example(wrapped(1, 7, (2, 5), (4, 7)))
@example(pair(6, 6, CORNERS[0], CORNERS[0]))
@example(pair(6, 6, CORNERS[0], CORNERS[3]))
@example(pair(6, 6, CORNERS[1], CORNERS[2]))
@example(pair(6, 6, CORNERS[0], BBox(0, 0, 6, 6)))
@example(pair(6, 6, CORNERS[1], BBox(0, 0, 6, 6)))
@example(pair(6, 6, CORNERS[2], BBox(0, 0, 6, 6)))
@example(pair(6, 6, CORNERS[3], BBox(0, 0, 6, 6)))
@example(pair(6, 6, CORNERS[3], BBox(0, 0, 6, 6), True, False))
@settings(max_examples=300, deadline=None)
def test_pair_iou_equals_full_frame_iou(ab):
    """Explicit examples pin empty masks in overlapping and identical
    boxes, boxes that share only an edge or a corner, disjoint and nested
    boxes, runs that wrap across rows, and one-pixel masks at each corner
    of the grid."""
    a, b = ab
    want = iou(rle_decode(a.mask), rle_decode(b.mask))
    assert a.iou(b) == want
    assert b.iou(a) == want


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_matching_equals_full_frame_oracle(data):
    h, w = data.draw(FRAMES)
    comps = ("shell", "meat")
    preds = data.draw(instances(h, w, data.draw(st.integers(0, 5)),
                                components=comps))
    gts = data.draw(instances(h, w, data.draw(st.integers(0, 4)),
                              components=comps))
    # some ground truths copy a prediction, so true positives occur
    for k in data.draw(st.lists(st.integers(0, 3), max_size=2)):
        if preds and k < len(gts):
            src = preds[k % len(preds)]
            gts[k] = instance(full(src), src.bbox, component=src.component,
                              score=1.0, model_id="gt", uid=k)
    threshold = data.draw(st.sampled_from((0.2, 0.5, 0.6, 1.0)))
    got = match_predictions(preds, gts, threshold)
    assert got == match_predictions_ref(preds, gts, threshold)


def span_instance(h, w, a, b, **kw):
    """An instance whose set pixels are [a, b) in row-major order, so its
    one-run wraps across row ends; ``kw`` gives the other fields."""
    flat = np.zeros(h * w, dtype=bool)
    flat[a:b] = True
    bits = flat.reshape(h, w)
    return MaskInstance(mask=rle_encode(bits), bbox=tight_bbox(bits),
                        scale=1.0, **kw)


@st.composite
def ap_cases(draw):
    """A bundle of 1-3 models, ground truths and an IoU threshold: masks
    random in boxes that overlap or touch across groups, or one run from
    pixel 0, to the last pixel, or between, wrapping across row ends;
    tied scores, and prediction ids from uids or from group positions."""
    h, w = draw(FRAMES)
    models = ("m0", "m1", "m2")[:draw(st.integers(1, 3))]
    made = []

    def one(model_id, score, uid):
        kw = dict(component=draw(st.sampled_from(("shell", "meat"))),
                  object_id=draw(st.integers(0, 2)), score=score,
                  model_id=model_id, uid=uid)
        kind = draw(st.sampled_from(("box", "span", "head", "tail")))
        if kind == "box":
            box = (draw(boxes(h, w)) if not made else
                   draw(related_box(h, w, draw(st.sampled_from(made)))))
            made.append(box)
            return MaskInstance(mask=rle_encode(draw(frame_bits(h, w, box))),
                                bbox=box, scale=1.0, **kw)
        a = 0 if kind == "head" else draw(st.integers(0, h * w - 1))
        b = h * w if kind == "tail" else draw(st.integers(a + 1, h * w))
        inst = span_instance(h, w, a, b, **kw)
        made.append(inst.bbox)
        return inst

    preds = [one(draw(st.sampled_from(models)),
                 draw(st.sampled_from((0.25, 0.5, 0.9))),
                 draw(st.sampled_from((None, k))))
             for k in range(draw(st.integers(0, 8)))]
    gts = [one("gt", 1.0, k) for k in range(draw(st.integers(0, 5)))]
    # some ground truths copy a prediction, so true positives occur
    for k in draw(st.lists(st.integers(0, 7), max_size=3)):
        if preds:
            src = preds[k % len(preds)]
            gts.append(replace(src, score=1.0, model_id="gt", uid=len(gts)))
    bundle = PredictionBundle(image_id="ap", height=h, width=w, models=models,
                              scales=(1.0,), instances=tuple(preds))
    return bundle, gts, draw(st.sampled_from((0.2, 0.5, 0.6, 1.0)))


def _span_case():
    """Runs that wrap rows, from pixel 0 and to the last pixel, in two
    objects whose boxes overlap across groups, with tied scores."""
    h, w = 3, 4
    shell = dict(component="shell", score=0.5)
    preds = (span_instance(h, w, 0, 7, object_id=0, model_id="m0", uid=None,
                           **shell),
             span_instance(h, w, 5, 12, object_id=1, model_id="m0", uid=None,
                           **shell),
             span_instance(h, w, 3, 9, object_id=1, model_id="m1", uid=None,
                           **shell))
    gts = [span_instance(h, w, 0, 6, object_id=0, model_id="gt", uid=0,
                         **shell),
           span_instance(h, w, 6, 12, object_id=1, model_id="gt", uid=1,
                         **shell)]
    bundle = PredictionBundle(image_id="ap", height=h, width=w,
                              models=("m0", "m1"), scales=(1.0,),
                              instances=preds)
    return bundle, gts, 0.5


@given(ap_cases())
@example(_span_case())
@settings(max_examples=200, deadline=None)
def test_group_ap_equals_the_full_frame_oracle(case):
    """``group_ap``, which counts every pair's shared pixels from the runs
    in one table per call, gives each group's AP bit for bit as matching
    that group alone on full-frame grids and integrating the staircase."""
    bundle, gts, threshold = case
    for mode in ("vertical", "horizontal"):
        got = group_ap(bundle, gts, mode, threshold).entries
        want = group_ap_ref(bundle, gts, mode, threshold)
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in
                                                   want.values()]


def test_shared_pixels_where_the_laid_out_grids_pass_int64():
    """On a 2**31 x 2**31 grid, ground truths laid end to end pass int64
    after two masks, so each is counted in a stretch of its own; the counts
    and IoUs equal those of the decoded windows over the common boxes."""
    side = 2 ** 31

    def block(r, c):
        start = r * side + c
        counts = (start, 2, side - 2, 2, side * side - start - side - 2)
        return MaskInstance(mask=RleMask(side, side, counts),
                            bbox=BBox(c, r, c + 2, r + 2), component="shell",
                            object_id=0, score=0.5, model_id="m0", scale=1.0)

    far = side - 3
    gts = [block(5, 5), block(far, far), block(far, far + 1)]
    preds = [block(far, far + 1), block(6, 5), block(far + 1, far)]
    want = []
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            common = p.bbox.intersection(g.bbox)
            if common is not None:
                want.append((i, j, int(np.count_nonzero(
                    p.window(common) & g.window(common)))))
    got = _shared_pixels(preds, gts)
    assert list(zip(*(a.tolist() for a in got))) == want
    assert [n for *_, n in want] == [2, 4, 2, 2, 1]
    assert preds[0].iou(gts[1]) == 2 / 6 and preds[2].iou(gts[2]) == 1 / 7


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pasted_mask_fusion_equals_full_frame_average(data):
    h, w = data.draw(FRAMES)
    models = ("m0", "m1", "m2")
    members = data.draw(instances(h, w, data.draw(st.integers(1, 5)),
                                  model_ids=models))
    raw = data.draw(st.lists(st.integers(0, 8), min_size=3, max_size=3).filter(any))
    weights = FusionWeights("shell", tuple(
        (m, r / sum(raw)) for m, r in zip(models, raw)))
    pasted = fused_frame(members, weights)
    per_model = []
    for model in models:
        acc = np.zeros((h, w), dtype=np.float64)
        for m in members:
            if m.model_id == model:
                acc = np.maximum(acc, full(m).astype(np.float64))
        per_model.append(acc)
    want = weighted_average_ref(per_model, [v for _, v in weights.weights])
    assert np.array_equal(pasted, want)


@st.composite
def region_box(draw, h, w, region):
    """A box in ``region``: random, one pixel, or flush with one of its
    edges."""
    kind = draw(st.sampled_from(("random", "pixel", "edge")))
    if kind == "pixel":
        y = draw(st.integers(region.y0, region.y1 - 1))
        x = draw(st.integers(region.x0, region.x1 - 1))
        return BBox(x, y, x + 1, y + 1)
    box = draw(boxes(h, w, within=region))
    if kind == "edge":
        x0, y0, x1, y1 = box.x0, box.y0, box.x1, box.y1
        edge = draw(st.sampled_from(("top", "bottom", "left", "right")))
        y0 = region.y0 if edge == "top" else y0
        y1 = region.y1 if edge == "bottom" else y1
        x0 = region.x0 if edge == "left" else x0
        x1 = region.x1 if edge == "right" else x1
        box = BBox(x0, y0, x1, y1)
    return box


def local_case(h, w, region, scale, members, models=("m0",)):
    """(bundle, region, scaled region) for object 0's instances, each given
    as (box, bits inside it or None for a full box, component, score), of
    model m0, or with a fifth entry, its model, one of ``models``."""
    insts = []
    for k, (box, bits, component, score, *model) in enumerate(members):
        frame = np.zeros((h, w), dtype=bool)
        frame[box.slices] = True if bits is None else bits
        insts.append(instance(frame, box, uid=k, component=component,
                              score=score, model_id=model[0] if model else "m0"))
    sub = PredictionBundle(image_id="x", height=h, width=w, models=models,
                           scales=(1.0,), instances=tuple(insts))
    return sub, region, scale_box(region, h, w, scaled_dim(h, scale),
                                  scaled_dim(w, scale))


SCALES = st.sampled_from((0.25, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0))


@st.composite
def local_cases(draw):
    h, w = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)))
    region = draw(boxes(h, w))
    members = []
    for _ in range(draw(st.integers(1, 4))):
        box = draw(region_box(h, w, region))
        members.append((box, draw(frame_bits(h, w, box))[box.slices],
                        draw(st.sampled_from(("shell", "meat"))),
                        draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))))
    return local_case(h, w, region, draw(SCALES), members)


@given(local_cases())
# two shells of one model overlap in a corner of the region, upsampled
@example(local_case(8, 8, BBox(1, 1, 7, 7), 4.0, [
    (BBox(1, 1, 5, 5), None, "shell", 0.5),
    (BBox(3, 3, 7, 7), None, "shell", 0.9),
    (BBox(6, 1, 7, 2), None, "meat", 0.0)]))
# a one-pixel box that no output tap reaches at a quarter of the size
@example(local_case(16, 16, BBox(0, 0, 16, 16), 0.25, [
    (BBox(4, 4, 5, 5), None, "shell", 1.0),
    (BBox(0, 15, 16, 16), None, "meat", 0.9)]))
@settings(max_examples=300, deadline=None)
def test_local_map_windows_equal_the_whole_region_resample(case):
    sub, region, region_s = case
    planes = _local_map(sub, 0, region, region_s, FusionWeights.uniform(("m0",)))
    got = planes_region(planes, region_s, 5)
    want = local_map_ref(sub, "m0", 0, region, region_s, 5)
    assert got.tobytes() == want.tobytes()


def ensemble_case(h, w, region, scale, members, raw):
    """``local_case`` of ``len(raw)`` models, with the object's horizontal
    weights proportional to ``raw``."""
    models = tuple(f"m{k}" for k in range(len(raw)))
    weights = FusionWeights(0, tuple((m, r / sum(raw))
                                     for m, r in zip(models, raw)))
    return (*local_case(h, w, region, scale, members, models), weights)


@st.composite
def ensemble_cases(draw):
    h, w = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)))
    region = draw(boxes(h, w))
    raw = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        box = draw(region_box(h, w, region))
        members.append((box, draw(frame_bits(h, w, box))[box.slices],
                        draw(st.sampled_from(COMPONENTS)),
                        draw(st.sampled_from((0.0, 0.5, 0.9, 1.0))),
                        f"m{draw(st.integers(0, len(raw) - 1))}"))
    return ensemble_case(h, w, region, draw(SCALES), members, raw)


@given(ensemble_cases())
# upsampled: m1 has no meat, and m0's meat scores 0
@example(ensemble_case(8, 8, BBox(1, 1, 7, 7), 3.0, [
    (BBox(1, 1, 5, 5), None, "shell", 0.5, "m0"),
    (BBox(3, 3, 7, 7), None, "shell", 0.9, "m1"),
    (BBox(2, 2, 4, 4), None, "meat", 0.0, "m0")], [1, 2]))
# downsampled to a quarter: no tap reaches m1's one-pixel gonad, the only
# gonad, and m2 has no instance at all
@example(ensemble_case(16, 16, BBox(0, 0, 16, 16), 0.25, [
    (BBox(4, 4, 5, 5), None, "gonad", 1.0, "m1"),
    (BBox(0, 15, 16, 16), None, "meat", 0.9, "m0"),
    (BBox(2, 0, 14, 12), None, "shell", 0.5, "m1")], [1, 1, 1]))
# four models, one of them weighted 0, each reaching another component
@example(ensemble_case(12, 10, BBox(1, 2, 9, 12), 0.75, [
    (BBox(1, 2, 9, 12), None, "shell", 1.0, "m0"),
    (BBox(3, 4, 7, 9), None, "meat", 0.9, "m1"),
    (BBox(4, 5, 6, 8), None, "gonad", 0.5, "m2"),
    (BBox(4, 6, 5, 7), None, "muscle", 0.9, "m3")], [3, 0, 2, 1]))
# one model at equal size: the planes are its own rasterisation
@example(ensemble_case(6, 6, BBox(0, 0, 6, 6), 1.0, [
    (BBox(1, 1, 4, 4), None, "shell", 0.9, "m0"),
    (BBox(2, 2, 3, 3), None, "muscle", 0.0, "m0")], [1]))
@settings(max_examples=300, deadline=None)
def test_local_planes_paste_to_the_ensemble_of_whole_region_maps(case):
    sub, region, region_s, weights = case
    got = planes_region(_local_map(sub, 0, region, region_s, weights),
                        region_s, 5)
    want = fuse_logits({m: LogitMap.from_array(
        local_map_ref(sub, m, 0, region, region_s, 5)) for m in sub.models},
        [weights] * 5)
    assert got.tobytes() == want.data.tobytes()


def test_a_channel_that_no_tap_reaches_has_no_plane():
    # at a quarter of the size no output tap reads row or column 4, so the
    # one-pixel gonad leaves every value +0.0 and gets no plane
    sub, region, region_s, weights = ensemble_case(
        16, 16, BBox(0, 0, 16, 16), 0.25, [
            (BBox(4, 4, 5, 5), None, "gonad", 1.0, "m1"),
            (BBox(0, 14, 16, 16), None, "meat", 0.9, "m0")], [1, 1])
    planes = _local_map(sub, 0, region, region_s, weights)
    assert [(ch, box) for ch, box, _ in planes] == [(2, BBox(0, 3, 4, 4))]
