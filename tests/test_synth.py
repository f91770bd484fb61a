"""The seeded synthetic scene generator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfuse.masks import COMPONENTS, BBox, rle_decode, tight_bbox
from segfuse.synth import _perturb, generate

from reference import perturb_ref, synth_ref


def bits_of(bundle, model, oid, component, scale=None):
    scale = scale if scale is not None else bundle.scales[0]
    found = [i for i in bundle.instances
             if i.model_id == model and i.object_id == oid
             and i.component == component and i.scale == scale]
    assert len(found) <= 1
    return rle_decode(found[0].mask) if found else None


class TestDeterminism:
    def test_same_seed_same_bundle(self):
        a = generate(42, objects=3, height=64, width=64)
        b = generate(42, objects=3, height=64, width=64)
        assert len(a.instances) == len(b.instances)
        for x, y in zip(a.instances, b.instances):
            assert x.mask.counts == y.mask.counts
            assert x.score == y.score and x.bbox == y.bbox
        for key in a.logit_maps:
            assert np.array_equal(a.logit_maps[key].data, b.logit_maps[key].data)
        for key in a.alpha_maps:
            assert np.array_equal(a.alpha_maps[key].data, b.alpha_maps[key].data)

    def test_different_seeds_differ(self):
        a = generate(1, height=64, width=64)
        b = generate(2, height=64, width=64)
        assert any(x.mask.counts != y.mask.counts
                   for x, y in zip(a.instances, b.instances))


class TestStructure:
    def test_zero_perturbation_makes_models_agree(self):
        bundle = generate(9, perturb=0, objects=2, height=64, width=64)
        for oid in range(2):
            for comp in COMPONENTS:
                reference = bits_of(bundle, "m0", oid, comp)
                for model in bundle.models[1:]:
                    assert np.array_equal(bits_of(bundle, model, oid, comp),
                                          reference)

    def test_model_zero_is_exact(self):
        bundle = generate(11, perturb=4, objects=2, height=64, width=64)
        gt = {(g.object_id, g.component): rle_decode(g.mask)
              for g in bundle.ground_truth}
        for oid in range(2):
            for comp in COMPONENTS:
                assert np.array_equal(bits_of(bundle, "m0", oid, comp),
                                      gt[(oid, comp)])

    def test_components_nest(self):
        bundle = generate(3, objects=4)
        gt = {(g.object_id, g.component): rle_decode(g.mask)
              for g in bundle.ground_truth}
        for oid in range(4):
            shell, meat = gt[(oid, "shell")], gt[(oid, "meat")]
            gonad, muscle = gt[(oid, "gonad")], gt[(oid, "muscle")]
            assert (muscle <= gonad).all()
            assert (gonad <= meat).all()
            assert (meat <= shell).all()
            assert shell.any() and muscle.any()

    def test_logit_argmax_recovers_nesting(self):
        from segfuse.grids import argmax_channel
        bundle = generate(3, objects=2, perturb=0, height=64, width=64)
        labels = argmax_channel(bundle.logit_maps[("m0", 1.0)])
        gt = {(g.object_id, g.component): rle_decode(g.mask)
              for g in bundle.ground_truth}
        for oid in range(2):
            muscle = gt[(oid, "muscle")]
            assert (labels[muscle] == 4).all()
            shell_only = gt[(oid, "shell")] & ~gt[(oid, "meat")]
            assert (labels[shell_only] == 1).all()

    def test_scales_get_scaled_grids(self):
        bundle = generate(4, scales=(0.5, 1.0), height=64, width=96)
        assert bundle.logit_maps[("m0", 0.5)].shape[:2] == (32, 48)
        assert bundle.logit_maps[("m0", 1.0)].shape[:2] == (64, 96)
        assert bundle.alpha_maps[("m0", 0.5)].shape == (32, 48)

    def test_scores_reflect_perturbation(self):
        bundle = generate(12, perturb=6, objects=3)
        exact = [i.score for i in bundle.instances if i.model_id == "m0"]
        worst = [i.score for i in bundle.instances
                 if i.model_id == bundle.models[-1]]
        assert min(exact) == 1.0
        assert np.mean(worst) < 1.0


REFERENCE_FIXTURES = {
    # pixels shifted off the frame and components erased at magnitude 6
    "tiny-perturb6": dict(objects=7, models=6, height=16, width=20, perturb=6),
    "no-perturb": dict(objects=5, models=3, height=32, width=40, perturb=0),
    "one-model": dict(objects=4, models=1, height=24, width=32),
    "multi-scale": dict(objects=6, models=3, height=32, width=48,
                        scales=(0.25, 0.5, 1.0, 2.0)),
    "crowded-edges": dict(objects=12, models=4, height=40, width=50,
                          perturb=8),
    # shells large enough that a shift plus a dilation passes the magnitude
    "large-shift": dict(objects=2, models=4, height=96, width=96, perturb=9),
}


class TestAgainstWholeFrameReference:
    @pytest.mark.parametrize("seed", [2, 3, 7])
    @pytest.mark.parametrize("name", sorted(REFERENCE_FIXTURES))
    def test_element_for_element(self, name, seed):
        kw = REFERENCE_FIXTURES[name]
        bundle = generate(seed, **kw)
        ref = synth_ref(seed, **kw)
        assert [(g.object_id, g.component, g.mask.counts,
                 (g.bbox.x0, g.bbox.y0, g.bbox.x1, g.bbox.y1))
                for g in bundle.ground_truth] == ref["ground_truth"]
        expected = [(scale, *inst) for scale in bundle.scales
                    for inst in ref["instances"]]
        assert [(i.scale, i.model_id, i.object_id, i.component, i.mask.counts,
                 (i.bbox.x0, i.bbox.y0, i.bbox.x1, i.bbox.y1), i.score)
                for i in bundle.instances] == expected
        assert [i.uid for i in bundle.instances] == list(range(len(expected)))
        assert bundle.logit_maps.keys() == ref["logits"].keys()
        for key, grid in bundle.logit_maps.items():
            assert grid.data.tobytes() == ref["logits"][key].tobytes(), key
        assert bundle.alpha_maps.keys() == ref["alphas"].keys()
        for key, grid in bundle.alpha_maps.items():
            assert grid.data.tobytes() == ref["alphas"][key].tobytes(), key

    def test_fixtures_reach_the_edge_cases(self):
        """The reference fixtures erase components, move masks against the
        frame's sides and draw both shapes."""
        erased = edge = 0
        shapes = set()
        for name, kw in REFERENCE_FIXTURES.items():
            for seed in (2, 3, 7):
                ref = synth_ref(seed, **kw)
                shapes.update(ref["shapes"])
                erased += kw["objects"] * kw["models"] * 4 - len(ref["instances"])
                edge += sum(1 for *_, box, _ in ref["instances"]
                            if box[0] == 0 or box[1] == 0
                            or box[2] == kw["width"] or box[3] == kw["height"])
        assert erased > 0 and edge > 0
        assert shapes == {"ellipse", "rect"}


@st.composite
def edge_masks(draw, edge):
    """(mask, magnitude, seed): a random mask on a small frame whose set
    pixels touch the frame's ``edge`` side."""
    h, w = draw(st.integers(4, 32)), draw(st.integers(4, 32))
    y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    y1, x1 = draw(st.integers(y0 + 1, h)), draw(st.integers(x0 + 1, w))
    y0, y1, x0, x1 = {"top": (0, y1, x0, x1), "bottom": (y0, h, x0, x1),
                      "left": (y0, y1, 0, x1), "right": (y0, y1, x0, w)}[edge]
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.zeros((h, w), dtype=bool)
    bits[y0:y1, x0:x1] = np.random.default_rng(seed).random(
        (y1 - y0, x1 - x0)) < density
    # one set pixel on the edge itself
    y, x = {"top": (0, x0), "bottom": (h - 1, x0), "left": (y0, 0),
            "right": (y0, w - 1)}[edge]
    bits[y, x] = True
    return bits, draw(st.integers(0, 8)), seed


class TestWindowPerturbation:
    @pytest.mark.parametrize("edge", ["top", "bottom", "left", "right"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_grown_window_equals_cropped_frame(self, edge, data):
        bits, magnitude, seed = data.draw(edge_masks(edge))
        h, w = bits.shape
        box = tight_bbox(bits)
        grown = BBox(max(0, box.x0 - 2 * magnitude),
                     max(0, box.y0 - 2 * magnitude),
                     min(w, box.x1 + 2 * magnitude),
                     min(h, box.y1 + 2 * magnitude))
        full_rng = np.random.default_rng(seed)
        window_rng = np.random.default_rng(seed)
        full = perturb_ref(full_rng, bits, magnitude)
        window = _perturb(window_rng, bits[grown.slices], magnitude)
        assert np.array_equal(window, full[grown.slices])
        outside = full.copy()
        outside[grown.slices] = False
        assert not outside.any()
        # the same draws were taken
        assert full_rng.random() == window_rng.random()


def test_each_mask_is_decoded_once(monkeypatch):
    # at most once, and now never: every instance, the later scales' too,
    # is built by the checked constructor, which decodes nothing, and the
    # later scales share the first scale's mask
    import segfuse.masks as masks
    calls = []
    post_init = masks.MaskInstance.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    def decode(*args, **kwargs):
        raise AssertionError("a mask was decoded")

    monkeypatch.setattr(masks.MaskInstance, "__post_init__", counted)
    monkeypatch.setattr(masks, "rle_decode", decode)
    bundle = generate(3, objects=4, models=3, scales=(0.25, 0.5, 1.0))
    assert len(calls) == len(bundle.instances) + len(bundle.ground_truth)
    per_scale = len(bundle.instances) // 3
    first, later = bundle.instances[:per_scale], bundle.instances[per_scale:]
    for k, inst in enumerate(later):
        twin = first[k % per_scale]
        assert inst.mask is twin.mask and inst.area == twin.area
        assert (inst.scale, inst.uid) == ((0.5, 1.0)[k // per_scale],
                                          per_scale + k)


def test_traced_peak_stays_within_eight_logit_frames():
    # one 5-channel float32 logit frame at 512x512 is 5.0 MiB; whole-frame
    # masks would hold every component of every object and model at once
    frame = 512 * 512 * 5 * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        generate(2, objects=16, models=3, height=512, width=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 8 * frame
