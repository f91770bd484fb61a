"""The seeded synthetic scene generator."""

import numpy as np

from segfuse.masks import COMPONENTS, rle_decode
from segfuse.synth import generate


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
