"""Adjacent-scale fusion and the coarse-to-fine chain.

A fold of one coarser level into the next finer grid is the two-level
chain ``run_inference_chain([(lower, alpha), (finer, None)])``."""

import json

import numpy as np
import pytest

from segfuse.bundle import PredictionBundle
from segfuse.cli import main
from segfuse.errors import DataValidationError, ShapeError
from segfuse.formats import save_manifest
from segfuse.grids import AttentionMap, LogitMap
from segfuse.hierarchy import run_inference_chain

from conftest import signed_zeros
from reference import chain_ref, fuse_adjacent_ref


def level(h, w, c, logit_value, alpha_value=None):
    alpha = None if alpha_value is None else AttentionMap.full(h, w, alpha_value)
    return LogitMap.full(h, w, c, logit_value), alpha


def fold(lower, alpha, finer):
    """One fold step: the two-level chain."""
    return run_inference_chain([(lower, alpha), (finer, None)])


class TestFuseAdjacentScales:
    def test_alpha_one_returns_upsampled_lower(self, rng):
        lower_data = rng.normal(size=(2, 2, 1)).astype(np.float32)
        lower = LogitMap.from_array(lower_data)
        higher = LogitMap.from_array(rng.normal(size=(4, 4, 1)).astype(np.float32))
        out = fold(lower, AttentionMap.full(2, 2, 1.0), higher)
        from segfuse.grids import bilinear_resize
        up = bilinear_resize(lower, 4, 4)
        assert np.array_equal(out.data, up.data)

    def test_alpha_zero_returns_higher_bitwise(self, rng):
        lower, alpha = level(2, 2, 1, 5.0, alpha_value=0.0)
        higher = LogitMap.from_array(rng.normal(size=(4, 4, 1)).astype(np.float32))
        out = fold(lower, alpha, higher)
        assert np.array_equal(out.data, higher.data)

    def test_constant_fields_hand_worked(self):
        lower, alpha = level(1, 1, 1, 2.0, alpha_value=0.25)
        higher = LogitMap.full(2, 2, 1, 4.0)
        out = fold(lower, alpha, higher)
        assert np.array_equal(out.data, np.full((2, 2, 1), 3.5, np.float32))

    def test_convex_between_operands(self, rng):
        lower_data = rng.normal(size=(3, 3, 2)).astype(np.float32)
        alpha = rng.uniform(size=(3, 3)).astype(np.float32)
        higher = rng.normal(size=(6, 6, 2)).astype(np.float32)
        lower = LogitMap.from_array(lower_data)
        out = fold(lower, AttentionMap.from_array(alpha),
                   LogitMap.from_array(higher))
        from segfuse.grids import bilinear_resize
        up = bilinear_resize(lower, 6, 6).data
        assert (out.data >= np.minimum(up, higher)).all()
        assert (out.data <= np.maximum(up, higher)).all()

    def test_channel_mismatch(self):
        lower, alpha = level(2, 2, 2, 1.0, alpha_value=0.5)
        with pytest.raises(ShapeError):
            fold(lower, alpha, LogitMap.zeros(4, 4, 3))

    def test_alpha_grid_must_match_lower(self):
        lower, _ = level(2, 2, 1, 1.0)
        with pytest.raises(ShapeError, match="alpha grid"):
            fold(lower, AttentionMap.full(4, 4, 0.5), LogitMap.zeros(4, 4, 1))

    def test_missing_alpha_rejected(self):
        with pytest.raises(DataValidationError, match="alpha map"):
            run_inference_chain([level(2, 2, 1, 1.0),
                                 (LogitMap.zeros(4, 4, 1), None)])


class TestRunInferenceChain:
    def test_single_scale_is_identity(self, rng):
        logits = LogitMap.from_array(rng.normal(size=(4, 4, 2)).astype(np.float32))
        assert run_inference_chain([(logits, None)]) is logits

    def test_two_scales_alpha_zero_returns_finest(self, rng):
        finest = LogitMap.from_array(rng.normal(size=(8, 8, 1)).astype(np.float32))
        chain = [level(4, 4, 1, 3.0, alpha_value=0.0), (finest, None)]
        assert np.array_equal(run_inference_chain(chain).data, finest.data)

    def test_three_scale_hand_fold(self):
        # 0.5*1 + 0.5*2 = 1.5, then 0.5*1.5 + 0.5*4 = 2.75
        chain = [level(2, 2, 1, 1.0, alpha_value=0.5),
                 level(4, 4, 1, 2.0, alpha_value=0.5),
                 level(8, 8, 1, 4.0)]
        out = run_inference_chain(chain)
        assert np.array_equal(out.data, np.full((8, 8, 1), 2.75, np.float32))

    def test_identity_alpha_scale_is_transparent(self, rng):
        # inserting a coarse scale whose alpha is 0 leaves the result unchanged
        finest_data = rng.normal(size=(8, 8, 2)).astype(np.float32)
        mid = LogitMap.from_array(rng.normal(size=(4, 4, 2)).astype(np.float32))
        mid_alpha = AttentionMap.full(4, 4, 0.7)
        base = [(mid, mid_alpha), (LogitMap.from_array(finest_data), None)]
        padded = [level(2, 2, 2, 9.0, alpha_value=0.0), *base]
        assert np.array_equal(run_inference_chain(padded).data,
                              run_inference_chain(base).data)

    @staticmethod
    def count_row_folds(monkeypatch):
        import segfuse.hierarchy as hierarchy_mod
        calls = []
        real = hierarchy_mod._fold_rows
        monkeypatch.setattr(hierarchy_mod, "_fold_rows",
                            lambda *args: calls.append(1) or real(*args))
        return calls

    @staticmethod
    def four_levels():
        sizes = ((2, 2), (4, 4), (8, 8), (16, 16))
        return [(LogitMap.full(h, w, 1, float(k)),
                 AttentionMap.full(h, w, 0.5) if k < len(sizes) - 1 else None)
                for k, (h, w) in enumerate(sizes)]

    def test_fold_count_matches_scale_count(self, monkeypatch):
        # no grid has more than one band of rows, so each step is one call
        calls = self.count_row_folds(monkeypatch)
        levels = self.four_levels()
        out = run_inference_chain(levels)
        assert out.shape == (16, 16, 1)
        assert len(calls) == len(levels) - 1

    @pytest.mark.parametrize("bad, error, match", [
        ("alpha_missing", DataValidationError,
         "^scale level 2 needs an alpha map to fuse upward$"),
        ("alpha_off_grid", ShapeError,
         r"^alpha grid \(4, 4\) != logits grid \(8, 8\)$"),
        ("channels", ShapeError, "^channel counts differ: 1 vs 2$"),
    ], ids=["alpha_missing", "alpha_off_grid", "channels"])
    def test_last_level_checked_before_any_fold(self, monkeypatch, bad,
                                                error, match):
        # the messages are those the fold raised when it checked each step
        # only as it reached it
        calls = self.count_row_folds(monkeypatch)
        levels = self.four_levels()
        logits = levels[2][0]
        if bad == "alpha_missing":
            levels[2] = (logits, None)
        elif bad == "alpha_off_grid":
            levels[2] = (logits, AttentionMap.full(4, 4, 0.5))
        else:
            levels[3] = (LogitMap.full(16, 16, 2, 3.0), None)
        with pytest.raises(error, match=match):
            run_inference_chain(levels)
        assert calls == []

    @staticmethod
    def check_against_oracle(rng, grids):
        # -0.0 planted in the logits and alphas: compared as bytes, the
        # fold must keep or flip each one as the oracle does
        arrays = [signed_zeros(rng, rng.normal(scale=2.0, size=(*g, 3))
                               .astype(np.float32), share=0.2)
                  for g in grids]
        alphas = [signed_zeros(rng, rng.uniform(size=g).astype(np.float32),
                               share=0.2) for g in grids[:-1]] + [None]
        levels = [(LogitMap.from_array(a),
                   None if al is None else AttentionMap.from_array(al))
                  for a, al in zip(arrays, alphas)]
        got = run_inference_chain(levels)
        want = chain_ref(list(zip(arrays, alphas)))
        assert got.data.tobytes() == want.tobytes()

    def test_matches_scalar_oracle_bitwise(self, rng):
        self.check_against_oracle(rng, ((4, 4), (8, 8), (16, 16)))

    # grids of each level, coarsest first: a 130 x 97 level, two bands of
    # 84 rows, folded into two bands of 42; non-dyadic ratios; equal grids,
    # as scales 0.999 and 1.0 round on a 70 x 128 frame (bands of 64 rows);
    # a 1-row coarsest level
    @pytest.mark.parametrize("grids", [
        ((130, 97), (260, 194)),
        ((5, 7), (13, 11), (30, 17)),
        ((70, 128), (70, 128)),
        ((1, 9), (6, 18)),
    ], ids=["several-bands", "non-dyadic", "equal-grids", "one-row"])
    def test_matches_scalar_oracle_bitwise_beyond_one_band(self, rng, grids):
        self.check_against_oracle(rng, grids)

    def test_empty_chain_rejected(self):
        with pytest.raises(DataValidationError):
            run_inference_chain(())

    @pytest.mark.parametrize("scales", [(1.0, 0.5), (1.0, 1.0)],
                             ids=["decreasing", "repeated"])
    def test_bundle_rejects_non_increasing_scales(self, tmp_path, capsys,
                                                  scales):
        # the bundle is the only guard on the fold's coarse-to-fine order
        with pytest.raises(DataValidationError, match="strictly increasing"):
            PredictionBundle(image_id="x", height=4, width=4, models=("m0",),
                             scales=scales, instances=())
        maps = {("m0", 0.5): LogitMap.full(2, 2, 5, 1.0),
                ("m0", 1.0): LogitMap.full(4, 4, 5, 2.0)}
        good = PredictionBundle(image_id="x", height=4, width=4,
                                models=("m0",), scales=(0.5, 1.0),
                                instances=(), logit_maps=maps)
        doc = json.loads(save_manifest(good, tmp_path / "m.json").read_text())
        doc["scales"] = list(scales)
        doc["logit_maps"] = [r for r in doc["logit_maps"]
                             if r["scale"] in scales]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["pipeline", str(bad), "--weights", "uniform",
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "strictly increasing" in err and "Traceback" not in err



class TestAdjacentOracle:
    def test_single_step_bitwise(self, rng):
        lower_logits = signed_zeros(
            rng, rng.normal(size=(3, 5, 2)).astype(np.float32), share=0.8)
        alpha = signed_zeros(rng, rng.uniform(size=(3, 5)).astype(np.float32))
        higher = signed_zeros(rng, rng.normal(size=(7, 9, 2)).astype(np.float32))
        got = fold(LogitMap.from_array(lower_logits),
                   AttentionMap.from_array(alpha), LogitMap.from_array(higher))
        assert got.data.tobytes() == fuse_adjacent_ref(lower_logits, alpha,
                                                       higher).tobytes()
