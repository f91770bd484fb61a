"""Matching, average precision, grouped AP tables, AP normalization."""

import itertools

import pytest

from segfuse.bundle import PredictionBundle
from segfuse.errors import DataValidationError
from segfuse.metrics import (ApTable, average_precision, group_ap,
                             match_predictions, normalize_ap)

from conftest import block_mask, make_instance
from reference import staircase_ap


def flags_of(entries):
    return [tp for _, _, tp in entries]


class TestMatchPredictions:
    def test_empty_predictions(self):
        gt = [make_instance(block_mask(4, 4, 0, 2, 0, 2), model_id="gt")]
        m = match_predictions([], gt, 0.6)
        assert m == []
        assert average_precision(flags_of(m), len(gt)) == 0.0

    def test_exact_match_is_tp(self):
        bits = block_mask(4, 4, 0, 2, 0, 2)
        m = match_predictions([make_instance(bits)],
                              [make_instance(bits, model_id="gt")], 0.6)
        assert m[0][2] is True
        assert average_precision(flags_of(m), 1) == 1.0

    def test_greedy_consumes_best_first(self):
        # two predictions on one gt: the higher-score one wins, other is FP
        gt_bits = block_mask(6, 6, 0, 4, 0, 4)
        close = gt_bits.copy()
        close[3, 3] = False  # IoU 15/16
        preds = [make_instance(gt_bits, score=0.9, uid=0),
                 make_instance(close, score=0.8, uid=1)]
        m = match_predictions(preds, [make_instance(gt_bits, model_id="gt")], 0.6)
        assert flags_of(m) == [True, False]

    def test_component_constraint(self):
        bits = block_mask(4, 4, 0, 2, 0, 2)
        preds = [make_instance(bits, component="meat")]
        gts = [make_instance(bits, component="shell", model_id="gt")]
        m = match_predictions(preds, gts, 0.6)
        assert m[0][2] is False

    def test_below_threshold_is_fp(self):
        pred = make_instance(block_mask(6, 6, 0, 2, 0, 2))
        gt = make_instance(block_mask(6, 6, 0, 2, 1, 3), model_id="gt")
        m = match_predictions([pred], [gt], 0.6)  # IoU = 2/6
        assert m[0][2] is False

    def test_no_double_assignment(self):
        bits = block_mask(4, 4, 0, 2, 0, 2)
        preds = [make_instance(bits, score=0.9, uid=0),
                 make_instance(bits, score=0.8, uid=1),
                 make_instance(bits, score=0.7, uid=2)]
        gts = [make_instance(bits, model_id="gt"),
               make_instance(bits, model_id="gt")]
        m = match_predictions(preds, gts, 0.6)
        assert sum(flags_of(m)) == 2

    def test_threshold_validated(self):
        with pytest.raises(DataValidationError):
            match_predictions([], [], 0.0)

    def test_mixed_grids_rejected(self):
        small = make_instance(block_mask(4, 4, 0, 2, 0, 2))
        big = make_instance(block_mask(6, 6, 0, 2, 0, 2), model_id="gt")
        with pytest.raises(DataValidationError):
            match_predictions([small], [big], 0.6)


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([True], 1) == 1.0

    def test_no_predictions_some_gt(self):
        assert average_precision([], 2) == 0.0

    def test_no_gt_no_predictions_is_one(self):
        assert average_precision([], 0) == 1.0

    def test_no_gt_with_predictions_is_zero(self):
        assert average_precision([False, False], 0) == 0.0

    def test_hand_worked_staircase(self):
        # TP, FP, TP over 2 gts: 0.5 * 1 + 0.5 * (2/3)
        ap = average_precision([True, False, True], 2)
        assert ap == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-12)
        assert ap == pytest.approx(0.8333, abs=5e-5)

    def test_matches_staircase_oracle_exhaustively(self):
        for n in range(0, 7):
            for flags in itertools.product([False, True], repeat=n):
                for gt_count in range(0, 4):
                    if sum(flags) > gt_count:  # cannot arise from matching
                        with pytest.raises(DataValidationError,
                                           match="more true positives"):
                            average_precision(list(flags), gt_count)
                        continue
                    got = average_precision(list(flags), gt_count)
                    want = staircase_ap(list(flags), gt_count)
                    assert abs(got - want) <= 1e-12, (flags, gt_count)

    def test_trailing_fp_never_raises_ap(self):
        base = average_precision([True, True, False], 3)
        worse = average_precision([True, True, False, False], 3)
        assert worse <= base

    def test_score_rescaling_invariance(self, rng):
        # prediction k covers column pair k; a ground truth sits under some
        for _ in range(50):
            n = int(rng.integers(1, 7))
            hits = [bool(b) for b in rng.integers(0, 2, n)]
            scores = [float(s) for s in rng.uniform(0.01, 1.0, n)]
            gts = [make_instance(block_mask(2, 2 * n, 0, 2, 2 * k, 2 * k + 2),
                                 model_id="gt")
                   for k in range(n) if hits[k]]
            gt_count = max(len(gts), 1)

            def ap(scale):
                preds = [make_instance(block_mask(2, 2 * n, 0, 2, 2 * k, 2 * k + 2),
                                       score=s * scale, uid=k)
                         for k, s in enumerate(scores)]
                return average_precision(
                    flags_of(match_predictions(preds, gts, 0.6)), gt_count)

            assert ap(1.0) == ap(1.0 / 3.0)

    def test_negative_gt_count_rejected(self):
        with pytest.raises(DataValidationError, match="negative"):
            average_precision([], -1)

    def test_more_true_positives_than_ground_truths_rejected(self):
        # each true positive consumes a ground truth: two cannot share one
        with pytest.raises(DataValidationError, match="more true positives"):
            average_precision([True, True], 1)


def _two_model_bundle():
    h = w = 8
    shell = block_mask(h, w, 0, 6, 0, 6)
    meat = block_mask(h, w, 1, 5, 1, 5)
    gonad = block_mask(h, w, 2, 4, 2, 4)
    muscle = block_mask(h, w, 3, 4, 3, 4)
    comps = {"shell": shell, "meat": meat, "gonad": gonad, "muscle": muscle}
    gts = [make_instance(bits, component=c, model_id="gt", uid=k)
           for k, (c, bits) in enumerate(comps.items())]
    instances = []
    uid = 0
    for model in ("m0", "m1"):
        for c, bits in comps.items():
            if model == "m1" and c == "gonad":
                continue  # m1 misses gonads entirely
            instances.append(make_instance(bits, component=c, model_id=model,
                                           score=0.9, uid=uid))
            uid += 1
    bundle = PredictionBundle(image_id="img", height=h, width=w,
                              models=("m0", "m1"), scales=(1.0,),
                              instances=tuple(instances), ground_truth=tuple(gts))
    return bundle, gts


class TestGroupAp:
    def test_perfect_predictions(self):
        bundle, gts = _two_model_bundle()
        table = group_ap(bundle, gts, "vertical", 0.6)
        for comp in ("shell", "meat", "muscle"):
            assert table.get("m0", comp) == 1.0
            assert table.get("m1", comp) == 1.0
        assert table.get("m0", "gonad") == 1.0

    def test_missing_component_scores_zero(self):
        bundle, gts = _two_model_bundle()
        table = group_ap(bundle, gts, "vertical", 0.6)
        assert table.get("m1", "gonad") == 0.0

    def test_matches_per_group_average_precision(self):
        bundle, gts = _two_model_bundle()
        table = group_ap(bundle, gts, "vertical", 0.6)
        for model in bundle.models:
            for comp in ("shell", "meat", "gonad", "muscle"):
                preds = bundle.instances_for(model=model, component=comp)
                comp_gts = [g for g in gts if g.component == comp]
                want = average_precision(
                    flags_of(match_predictions(preds, comp_gts, 0.6)),
                    len(comp_gts))
                assert table.get(model, comp) == want

    def test_horizontal_mode(self):
        bundle, gts = _two_model_bundle()
        table = group_ap(bundle, gts, "horizontal", 0.6)
        assert table.get("m0", 0) == 1.0
        assert table.get("m1", 0) == pytest.approx(
            average_precision(flags_of(match_predictions(
                bundle.instances_for(model="m1", object_id=0), gts, 0.6)),
                len(gts)))

    def test_missing_entry_raises(self):
        table = ApTable({("m0", "shell"): 0.5})
        with pytest.raises(DataValidationError):
            table.get("m0", "meat")


class TestNormalizeAp:
    def test_all_equal_minmax_maps_to_ones(self):
        assert normalize_ap([0.5, 0.5, 0.5], "minmax") == [1.0, 1.0, 1.0]

    def test_fraction_is_identity(self):
        values = [0.1, 0.9, 0.4]
        assert normalize_ap(values, "fraction") == values

    def test_minmax_hand_worked(self):
        out = normalize_ap([0.9119, 0.9176, 0.9179], "minmax")
        eps = 1e-6
        assert out[0] == pytest.approx(eps, abs=1e-12)
        assert out[1] == pytest.approx(0.95 + eps, abs=1e-12)
        assert out[2] == pytest.approx(1.0 + eps, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            normalize_ap([], "fraction")

    def test_out_of_range_rejected(self):
        with pytest.raises(DataValidationError):
            normalize_ap([1.2], "fraction")
