"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Criteria are property-based plus fixture replays at desk scale; stated
tolerances and runtime budgets are asserted as written.
"""

import contextlib
import io
import itertools
import time

import numpy as np
import pytest

from segfuse.attention import (difference_matrix, fuse_global_local,
                               local_attention, row_normalize)
from segfuse.cli import main
from segfuse.config import PipelineConfig
from segfuse.formats import load_tensor, save_tensor
from segfuse.fusion import (FusionWeights, compute_weights, fuse_logits,
                            weighted_average)
from segfuse.grids import AttentionMap, LogitMap, bilinear_resize
from segfuse.hierarchy import run_inference_chain
from segfuse.masks import BBox, expand_bbox, rle_decode, rle_encode
from segfuse.metrics import (ApTable, average_precision, group_ap,
                             match_predictions)
from segfuse.pipeline import _object_gate, run_fuse
from segfuse.synth import generate

from conftest import block_mask, fused_frame, make_instance
from reference import (chain_ref, fuse_global_local_ref, fuse_logits_ref,
                       object_gate_ref, staircase_ap)


@contextlib.contextmanager
def criterion(num: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)")


def test_01_attention_rows_are_stochastic():
    rng = np.random.default_rng(20240801)
    factors = (0.5, 1.0, 2.0)
    with criterion(1, "attention stochasticity", budget_s=1.0):
        for k in range(1000):
            rows = int(rng.integers(1, 33))
            cols = int(rng.integers(1, 33))
            d = np.abs(rng.normal(scale=3.0, size=(rows, cols)))
            beta = local_attention(d, factors[k % 3])
            assert np.abs(beta.sum(axis=1) - 1.0).max() <= 1e-9
            again = row_normalize(beta)
            assert np.abs(again - beta).max() <= 1e-12


def test_02_zero_difference_gives_uniform_rows():
    rng = np.random.default_rng(7)
    with criterion(2, "zero-difference uniformity"):
        for _ in range(50):
            rows = int(rng.integers(1, 20))
            cols = int(rng.integers(1, 20))
            g = rng.normal(size=(rows, cols))
            beta = local_attention(difference_matrix(g, g.copy()), 1.0)
            assert np.abs(beta - 1.0 / cols).max() <= 1e-12


def test_03_all_fusions_are_convex():
    rng = np.random.default_rng(99)
    pixels = 0
    with criterion(3, "convexity of all fusions", budget_s=1.0):
        while pixels < 10_000:
            # model-weighted averaging
            arrays = [rng.uniform(size=(10, 10)) for _ in range(3)]
            coeffs_raw = rng.uniform(0.05, 1.0, 3)
            coeffs = list(coeffs_raw / coeffs_raw.sum())
            out = weighted_average(arrays, coeffs)
            lo = np.minimum(np.minimum(arrays[0], arrays[1]), arrays[2])
            hi = np.maximum(np.maximum(arrays[0], arrays[1]), arrays[2])
            assert (out >= lo).all() and (out <= hi).all()
            pixels += out.size

            # frame/object blend with non-overlapping locals
            g = rng.normal(size=(8, 8, 2)).astype(np.float32)
            p1 = rng.normal(size=(3, 8, 2)).astype(np.float32)
            p2 = rng.normal(size=(4, 8, 2)).astype(np.float32)
            beta = rng.uniform(size=(8, 8)).astype(np.float32)
            fused = fuse_global_local(
                LogitMap.from_array(g),
                [(LogitMap.from_array(p1), BBox(0, 0, 8, 3)),
                 (LogitMap.from_array(p2), BBox(0, 4, 8, 8))],
                AttentionMap.from_array(beta))
            lsum = np.zeros_like(g)
            lsum[0:3] = p1
            lsum[4:8] = p2
            assert (fused.data >= np.minimum(g, lsum)).all()
            assert (fused.data <= np.maximum(g, lsum)).all()
            pixels += fused.data.size

            # adjacent-scale blend
            lower = rng.normal(size=(4, 4, 2)).astype(np.float32)
            alpha = rng.uniform(size=(4, 4)).astype(np.float32)
            higher = rng.normal(size=(8, 8, 2)).astype(np.float32)
            stepped = run_inference_chain([
                (LogitMap.from_array(lower), AttentionMap.from_array(alpha)),
                (LogitMap.from_array(higher), None)])
            up = bilinear_resize(LogitMap.from_array(lower), 8, 8).data
            assert (stepped.data >= np.minimum(up, higher)).all()
            assert (stepped.data <= np.maximum(up, higher)).all()
            pixels += stepped.data.size


def test_04_scalar_oracle_reproduces_engine_bitwise():
    rng = np.random.default_rng(4)
    with criterion(4, "oracle equivalence", budget_s=1.0):
        # model averaging: 3 models on an 8x8 frame
        stacks = [rng.normal(scale=4.0, size=(8, 8, 5)).astype(np.float32)
                  for _ in range(3)]
        table = ApTable({(f"m{i}", "shell"): float(a)
                         for i, a in enumerate(rng.uniform(0.3, 1.0, 3))})
        w = compute_weights(table, "shell")
        coeffs = [v for _, v in w.weights]
        maps = {f"m{i}": LogitMap.from_array(s) for i, s in enumerate(stacks)}
        assert np.array_equal(fuse_logits(maps, [w] * 5).data,
                              fuse_logits_ref(stacks, coeffs))

        # frame/object blend with 2 locals
        g = rng.normal(scale=3.0, size=(8, 8, 5)).astype(np.float32)
        p1 = rng.normal(scale=3.0, size=(3, 4, 5)).astype(np.float32)
        p2 = rng.normal(scale=3.0, size=(4, 3, 5)).astype(np.float32)
        beta = rng.uniform(size=(8, 8)).astype(np.float32)
        boxes = [BBox(0, 0, 4, 3), BBox(4, 4, 7, 8)]
        engine = fuse_global_local(
            LogitMap.from_array(g),
            [(LogitMap.from_array(p1), boxes[0]),
             (LogitMap.from_array(p2), boxes[1])],
            AttentionMap.from_array(beta))
        assert np.array_equal(engine.data,
                              fuse_global_local_ref(g, [(p1, boxes[0]),
                                                        (p2, boxes[1])], beta))

        # one object's attention gate over 6x5 pixels, some rows in agreement
        g_rows = rng.normal(scale=3.0, size=(30, 5))
        l_rows = g_rows + rng.normal(size=(30, 5))
        l_rows[::4] = g_rows[::4]
        for factor in (0.5, 1.0, 4.0):
            assert (_object_gate(g_rows, l_rows, factor).tobytes()
                    == object_gate_ref(g_rows, l_rows, factor).tobytes())

        # 3-scale chain ending on the 8x8 frame
        arrays = [rng.normal(scale=2.0, size=(2, 2, 5)).astype(np.float32),
                  rng.normal(scale=2.0, size=(4, 4, 5)).astype(np.float32),
                  rng.normal(scale=2.0, size=(8, 8, 5)).astype(np.float32)]
        alphas = [rng.uniform(size=(2, 2)).astype(np.float32),
                  rng.uniform(size=(4, 4)).astype(np.float32), None]
        levels = [(LogitMap.from_array(a),
                   None if al is None else AttentionMap.from_array(al))
                  for a, al in zip(arrays, alphas)]
        engine_chain = run_inference_chain(levels)
        assert (engine_chain.data.tobytes()
                == chain_ref(list(zip(arrays, alphas))).tobytes())


def _ap_candidates():
    """3 disjoint gts on a 6x6 grid plus a pool of varied predictions."""
    g1 = block_mask(6, 6, 0, 2, 0, 2)
    g2 = block_mask(6, 6, 0, 2, 4, 6)
    g3 = block_mask(6, 6, 4, 6, 0, 2)
    gts = [make_instance(g, model_id="gt", uid=k)
           for k, g in enumerate((g1, g2, g3))]
    near_g1 = block_mask(6, 6, 0, 2, 0, 3)     # IoU 4/6 >= 0.6
    low_g2 = block_mask(6, 6, 0, 3, 4, 6)      # IoU 4/6 >= 0.6
    poor_g1 = block_mask(6, 6, 1, 3, 0, 2)     # IoU 2/6 < 0.6
    stray = block_mask(6, 6, 4, 6, 4, 6)       # overlaps nothing
    pool_bits = [g1, g2, g3, near_g1, low_g2, poor_g1, stray,
                 block_mask(6, 6, 2, 4, 2, 4)]
    pool = [make_instance(b, score=round(0.95 - 0.07 * k, 2), uid=k)
            for k, b in enumerate(pool_bits)]
    return pool, gts


def test_05_ap_equals_staircase_on_all_small_sets():
    with criterion(5, "AP oracle", budget_s=10.0):
        pool, gts = _ap_candidates()
        checked = 0
        for size in range(0, 7):
            for subset in itertools.combinations(pool, size):
                m = match_predictions(list(subset), gts, 0.6)
                flags = [tp for _, _, tp in m]
                got = average_precision(flags, len(gts))
                want = staircase_ap(flags, len(gts))
                assert abs(got - want) <= 1e-12
                checked += 1
        assert checked == sum(
            len(list(itertools.combinations(range(8), k))) for k in range(7))

        # the worked fixture: TP, FP, TP over 2 gts
        assert average_precision([True, False, True], 2) == pytest.approx(
            0.8333, abs=5e-5)


def test_06_published_shell_ap_weight_replay():
    with criterion(6, "weight replay on published shell APs"):
        table = ApTable({("a_r50", "shell"): 0.9119,
                         ("b_r101", "shell"): 0.9176,
                         ("c_resnext", "shell"): 0.9179})
        w = compute_weights(table, "shell", "fraction")
        values = [v for _, v in w.weights]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)
        assert values[0] < values[1] < values[2]
        assert values[0] == pytest.approx(0.33191, abs=1e-5)
        assert values[1] == pytest.approx(0.33399, abs=1e-5)
        assert values[2] == pytest.approx(0.33410, abs=1e-5)


def test_07_degenerate_identities():
    rng = np.random.default_rng(77)
    with criterion(7, "degenerate identities"):
        # single-model fusion is the identity
        bits = block_mask(8, 8, 1, 5, 2, 7)
        member = make_instance(bits, model_id="m0", score=0.8, uid=0)
        w1 = FusionWeights("shell", (("m0", 1.0),))
        assert np.array_equal(fused_frame((member,), w1),
                              bits.astype(np.float64))
        data = rng.normal(size=(6, 6, 3)).astype(np.float32)
        assert np.array_equal(
            fuse_logits({"m0": LogitMap.from_array(data)}, [w1] * 3).data,
            data)

        # alpha == 0 chain returns the finest logits bit-exactly
        finest = LogitMap.from_array(rng.normal(size=(8, 8, 3)).astype(np.float32))
        chain = [(LogitMap.full(4, 4, 3, 9.0), AttentionMap.full(4, 4, 0.0)),
                 (finest, None)]
        assert np.array_equal(run_inference_chain(chain).data, finest.data)

        # beta == 1 returns the frame logits bit-exactly
        g = LogitMap.from_array(rng.normal(size=(8, 8, 3)).astype(np.float32))
        local = (LogitMap.full(3, 3, 3, 5.0), BBox(1, 1, 4, 4))
        fused = fuse_global_local(g, [local], AttentionMap.full(8, 8, 1.0))
        assert np.array_equal(fused.data, g.data)

        # expansion factor 1.0 is the box identity
        for _ in range(20):
            x0, y0 = rng.integers(0, 20, 2)
            bw, bh = rng.integers(1, 12, 2)
            box = BBox(int(x0), int(y0), int(x0 + bw), int(y0 + bh))
            assert expand_bbox(box, 1.0, 64, 64) == box


def test_08_ap_weighted_ensemble_helps():
    with criterion(8, "ensemble-helps fixture", budget_s=5.0):
        cfg = PipelineConfig()
        bundle = generate(99, objects=5, models=3, perturb=7, height=96,
                          width=128)
        gts = bundle.ground_truth

        singles = group_ap(bundle, gts, "vertical", cfg.iou_threshold)
        weighted_bundle, _ = run_fuse(bundle, bundle, cfg, "vertical")
        uniform_bundle, _ = run_fuse(
            bundle, None, PipelineConfig(weights_mode="uniform"),
            "vertical")
        weighted = group_ap(weighted_bundle, gts, "vertical", cfg.iou_threshold)
        uniform = group_ap(uniform_bundle, gts, "vertical", cfg.iou_threshold)

        strictly_better_somewhere = False
        for comp in ("shell", "meat", "gonad", "muscle"):
            w_ap = weighted.get("ensemble", comp)
            u_ap = uniform.get("ensemble", comp)
            worst = min(singles.get(m, comp) for m in bundle.models)
            assert w_ap >= u_ap, (comp, w_ap, u_ap)
            assert w_ap >= worst, (comp, w_ap, worst)
            strictly_better_somewhere |= w_ap > u_ap
        assert strictly_better_somewhere


def _check_pipeline_determinism(tmp_path, label: str, image_args: list[str],
                                calib_args: list[str] | None, budget_s: float):
    """Three pipeline runs at workers 1, 3 and 1 on one synth fixture write
    the same bytes; ``calib_args`` None uses the image as its own
    calibration split.  The budget covers the synths and the runs."""
    with criterion(9, f"pipeline determinism ({label})", budget_s=budget_s):
        fixture = tmp_path / "fx"
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet):
            assert main(["synth", *image_args,
                         "--out-dir", str(fixture)]) == 0
            calib = fixture
            if calib_args is not None:
                calib = tmp_path / "calib"
                assert main(["synth", *calib_args,
                             "--out-dir", str(calib)]) == 0
        manifest = str(fixture / "manifest.json")
        runs = []
        for tag, workers in (("a", "1"), ("b", "3"), ("c", "1")):
            out = tmp_path / tag
            with contextlib.redirect_stdout(quiet):
                assert main(["pipeline", manifest,
                             "--calib", str(calib / "manifest.json"),
                             "--workers", workers, "--out-dir", str(out)]) == 0
            runs.append(out)
        for name in ("fused_logits.tns", "labels.tns", "overlay.ppm",
                     "instances.json", "report.json"):
            first = (runs[0] / name).read_bytes()
            assert (runs[1] / name).read_bytes() == first
            assert (runs[2] / name).read_bytes() == first


def test_09_pipeline_is_byte_deterministic(tmp_path):
    _check_pipeline_determinism(
        tmp_path, "desk", ["--seed", "31", "--objects", "3", "--height", "64",
                           "--width", "96", "--scales", "0.5", "1.0"],
        None, budget_s=5.0)


def test_09_pipeline_is_byte_deterministic_on_the_ap_geometry(tmp_path):
    # the pipeline_ap benchmark geometry: the paper's default attention
    # path, at a size the golden digests cannot pin
    geometry = ["--objects", "16", "--models", "4", "--height", "640",
                "--width", "640", "--scales", "0.5", "1.0"]
    _check_pipeline_determinism(
        tmp_path, "pipeline_ap geometry", ["--seed", "2", *geometry],
        ["--seed", "3", *geometry], budget_s=15.0)


def test_10_codec_roundtrips_are_lossless(tmp_path):
    rng = np.random.default_rng(10)
    with criterion(10, "codec laws", budget_s=2.0):
        for _ in range(1000):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            bits = rng.random((h, w)) < rng.uniform(0.05, 0.95)
            assert np.array_equal(rle_decode(rle_encode(bits)), bits)
        path = tmp_path / "t.tns"
        for _ in range(1000):
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            c = int(rng.integers(1, 4))
            data = rng.normal(scale=100.0, size=(h, w, c)).astype(np.float32)
            save_tensor(path, LogitMap.from_array(data))
            assert np.array_equal(load_tensor(path), data)
