"""Metamorphic relations: what must not change between two CLI runs.

Each relation runs the commands twice, once on a fixture as it is and once
with something changed that must move no output byte, and compares the
digests of every file written.
"""

import json
import random
from collections import Counter

import pytest

from segfuse import grids

from ladder import _run, digests

# synth arguments of the band-budget fixtures: two bands of an odd width at
# the default budget, and three scales of many small objects
BAND_FIXTURES = {
    "h130": ["--height", "130", "--width", "97", "--scales", "0.5", "1.0"],
    "small": ["--height", "64", "--width", "64", "--objects", "9",
              "--models", "4", "--perturb", "4", "--scales", "0.25", "0.5",
              "1.0"],
}


def _commands(root, manifest, calib):
    """``fuse --grouping both``, ``pipeline`` and ``evaluate`` of
    ``manifest``, calibrated on ``calib``, written under ``root``; returns
    their files' digests."""
    for argv in (["fuse", manifest, "--calib", calib, "--grouping", "both",
                  "--out-dir", root / "fuse"],
                 ["pipeline", manifest, "--calib", calib, "--out-dir",
                  root / "pipeline"],
                 ["evaluate", manifest, manifest, "--out",
                  root / "evaluate.json"]):
        _run([str(a) for a in argv])
    return digests(root)


def _synth(root, geometry):
    """An image (seed 2) and a calibration split (seed 3) under ``root``;
    returns their manifests."""
    for seed, name in ((2, "image"), (3, "calib")):
        _run(["synth", "--seed", str(seed), *geometry, "--out-dir",
              str(root / name)])
    return root / "image" / "manifest.json", root / "calib" / "manifest.json"


def _every_command(root, geometry):
    _commands(root, *_synth(root, geometry))
    return digests(root)


@pytest.fixture(scope="module")
def default_budget(tmp_path_factory):
    return {name: _every_command(tmp_path_factory.mktemp(name), geometry)
            for name, geometry in BAND_FIXTURES.items()}


@pytest.mark.parametrize("pixels", [1, 777, 10**9])
def test_band_budget_moves_no_byte(tmp_path, monkeypatch, default_budget,
                                   pixels):
    # bands of one row, of an odd count of rows (8 of the 97-wide grid),
    # and of the whole frame: every loop's rows are independent, so every
    # file is the default run's
    monkeypatch.setattr(grids, "_BAND_PIXELS", pixels)
    assert grids._band_rows(97) == {1: 1, 777: 8, 10**9: 10**9 // 97}[pixels]
    files = 0
    for name, geometry in BAND_FIXTURES.items():
        want = default_budget[name]
        got = _every_command(tmp_path / name, geometry)
        assert sorted(got) == sorted(want)
        assert [path for path in got if got[path] != want[path]] == []
        files += len(got)
    assert files == 96


def _reordered(manifest, order):
    """A copy of ``manifest`` beside it, so its tensor paths still resolve,
    with its ``models`` list reversed and its instance records in
    ``order(records)``."""
    doc = json.loads(manifest.read_text())
    doc["models"].reverse()
    doc["instances"] = order(doc["instances"])
    path = manifest.with_name("reordered.json")
    path.write_text(json.dumps(doc))
    return path, doc["instances"]


def test_record_order_moves_no_byte_when_ties_keep_their_order(tmp_path):
    # the matcher ranks predictions by score and a tie by record position,
    # so records may move in any order that keeps tied scores in their
    # relative order: a stable sort by descending score.  The ground-truth
    # records, whose echo keeps input order, stay as they are
    manifest, calib = _synth(tmp_path / "fx", [
        "--objects", "9", "--models", "4", "--perturb", "4",
        "--scales", "0.5", "1.0"])
    records = json.loads(manifest.read_text())["instances"]
    reordered, moved = _reordered(manifest, lambda recs: sorted(
        recs, key=lambda r: -r["score"]))
    assert moved != records
    # 76 records tie with another of their scale, model and component,
    # the vertical group the matcher ranks
    ranked = Counter((r["scale"], r["model"], r["component"], r["score"])
                     for r in records)
    assert sum(n for n in ranked.values() if n > 1) == 76
    want = _commands(tmp_path / "as_is", manifest, calib)
    got = _commands(tmp_path / "reordered", reordered, calib)
    assert len(want) == 10 and sorted(got) == sorted(want)
    assert [path for path in got if got[path] != want[path]] == []


def _shuffled_ground_truth(manifest, rng):
    """A copy of ``manifest`` beside it with its ground-truth records in an
    order ``rng`` picks, which differs from the input order."""
    doc = json.loads(manifest.read_text())
    records = list(doc["ground_truth"])
    while records == doc["ground_truth"]:
        rng.shuffle(records)
    doc["ground_truth"] = records
    path = manifest.with_name("shuffled.json")
    path.write_text(json.dumps(doc))
    return path


def _echo_commands(root, manifest, calib):
    """``_commands``, then ``evaluate`` of the pipeline's ``instances.json``
    and of ``fused_vertical.json`` against ``manifest``; returns the digests
    of every file written."""
    _commands(root, manifest, calib)
    for pred in ("pipeline/instances.json", "fuse/fused_vertical.json"):
        _run(["evaluate", str(root / pred), str(manifest), "--out",
              str(root / "evaluate" / pred.replace("/", "_"))])
    return digests(root)


def test_shuffled_ground_truth_moves_only_the_echo(tmp_path):
    # an IoU tie goes to the earlier ground-truth record, but on this
    # fixture no such tie decides a match, so the order of the ground-truth
    # records moves no AP, weight or pixel; the ground-truth echo of
    # fused_*.json and instances.json keeps input order
    manifest, calib = _synth(tmp_path / "fx", [
        "--objects", "9", "--models", "4", "--perturb", "4",
        "--scales", "0.5", "1.0"])
    rng = random.Random(0)
    shuffled = [_shuffled_ground_truth(m, rng) for m in (manifest, calib)]
    want = _echo_commands(tmp_path / "as_is", manifest, calib)
    got = _echo_commands(tmp_path / "shuffled", *shuffled)
    assert len(want) == 12 and sorted(got) == sorted(want)
    moved = [path for path in got if got[path] != want[path]]
    assert sorted(moved) == ["fuse/fused_horizontal.json",
                             "fuse/fused_vertical.json",
                             "pipeline/instances.json"]
    for path in moved:
        a, b = (json.loads((tmp_path / run / path).read_text())
                for run in ("as_is", "shuffled"))
        echo = [sorted(map(json.dumps, doc.pop("ground_truth")))
                for doc in (a, b)]
        assert echo[0] == echo[1] and a == b
