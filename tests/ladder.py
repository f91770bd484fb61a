"""Byte ladder: every CLI command on eight synthetic fixtures, as digests.

Runs ``segfuse synth``, ``fuse``, ``pipeline`` and ``evaluate`` in process
on eight fixtures into a temporary directory and prints
``{relative path: sha256}`` of every file written, as sorted JSON.  Run it
on two commits and diff the results; any output byte that moved shows up
as a changed line::

    PYTHONPATH=src python3 tests/ladder.py > digests.json

pytest does not collect this file.  The 640x640 fixture is the
``pipeline_ap`` benchmark geometry; the whole ladder takes well under a
minute on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from segfuse.cli import main

# name -> synth arguments; image seed 2, calibration seed 3 for every one
FIXTURES = {
    "s1": ["--scales", "1.0"],
    "s05": ["--scales", "0.5", "1.0"],
    "s025": ["--scales", "0.25", "0.5", "1.0"],
    "o12_s05": ["--objects", "12", "--scales", "0.5", "1.0"],
    "o12_s025": ["--objects", "12", "--scales", "0.25", "0.5", "1.0"],
    "small": ["--height", "64", "--width", "64", "--objects", "9",
              "--models", "4", "--perturb", "4"],
    "ap640": ["--height", "640", "--width", "640", "--objects", "16",
              "--models", "4", "--scales", "0.5", "1.0"],
    "s512": ["--height", "512", "--width", "512", "--scales", "0.25", "0.5",
             "1.0"],
}

# name -> fuse arguments after the manifest
FUSES = {
    "fuse_both": ["--grouping", "both", "--calib", "{calib}"],
    "fuse_uniform": ["--grouping", "vertical", "--weights", "uniform"],
    "fuse_minmax": ["--grouping", "horizontal", "--calib", "{calib}",
                    "--normalization", "minmax"],
}

# name -> pipeline arguments after the manifest
PIPELINES = {
    "pipe": ["--calib", "{calib}"],
    "pipe_w2": ["--calib", "{calib}", "--workers", "2"],
    "pipe_uniform": ["--weights", "uniform"],
    "pipe_beta": ["--calib", "{calib}", "--beta-const", "0.5"],
    "pipe_x25": ["--calib", "{calib}", "--expand-factor", "2.5"],
    "pipe_x30_minmax": ["--calib", "{calib}", "--expand-factor", "3.0",
                        "--normalization", "minmax"],
}

# name -> (predictions, ground truth), relative to the fixture directory
EVALUATES = {
    "eval_self.json": ("image/manifest.json", "image/manifest.json"),
    "eval_vertical.json": ("fuse_both/fused_vertical.json",
                           "image/manifest.json"),
    "eval_horizontal.json": ("fuse_both/fused_horizontal.json",
                             "image/manifest.json"),
    "eval_uniform.json": ("fuse_uniform/fused_vertical.json",
                          "image/manifest.json"),
    "eval_pipe.json": ("pipe/instances.json", "image/manifest.json"),
}


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"segfuse {' '.join(argv)} exited {code}")


def run_fixture(root: Path, geometry: list[str]) -> None:
    """Every command of the ladder on one fixture, written under ``root``."""
    image = root / "image"
    calib = root / "calib"
    _run(["synth", "--seed", "2", *geometry, "--out-dir", str(image)])
    _run(["synth", "--seed", "3", *geometry, "--out-dir", str(calib)])
    manifest = str(image / "manifest.json")
    fill = {"calib": str(calib / "manifest.json")}
    for name, args in FUSES.items():
        _run(["fuse", manifest, *[a.format(**fill) for a in args],
              "--out-dir", str(root / name)])
    for name, args in PIPELINES.items():
        _run(["pipeline", manifest, *[a.format(**fill) for a in args],
              "--out-dir", str(root / name)])
    for name, (pred, gt) in EVALUATES.items():
        _run(["evaluate", str(root / pred), str(root / gt),
              "--out", str(root / "evaluate" / name)])


def digests(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main_ladder() -> int:
    with tempfile.TemporaryDirectory(prefix="segfuse-ladder-") as tmp:
        root = Path(tmp)
        for name, geometry in FIXTURES.items():
            run_fixture(root / name, geometry)
        json.dump(digests(root), sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main_ladder())
