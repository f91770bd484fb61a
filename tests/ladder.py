"""Byte ladder: every CLI command on twelve synthetic fixtures, as digests.

Runs ``segfuse synth``, ``fuse``, ``pipeline`` and ``evaluate`` in process
on twelve fixtures into a temporary directory and prints
``{relative path: sha256}`` of every file written, as sorted JSON.  Save
the digests of one commit, then check another against them::

    PYTHONPATH=src python3 tests/ladder.py > digests.json
    PYTHONPATH=src python3 tests/ladder.py --against digests.json

``--against FILE`` prints every path whose digest changed, every path
that was added and every path that is missing.  It exits 0 when every
output byte is the same and 3 on any difference.  Any other status means
that the ladder did not finish: 1 is Python's status for an uncaught
exception, and the ladder's own for a command that failed.

pytest does not collect this file.  The 640x640 fixture is the
``pipeline_ap`` benchmark geometry; the whole ladder takes well under a
minute on one core.
"""

from __future__ import annotations

import argparse
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
    # finest scales off the reference grid: upsampled, downsampled, and
    # near-equal grids that round to one size; and a canvas of two bands,
    # with an odd width
    "s025_05": ["--scales", "0.25", "0.5"],
    "s05_2": ["--scales", "0.5", "2.0"],
    "s0999": ["--scales", "0.999", "1.0"],
    "h130": ["--height", "130", "--width", "97", "--scales", "0.5", "1.0"],
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


def compare(saved: dict[str, str], now: dict[str, str]) -> list[str]:
    """One line per path whose digest changed, was added or is missing."""
    lines = []
    for path in sorted(saved.keys() | now.keys()):
        if path not in now:
            lines.append(f"missing: {path}")
        elif path not in saved:
            lines.append(f"added: {path}")
        elif saved[path] != now[path]:
            lines.append(f"changed: {path}")
    return lines


def main_ladder(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with digests saved from an earlier run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="segfuse-ladder-") as tmp:
        root = Path(tmp)
        for name, geometry in FIXTURES.items():
            run_fixture(root / name, geometry)
        now = digests(root)
    if args.against is None:
        json.dump(now, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    diffs = compare(json.loads(Path(args.against).read_text()), now)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences from {args.against} "
          f"({len(now)} files written)")
    return 3 if diffs else 0


if __name__ == "__main__":
    sys.exit(main_ladder())
