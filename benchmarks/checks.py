"""Output digests and the invariants every command's outputs must satisfy.

The invariants hold for any synth seed: synth's model ``m0`` is exact, AP is
a fraction, weight vectors are convex, labels are component ids.  A check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from segfuse.errors import SegfuseError
from segfuse.formats import load_manifest, load_tensor

EXACT_MODEL = "m0"
N_LABELS = 5  # background + four components


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(paths) -> dict[str, str]:
    """sha256 per file, keyed by file name; missing files map to ``None``."""
    return {p.name: (sha256(p) if p.is_file() else None) for p in paths}


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _weights_problems(records: list, where: str) -> list[str]:
    out = []
    for rec in records:
        total = math.fsum(rec["weights"].values())
        if abs(total - 1.0) > 1e-9:
            out.append(f"{where}: weights of group {rec['group']!r} at scale "
                       f"{rec['scale']} sum to {total!r}")
    return out


def _ap_problems(records: list, where: str) -> list[str]:
    return [f"{where}: AP {r['ap']!r} of {r['model']}/{r['group']} outside [0, 1]"
            for r in records if not (0.0 <= r["ap"] <= 1.0)]


def _reloads(path: Path) -> list[str]:
    try:
        load_manifest(path)
    except SegfuseError as e:
        return [f"{path.name} does not reload: {e}"]
    return []


def check_fuse(outputs: tuple[Path, ...]) -> list[str]:
    problems = []
    for p in outputs:
        if p.name.startswith("fused_"):
            problems += _reloads(p)
        else:
            doc = json.loads(p.read_text(encoding="utf-8"))
            problems += _weights_problems(doc["records"], p.name)
    return problems


def check_evaluate(outputs: tuple[Path, ...]) -> list[str]:
    (path,) = outputs
    records = json.loads(path.read_text(encoding="utf-8"))["records"]
    problems = _ap_problems(records, path.name)
    groups = {(r["scale"], r["mode"], r["group"]) for r in records}
    exact = {(r["scale"], r["mode"], r["group"]): r["ap"]
             for r in records if r["model"] == EXACT_MODEL}
    for key in sorted(groups, key=str):
        if exact.get(key) != 1.0:
            problems.append(f"{path.name}: exact model {EXACT_MODEL} has AP "
                            f"{exact.get(key)!r} in group {key}")
    return problems


def check_pipeline(outputs: tuple[Path, ...]) -> list[str]:
    by_name = {p.name: p for p in outputs}
    problems = _reloads(by_name["instances.json"])
    labels = load_tensor(by_name["labels.tns"])
    if not ((labels >= 0) & (labels < N_LABELS) & (labels == labels.round())).all():
        problems.append(f"labels.tns holds values outside 0..{N_LABELS - 1}")
    report = json.loads(by_name["report.json"].read_text(encoding="utf-8"))
    problems += _weights_problems(report["weights"], "report.json")
    problems += _ap_problems(report["ap"] or [], "report.json")
    return problems


CHECKS = {"fuse": check_fuse, "evaluate": check_evaluate,
          "pipeline": check_pipeline}


def check(kind: str, outputs: tuple[Path, ...]) -> list[str]:
    missing = [p.name for p in outputs if not p.is_file()]
    if missing:
        return [f"missing outputs: {missing}"]
    try:
        return CHECKS[kind](outputs)
    except (OSError, ValueError, KeyError, TypeError, SegfuseError) as e:
        return [f"unreadable outputs: {type(e).__name__}: {e}"]
