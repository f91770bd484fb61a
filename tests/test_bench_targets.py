"""Every stage the benchmark tracer wraps must exist in the engine.

The tracer in ``benchmarks/tracer.py`` rebinds ``(module, attribute)`` pairs
listed in its ``TARGETS`` table.  Its source is parsed, not imported, so this
test only reads ``benchmarks/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return [(row.elts[0].value, row.elts[1].value)
                    for row in node.value.elts]
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_targets_table_is_found():
    assert ("pipeline", "_fuse_global") in _targets()


@pytest.mark.parametrize("module, attr", _targets())
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"segfuse.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
