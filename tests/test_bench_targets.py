"""Every stage the benchmark tracer wraps must exist in the engine, and
take each argument the tracer reads where the tracer reads it.

The tracer in ``benchmarks/tracer.py`` rebinds ``(module, attribute)`` pairs
listed in its ``TARGETS`` table, and its hooks read call arguments through
``_arg(args, kwargs, position, name)``.  Its source is parsed, not
imported, so this test only reads ``benchmarks/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
TREE = ast.parse(TRACER.read_text(encoding="utf-8"))


def _rows() -> list[ast.Tuple]:
    for node in TREE.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return node.value.elts
    raise AssertionError(f"no TARGETS table in {TRACER}")


def _targets() -> list[tuple[str, str]]:
    return [(row.elts[0].value, row.elts[1].value) for row in _rows()]


def _reads() -> dict[tuple[str, str], set[tuple[int, str]]]:
    """The ``(position, name)`` pairs the tracer reads from each target's
    arguments: through the row's hook, a hook factory's arguments, or a
    method the tracer calls for that row's span name."""
    defs = {n.name: n for n in ast.walk(TREE) if isinstance(n, ast.FunctionDef)}

    def reads(fn, bound=None):
        def value(node):
            return bound[node.id] if isinstance(node, ast.Name) else node.value
        return {(value(c.args[2]), value(c.args[3])) for c in ast.walk(fn)
                if isinstance(c, ast.Call) and getattr(c.func, "id", "") == "_arg"}

    by_span = {}  # `if name == "<span>": ... self.<method>(...)`
    for node in ast.walk(TREE):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and getattr(node.test.left, "id", "") == "name"):
            for c in ast.walk(node):
                if (isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                        and c.func.attr in defs):
                    by_span[node.test.comparators[0].value] = reads(
                        defs[c.func.attr])
    out = {}
    for row in _rows():
        module, attr, span, hook = row.elts
        got = set(by_span.get(span.value, ()))
        if isinstance(hook, ast.Name):
            got |= reads(defs[hook.id])
        elif isinstance(hook, ast.Call):
            factory = defs[hook.func.id]
            got |= reads(factory, {a.arg: v.value for a, v in
                                   zip(factory.args.args, hook.args)})
        if got:
            out[(module.value, attr.value)] = got
    return out


def _resolve(module, attr):
    owner = importlib.import_module(f"segfuse.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_targets_table_is_found():
    assert ("pipeline", "_fuse_global") in _targets()


@pytest.mark.parametrize("module, attr", _targets())
def test_target_resolves(module, attr):
    assert callable(_resolve(module, attr))


def test_argument_reads_are_found():
    reads = _reads()
    assert reads[("formats", "load_tensor")] == {(0, "path")}
    assert reads[("formats", "write_overlay")] == {(3, "path")}
    assert reads[("fusion", "weighted_average")] == {(0, "arrays")}
    assert reads[("metrics", "group_ap")] == {(0, "bundle")}
    assert reads[("pipeline", "_pmap")] == {(0, "fn"), (1, "items"),
                                            (2, "workers")}


@pytest.mark.parametrize("module, attr, position, name", sorted(
    (*target, *read) for target, reads in _reads().items() for read in reads))
def test_read_argument_is_at_its_position(module, attr, position, name):
    params = list(inspect.signature(_resolve(module, attr)).parameters)
    assert params[position:position + 1] == [name], params
