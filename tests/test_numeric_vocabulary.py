"""The numeric vocabulary of ``src/``: which numpy and math calls it makes.

The output bytes must not depend on how a library chooses to order a float
reduction or which SIMD kernel evaluates a transcendental.  So every numpy
call in ``src/`` is checked against an allow-list of elementwise arithmetic,
min/max, integer work and array construction, and every ``math`` call
against the correctly rounded ones.  Float reductions (``sum``, ``mean``,
``prod``), ``dot``, ``einsum``, ``matmul``, ``linalg`` and transcendentals
fail, as methods and as the ``@`` operator too.  The calls that are in
``src/`` today although they are outside the list are named, with the one
function that may make each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "segfuse"

NUMPY_ALLOWED = {
    # elementwise arithmetic, comparison and rounding, each correctly
    # rounded per element
    "abs", "add", "subtract", "multiply", "divmod", "floor", "clip",
    "maximum", "minimum", "isfinite",
    # order-free reductions over the whole array
    "max", "min", "count_nonzero", "flatnonzero",
    # construction, copies, gathers and types
    "arange", "array", "asarray", "ascontiguousarray", "empty",
    "empty_like", "full", "zeros", "zeros_like", "copyto", "concatenate",
    "repeat", "take", "unique", "float32", "result_type", "ndim",
    "random.default_rng",
}

MATH_ALLOWED = {"floor", "ceil", "isfinite", "sqrt"}

# method names that are float reductions or products whatever the array
FORBIDDEN_METHODS = {"sum", "mean", "prod", "std", "var", "dot", "matmul",
                     "einsum", "tensordot", "inner", "outer"}

# (module, function) -> the numpy calls outside the allow-list it may make:
# numpy's float64 exp differs between SIMD tiers; mean is a pairwise sum in
# an order of numpy's choosing; sqrt is correctly rounded but not listed
NAMED_EXCEPTIONS = {
    ("grids", "softmax_rows"): {"exp"},
    ("pipeline", "_label_instances"): {"mean"},
    ("synth", "_alpha_map"): {"sqrt"},
}


def _dotted(node: ast.AST) -> tuple[str | None, str]:
    """The root name and the dotted attribute path of a call's target."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    root = node.id if isinstance(node, ast.Name) else None
    return root, ".".join(reversed(parts))


def _calls():
    """(module, enclosing function, root, dotted path, line) of every call,
    and (module, line) of every ``@`` in ``src/``."""
    calls, matmuls = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                inner = function
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = child.name
                if isinstance(child, ast.Call):
                    root, dotted = _dotted(child.func)
                    calls.append((module, inner, root, dotted, child.lineno))
                if (isinstance(child, (ast.BinOp, ast.AugAssign))
                        and isinstance(child.op, ast.MatMult)):
                    matmuls.append((module, child.lineno))
                visit(child, inner)

        visit(ast.parse(path.read_text(), str(path)), None)
    return calls, matmuls


def test_every_numpy_and_math_call_is_allowed():
    calls, matmuls = _calls()
    bad, used = [], set()
    for module, function, root, dotted, line in calls:
        where = f"{module}.py:{line} in {function}"
        if root == "np":
            if dotted in NUMPY_ALLOWED:
                continue
            if dotted in NAMED_EXCEPTIONS.get((module, function), ()):
                used.add((module, function, dotted))
                continue
            bad.append(f"np.{dotted} at {where}")
        elif root == "math":
            if dotted not in MATH_ALLOWED:
                bad.append(f"math.{dotted} at {where}")
        elif dotted.rsplit(".", 1)[-1] in FORBIDDEN_METHODS:
            bad.append(f".{dotted} at {where}")
    bad += [f"@ at {module}.py:{line}" for module, line in matmuls]
    assert not bad, bad
    # an exception that is no longer needed leaves the list
    assert used == {(m, f, c) for (m, f), cs in NAMED_EXCEPTIONS.items()
                    for c in cs}


def test_the_walk_sees_numpy_calls_and_forbidden_ones():
    calls, _ = _calls()
    seen = {(m, f, d) for m, f, root, d, _ in calls if root == "np"}
    assert ("grids", "softmax_rows", "exp") in seen
    assert ("fusion", "weighted_average", "multiply") in seen
    assert ("grids", "_lerp", "take") in seen
    tree = ast.parse("def f(a, b):\n    return np.einsum('i,i', a, b) + a.sum()"
                     " + (a @ b)\n")
    found = [_dotted(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert ("np", "einsum") in found and ("a", "sum") in found
    assert "einsum" not in NUMPY_ALLOWED and "sum" in FORBIDDEN_METHODS
