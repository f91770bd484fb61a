"""Every Python file of the project parses with the grammar of the oldest
Python that ``pyproject.toml`` allows.

This checks the grammar only (``ast.parse`` with ``feature_version``), not
whether each standard-library API used exists on that version.  Files under
``benchmarks/`` are read, never imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)
FILES = sorted(path for folder in ("src", "tests", "benchmarks")
               for path in (ROOT / folder).rglob("*.py"))


def test_oldest_python_is_the_one_pyproject_allows():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.M)


def test_every_file_parses_as_the_oldest_python():
    assert {"pipeline.py", "test_grammar.py", "tracer.py"} <= {
        path.name for path in FILES}
    failures = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=OLDEST)
        except SyntaxError as e:
            failures.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not failures, failures
