"""Hostile-input fuzzer: mutated manifests and tensor headers never crash.

Each case copies a tiny synthetic fixture, applies one mutation to its
manifest text or to one of its ``.tns`` files, then runs ``segfuse
evaluate`` and ``segfuse pipeline`` on it in process.  Every run must
return 0 or 2 and print no traceback.  The search is derandomized, so the
suite runs the same cases every time; raise ``max_examples`` (and drop
``derandomize``) to search further.
"""

import contextlib
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from segfuse.cli import main

FUZZ = "@@fuzz@@"

# raw JSON text put in place of one value: wrong types, huge and negative
# numbers (past the float range, past Python's 4,300-digit int limit), the
# non-standard constants json.loads accepts, and deep nesting
SNIPPETS = ("null", "true", '"x"', "[]", "{}", "1.5", "-1", "0", "-0.0",
            "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
            "1" + "0" * 400, "-" + "9" * 400, "1" + "0" * 5000,
            "-" + "9" * 4400, "[" * 500 + "]" * 500,
            "[" * 100_000 + "]" * 100_000, '{"a": ' * 3000 + "1" + "}" * 3000)

UINT32 = st.one_of(st.sampled_from([0, 1, 2, 3, 5, 2**31, 2**32 - 1]),
                   st.integers(0, 2**32 - 1))

MUTATIONS = st.one_of(
    st.tuples(st.just("truncate-json"), st.integers(min_value=0)),
    st.tuples(st.just("swap"), st.integers(min_value=0),
              st.one_of(st.sampled_from(SNIPPETS),
                        st.integers().map(str),
                        st.floats(allow_nan=False).map(repr))),
    st.tuples(st.just("drop"), st.integers(min_value=0)),
    st.tuples(st.just("magic"), st.integers(min_value=0),
              st.binary(min_size=8, max_size=8)),
    st.tuples(st.just("dim"), st.integers(min_value=0), st.integers(0, 3),
              UINT32),
    st.tuples(st.just("truncate-tensor"), st.integers(min_value=0),
              st.integers(min_value=0)),
    st.tuples(st.just("value"), st.integers(min_value=0),
              st.integers(min_value=0),
              st.sampled_from([float("nan"), float("inf"), -1.0, 2.0, 3e38])),
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "fx"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "3", "--height", "24", "--width", "24",
                     "--objects", "1", "--models", "2", "--scales", "0.5",
                     "1.0", "--out-dir", str(out)]) == 0
    return out


def _paths(node, at=()):
    """Every value's key path in a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield at + (key,)
        yield from _paths(child, at + (key,))


def _mutate(root: Path, mutation) -> None:
    """Apply one mutation to the manifest or to one tensor under ``root``."""
    kind, pick, *rest = mutation  # pick: an index, or a key path to swap
    manifest = root / "manifest.json"
    text = manifest.read_text()
    if kind == "truncate-json":
        manifest.write_text(text[:pick % (len(text) + 1)])
        return
    if kind in ("swap", "drop"):
        doc = json.loads(text)
        paths = list(_paths(doc))
        *parent, key = pick if isinstance(pick, tuple) else paths[
            pick % len(paths)]
        owner = doc
        for k in parent:
            owner = owner[k]
        if kind == "drop":
            del owner[key]
            manifest.write_text(json.dumps(doc))
        else:
            owner[key] = FUZZ
            manifest.write_text(json.dumps(doc).replace(f'"{FUZZ}"', rest[0]))
        return
    tensors = sorted((root / "tensors").iterdir())
    tensor = tensors[pick % len(tensors)]
    blob = bytearray(tensor.read_bytes())
    if kind == "magic":
        blob[:8] = rest[0]
    elif kind == "dim":
        field, value = rest
        struct.pack_into("<I", blob, 8 + 4 * field, value)
    elif kind == "truncate-tensor":
        blob = blob[:rest[0] % (len(blob) + 1)]
    else:  # one payload value
        at, value = rest
        struct.pack_into("<f", blob, 24 + 4 * (at % ((len(blob) - 24) // 4)),
                         value)
    tensor.write_bytes(bytes(blob))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=MUTATIONS)
@example(mutation=("swap", ("schema_version",), "1" + "0" * 5000))
@example(mutation=("swap", ("instances", 0, "score"), "-" + "9" * 4400))
@example(mutation=("swap", ("height",), "1" + "0" * 400))
@example(mutation=("swap", ("scales",), "[" * 100_000 + "]" * 100_000))
@example(mutation=("truncate-json", 100))
@example(mutation=("magic", 0, b"SGFTENS\x01"))
@example(mutation=("dim", 1, 2, 2**32 - 1))
@example(mutation=("truncate-tensor", 2, 30))
def test_hostile_input_exits_0_or_2(fixture_dir, mutation):
    with tempfile.TemporaryDirectory(dir=fixture_dir.parent) as tmp:
        root = Path(tmp) / "case"
        shutil.copytree(fixture_dir, root)
        _mutate(root, mutation)
        manifest = str(root / "manifest.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            codes = (
                main(["evaluate", manifest, manifest,
                      "--out", str(root / "eval.json")]),
                main(["pipeline", manifest, "--calib", manifest,
                      "--out-dir", str(root / "out")]))
    assert set(codes) <= {0, 2}, (codes, err.getvalue())
    assert "Traceback" not in err.getvalue()
