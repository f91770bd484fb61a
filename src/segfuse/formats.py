"""On-disk formats: raw tensor files, JSON manifests, PPM overlays.

Tensor file layout (normative):
  8 bytes magic ``SGFTENS\\0``, then four little-endian uint32 fields
  (height, width, channels, reserved == 0), then height*width*channels
  little-endian float32 values, row-major, channel-minor.

Manifests are JSON, schema_version 1, written with sorted keys and 2-space
indentation so identical content yields identical bytes.  Tensor paths are
relative to the manifest's directory.  Overlay images are binary PPM (P6)
with a fixed 5-color palette.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import struct
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .bundle import (GT_MODEL_ID, PredictionBundle, check_channels,
                     check_grid, check_listed)
from .errors import DataValidationError, FormatError
from .grids import AttentionMap, LogitMap
from .masks import BBox, MaskInstance, RleMask

TENSOR_MAGIC = b"SGFTENS\x00"
SCHEMA_VERSION = 1

# payload bytes a tensor load reads and checks at a time: a load that keeps
# no tensor holds no more of any payload than this, whatever its size
_CHUNK_BYTES = 256 * 1024

# background, shell, meat, gonad, muscle (Okabe-Ito, colorblind safe)
PALETTE = (
    (0, 0, 0),
    (230, 159, 0),
    (86, 180, 233),
    (0, 158, 115),
    (213, 94, 0),
)


def save_tensor(path, grid) -> None:
    """Write a LogitMap, AttentionMap, or 2D/3D float array."""
    if isinstance(grid, LogitMap):
        arr = grid.data
    elif isinstance(grid, AttentionMap):
        arr = grid.data[:, :, None]
    else:
        arr = np.asarray(grid, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise FormatError(f"tensor payload must be 2D or 3D, got ndim={arr.ndim}")
    payload = _payload(arr)
    with Path(path).open("wb") as f:
        f.write(_tensor_header(*arr.shape))
        f.write(payload)


def _tensor_header(h: int, w: int, c: int) -> bytes:
    return TENSOR_MAGIC + struct.pack("<4I", h, w, c, 0)


def _payload(arr: np.ndarray) -> np.ndarray:
    """Some rows of a tensor payload, as the little-endian float32 array
    that is written, once every value is checked finite."""
    if not np.isfinite(arr).all():
        raise DataValidationError("refusing to write non-finite tensor payload")
    return np.ascontiguousarray(arr, dtype="<f4")


def _open_tensor(p: Path):
    """The tensor file at ``p``, open for reading, and its (h, w, c) shape,
    once its header and its payload's size are checked."""
    if not p.is_file():
        raise DataValidationError(f"tensor file not found: {p}")
    f = p.open("rb")
    try:
        head = f.read(24)
        if len(head) < 24:
            raise FormatError(f"{p}: truncated header ({len(head)} bytes)")
        if head[:8] != TENSOR_MAGIC:
            raise FormatError(f"{p}: bad magic {head[:8]!r}")
        h, w, c, reserved = struct.unpack("<4I", head[8:24])
        if reserved != 0:
            raise FormatError(f"{p}: reserved header field is {reserved}, expected 0")
        if h < 1 or w < 1 or c < 1:
            raise FormatError(f"{p}: non-positive dimensions {(h, w, c)}")
        size, expected = os.fstat(f.fileno()).st_size - 24, h * w * c * 4
        if size != expected:  # checked before anything is allocated
            raise FormatError(f"{p}: payload is {size} bytes, expected {expected}")
    except BaseException:
        f.close()
        raise
    return f, (h, w, c)


def _read_range(f, path: Path, out: np.ndarray, at: int, size: int,
                alpha: bool) -> bool:
    """Fill ``out`` from byte ``at`` of the payload of ``f``, the open
    tensor file at ``path``, whose payload is ``size`` bytes: one byte
    range, checked as it arrives.  A short read means the file shrank since
    its size was checked, and every value must be finite.  Returns whether
    every value lies in [0, 1] for an ``alpha`` tensor, else True."""
    f.seek(24 + at)
    if f.readinto(memoryview(out).cast("B")) < out.nbytes:
        raise FormatError(f"{path}: payload is "
                          f"{os.fstat(f.fileno()).st_size - 24} bytes, "
                          f"expected {size}")
    if not np.isfinite(out).all():
        raise FormatError(f"{path}: payload contains non-finite values")
    return not (alpha and (out.min() < 0.0 or out.max() > 1.0))


def _read_tensor(path, *, alpha: bool, keep: bool):
    """Read and check the tensor file at ``path``.  Returns its (h, w, c)
    shape and, when ``keep``, the (h, w, c) float32 array read, else None.

    The payload is read ``_CHUNK_BYTES`` at a time, each chunk one
    ``_read_range`` straight into the array returned or, when nothing is
    kept, into one reused scratch buffer.  Errors keep one order: payload
    size, non-finite values, then an alpha tensor's channel count and its
    range, which every chunk checks but only the last raises.  A file that
    shrinks while it is read fails at its first short chunk."""
    p = Path(path)
    f, (h, w, c) = _open_tensor(p)
    n, step = h * w * c, _CHUNK_BYTES // 4
    arr = np.empty((h, w, c), dtype="<f4") if keep else None
    buf = arr.reshape(-1) if keep else np.empty(min(n, step), dtype="<f4")
    in_range = True
    with f:
        for at in range(0, n, step):
            chunk = buf[at:at + step] if keep else buf[:min(step, n - at)]
            in_range &= _read_range(f, p, chunk, 4 * at, 4 * n, alpha)
    if alpha and c != 1:
        raise FormatError(f"{path}: attention tensor must have 1 channel, got {c}")
    if not in_range:
        raise DataValidationError("AttentionMap values must lie in [0, 1]")
    return (h, w, c), (arr.astype(np.float32, copy=False) if keep else None)


def load_tensor(path) -> np.ndarray:
    """Read a tensor file back as a (h, w, c) float32 array."""
    return _read_tensor(path, alpha=False, keep=True)[1]


def write_overlay(height: int, width: int, labels: np.ndarray, path) -> None:
    """Render a label grid (values 0..4) as a deterministic binary PPM."""
    a = np.asarray(labels)
    if a.shape != (height, width):
        raise FormatError(f"label grid shape {a.shape} != {(height, width)}")
    pixels = _overlay_pixels(a)
    with Path(path).open("wb") as f:
        f.write(_overlay_header(height, width))
        f.write(pixels)


def _overlay_header(height: int, width: int) -> bytes:
    return f"P6\n{width} {height}\n255\n".encode("ascii")


def _overlay_pixels(labels: np.ndarray) -> np.ndarray:
    """The palette colours of some rows of a label grid, once every label is
    checked to be a palette index."""
    if labels.size and (labels.min() < 0 or labels.max() >= len(PALETTE)):
        raise DataValidationError(
            f"labels must lie in [0, {len(PALETTE) - 1}]")
    return np.array(PALETTE, dtype=np.uint8)[labels.astype(np.int64, copy=False)]


def _instance_record(inst: MaskInstance, with_model: bool) -> dict:
    rec = {
        "object_id": inst.object_id,
        "component": inst.component,
        "score": inst.score,
        "bbox": [inst.bbox.x0, inst.bbox.y0, inst.bbox.x1, inst.bbox.y1],
        "rle": list(inst.mask.counts),
    }
    if with_model:
        rec["model"] = inst.model_id
        rec["scale"] = inst.scale
    return rec


def _tensor_name(model: str, scale: float, kind: str) -> str:
    # repr keeps distinct scales distinct (%g would collide past 6 digits)
    name = f"{model}_s{scale!r}_{kind}.tns"
    if Path(name).name != name:  # a model id may hold a path separator
        raise DataValidationError(f"map {(model, scale)!r}: tensor file "
                                  f"{name!r} is not one path component")
    return name


def save_manifest(bundle: PredictionBundle, path) -> Path:
    """Write a bundle as manifest JSON plus tensor files; returns the path."""
    path = Path(path)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "image_id": bundle.image_id,
        "height": bundle.height,
        "width": bundle.width,
        "models": list(bundle.models),
        "scales": list(bundle.scales),
        "instances": [_instance_record(i, True) for i in bundle.instances],
        "ground_truth": [_instance_record(g, False) for g in bundle.ground_truth],
    }
    tensors = []  # (path, grid): every name is checked before a file is written
    for field, maps in (("logit_maps", bundle.logit_maps),
                        ("alpha_maps", bundle.alpha_maps)):
        records = []
        kind = "logits" if field == "logit_maps" else "alpha"
        for (model, scale) in sorted(maps):
            rel = f"tensors/{_tensor_name(model, scale, kind)}"
            tensors.append((path.parent / rel, maps[model, scale]))
            records.append({"model": model, "scale": scale, "path": rel})
        if records:
            doc[field] = records
    path.parent.mkdir(parents=True, exist_ok=True)
    for target, grid in tensors:
        target.parent.mkdir(exist_ok=True)
        save_tensor(target, grid)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _number(value, what: str) -> float:
    """A JSON number (not a bool) as a float; an integer beyond the float
    range is a FormatError, not an OverflowError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FormatError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{what} is too large for a float") from None


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is float:
        return _number(value, f"{where}: field {key!r}")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FormatError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _ints(values) -> bool:
    """Whether every value is a JSON integer (``type`` rejects booleans)."""
    return set(map(type, values)) <= {int}


@contextmanager
def _named(where: str):
    """Prefix ``where`` to a FormatError or DataValidationError's message."""
    try:
        yield
    except (FormatError, DataValidationError) as e:
        raise type(e)(f"{where}: {e}") from None


def _load_instance(rec: dict, height: int, width: int, where: str,
                   with_model: bool, uid: int, models=(), scales=()) -> MaskInstance:
    if not isinstance(rec, dict):
        raise FormatError(f"{where}: instance record must be an object")
    component = _require(rec, "component", str, where)
    if with_model or "score" in rec:
        score = _require(rec, "score", float, where)
    else:
        score = 1.0
    raw_bbox = _require(rec, "bbox", list, where)
    if len(raw_bbox) != 4 or not _ints(raw_bbox):
        raise FormatError(f"{where}: bbox must be four integers")
    counts = _require(rec, "rle", list, where)
    if not _ints(counts):
        raise FormatError(f"{where}: rle counts must be integers")
    object_id = rec.get("object_id")
    if object_id is not None and type(object_id) is not int:
        raise FormatError(f"{where}: object_id must be an integer or null")
    model = _require(rec, "model", str, where) if with_model else GT_MODEL_ID
    scale = _require(rec, "scale", float, where) if with_model else 1.0
    if with_model:
        check_listed(model, scale, models, scales, where)
    with _named(where):
        return MaskInstance(mask=RleMask(height, width, tuple(counts)),
                            bbox=BBox(*raw_bbox), component=component,
                            object_id=object_id, score=score, model_id=model,
                            scale=scale, uid=uid)


def _read_map(path: Path, where: str, alpha: bool, keep: bool):
    """Map record ``where``'s checked (h, w, c) shape, and grid if ``keep``."""
    with _named(where):
        shape, arr = _read_tensor(path, alpha=alpha, keep=keep)
        if arr is None:
            return shape, None
        if not alpha:
            return shape, LogitMap._own(arr, checked=True)
        arr.shape = shape[:2]  # in place: a reshaped view would not own its data
        return shape, AttentionMap._own(arr, checked=True)


@contextmanager
def _tensor_rows(path: Path, where: str, alpha: bool, shape: tuple):
    """Input map record ``where`` opened again, to be read by rows: yields
    ``read(r0, r1)``, the ``_read_rows`` of the open file.  The open checks
    the header and the payload's size as a load does, and that the tensor
    still has ``shape``, the (h, w, c) the load saw."""
    with _named(where):
        f, got = _open_tensor(path)
    with f:
        if got != shape:
            raise DataValidationError(f"{where}: {path} changed since the "
                                      f"manifest was loaded: shape {got}, "
                                      f"was {shape}")
        yield partial(_read_rows, f, path, where, alpha, shape)


def _read_rows(f, path: Path, where: str, alpha: bool, shape: tuple,
               r0: int, r1: int) -> np.ndarray:
    """Rows [r0, r1) of record ``where``'s open tensor file ``f``, of
    ``shape``, as a new (r1 - r0, w, c) float32 array: one ``_read_range``
    of the row-major payload, its values checked as a load checks them."""
    h, w, c = shape
    arr = np.empty((r1 - r0, w, c), dtype="<f4")
    with _named(where):
        if not _read_range(f, path, arr, r0 * w * c * 4, h * w * c * 4, alpha):
            raise DataValidationError("AttentionMap values must lie in [0, 1]")
    return arr.astype(np.float32, copy=False)


def _load_maps(doc: dict, field: str, base: Path, models, scales,
               height: int, width: int, maps):
    """Check every record of ``field``; return the grids kept and channels."""
    records = doc.get(field, [])
    if not isinstance(records, list):
        raise FormatError(f"{field} must be a list")
    alpha = field == "alpha_maps"
    out, channels = {}, {}
    for k, rec in enumerate(records):
        where = f"{field}[{k}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: map record must be an object")
        model = _require(rec, "model", str, where)
        scale = _require(rec, "scale", float, where)
        rel = _require(rec, "path", str, where)
        check_listed(model, scale, models, scales, where)
        if (model, scale) in channels:
            raise DataValidationError(f"{where}: duplicate entry for "
                                      f"({model!r}, {scale})")
        shape, grid = _read_map(base / rel, where, alpha, maps is True)
        check_grid(shape[:2], scale, height, width, where)
        channels[(model, scale)] = shape[2]
        if grid is not None:
            out[(model, scale)] = grid
        elif isinstance(maps, dict):
            maps[field, model, scale] = (shape[2], partial(
                _tensor_rows, base / rel, where, alpha, shape))
    return out, channels


def load_manifest(path, *, maps: bool | dict = True) -> PredictionBundle:
    """Parse and eagerly validate a manifest into a PredictionBundle; with
    ``maps=False`` every tensor is still read and checked but none is kept,
    each one through one fixed-size buffer.  A dict ``maps`` keeps none but gets
    each map's ``(field, model, scale) -> (channels, rows)``, where
    ``rows()`` opens the map again to be read by rows (``_tensor_rows``).
    The load and those row reads check bytes through one ``_read_range``,
    so a fault gives the same error whichever meets it."""
    p = Path(path)
    if not p.is_file():
        raise DataValidationError(f"manifest not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # also JSON and UTF-8 errors
        raise FormatError(f"{p}: malformed JSON ({e})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{p}: manifest must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        # reprlib cuts depth and length: the manifest sets the value's size
        raise FormatError(f"{p}: schema_version {reprlib.repr(version)} is not "
                          f"{SCHEMA_VERSION}")
    image_id = _require(doc, "image_id", str, "manifest")
    height = _require(doc, "height", int, "manifest")
    width = _require(doc, "width", int, "manifest")
    models = _require(doc, "models", list, "manifest")
    if not models or not all(isinstance(m, str) for m in models):
        raise FormatError("manifest: models must be a non-empty string list")
    scales = tuple(_number(s, f"manifest: scales[{k}]") for k, s in
                   enumerate(_require(doc, "scales", list, "manifest")))
    if not scales or not all(math.isfinite(s) for s in scales):
        raise FormatError("manifest: scales must be a non-empty finite number list")
    models = tuple(sorted(models))

    raw_instances = doc.get("instances", [])
    if not isinstance(raw_instances, list):
        raise FormatError("manifest: instances must be a list")
    instances = tuple(
        _load_instance(rec, height, width, f"instances[{k}]", True, uid=k,
                       models=models, scales=scales)
        for k, rec in enumerate(raw_instances))
    raw_gt = doc.get("ground_truth", [])
    if not isinstance(raw_gt, list):
        raise FormatError("manifest: ground_truth must be a list")
    ground_truth = tuple(
        _load_instance(rec, height, width, f"ground_truth[{k}]", False, uid=k)
        for k, rec in enumerate(raw_gt))

    logit_maps, channels = _load_maps(doc, "logit_maps", p.parent, models,
                                      scales, height, width, maps)
    alpha_maps, _ = _load_maps(doc, "alpha_maps", p.parent, models, scales,
                               height, width, maps)
    bundle = PredictionBundle(
        image_id=image_id, height=height, width=width, models=models,
        scales=scales, instances=instances, ground_truth=ground_truth,
        logit_maps=logit_maps, alpha_maps=alpha_maps)
    check_channels(channels.values())  # the bundle's own check, maps or not
    return bundle


def write_json_report(doc: dict, path) -> Path:
    """Serialize a report deterministically (sorted keys, trailing newline)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                 encoding="utf-8")
    return p
