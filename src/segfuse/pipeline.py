"""End-to-end orchestration behind the CLI commands.

Weight plumbing: the whole-frame ensemble fuses channel c with the vertical
(per-component) weights of component c, background with uniform weights;
per-object local ensembles use that object's horizontal weights.  All
weighted sums and blends inherit the deterministic ordering rules of the
fusion and grids modules, so a fixed (manifest, config) pair reproduces
byte-identical outputs.  The engine runs on one thread.

An object's local ensemble (``_local_map``) is one read-only float32 plane
per component channel over that channel's support, the union across
models of the windows its instances reach.  Every other value, the
background channel included, is +0.0 in every model's map and so in the
ensemble, and is never allocated, fused or stored.  Skipping it moves no
byte: local values are >= +0.0 and never -0.0, so adding +0.0 to their
running sum is the identity, the sum over objects keeps its order for
each pixel and channel, and the ensemble of zeros is +0.0.

Each scale is one pass over bands of rows that yields the scale's fused
rows (``_fuse_scale``), so no pass holds a whole frame of any scale.
Every band loop takes its height from ``grids._band_rows`` for the width
it walks, so a band's temporaries do not grow with the width.  A coarser
scale's bands carry its gate as a last channel; the next finer pass pulls
them as it folds them in, upsampled onto its own bands by the one
streaming resampler, ``grids._resample_rows``, which also takes the finest
scale's bands to the reference grid, where they are labeled by their
argmax (``_emit``) and handed to a sink: the in-memory ``_Frames`` or the
CLI's ``_PipelineFiles``.  The carving reads its regions' rows back from
the sink.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from functools import partial, reduce
from pathlib import Path

import numpy as np

from .attention import (_add_planes, _blend_rows, attention_to_map,
                        difference_matrix, local_attention, row_normalize)
from .bundle import PredictionBundle
from .config import PipelineConfig
from .errors import DataValidationError
from .formats import (_overlay_header, _overlay_pixels, _payload,
                      _read_rows, _tensor_header, save_manifest,
                      write_json_report)
from .fusion import (FusionWeights, compute_weights, fuse_logits, fuse_masks,
                     weighted_average)
from .grids import (AttentionMap, LogitMap, _band_rows, _frozen, _lerp,
                    _resample_rows, _row_max, _taps, argmax_channel,
                    scaled_dim, softmax_rows)
from .hierarchy import _fold_rows
from .masks import (COMPONENT_GAIN, COMPONENT_IDS, COMPONENTS, BBox,
                    MaskInstance, _from_runs, _run_extent, expand_bbox,
                    rle_encode, scale_box)
from .metrics import GROUP_FIELDS, ApTable, group_ap, group_keys

ENSEMBLE_MODEL_ID = "ensemble"
PIPELINE_MODEL_ID = "pipeline"


def _pmap(fn, items, workers: int) -> list:
    """``fn`` over ``items`` in order, on the calling thread; ``workers`` is
    unread, kept where the benchmark's tracer reads it."""
    return [fn(x) for x in items]


def _ap_table(calib: PredictionBundle, mode: str,
              cfg: PipelineConfig) -> ApTable:
    """Calibration APs of ``mode`` from ``calib``, the calibration split's
    slice at one scale."""
    return group_ap(calib, calib.ground_truth, mode, cfg.iou_threshold)


def _fusion_weights(bundle: PredictionBundle, calib: PredictionBundle | None,
                    cfg: PipelineConfig, groups: dict) -> tuple[dict, list[dict]]:
    """Every scale's weights, ``{(scale, mode): {AP key: FusionWeights}}``,
    and their records in report order, computed before any pixel.

    ``groups[scale][mode]`` maps each group's AP key to the key its vector
    carries under uniform weights.  AP weights need a calibration split
    with ground truth, the image's models and scales, and an AP entry for
    every group."""
    models = bundle.models
    ap = cfg.weights_mode == "ap"
    if ap:
        if calib is None:
            raise DataValidationError("AP-based weights need a calibration "
                                      "manifest (--calib), or pass --weights uniform")
        if not calib.ground_truth:
            raise DataValidationError(
                "calibration manifest has no ground_truth records; AP-based "
                "weights cannot be computed (no silent uniform fallback)")
        if calib.models != models:
            raise DataValidationError(
                f"calibration manifest models {list(calib.models)} differ "
                f"from the image manifest's {list(models)}")
        for scale in bundle.scales:
            if scale not in calib.scales:
                raise DataValidationError(
                    f"calibration manifest has no predictions at scale {scale}")
    weights: dict = {}
    records: list[dict] = []
    for scale, by_mode in groups.items():
        sub = calib.with_scale(scale) if ap else None
        for mode, keys in by_mode.items():
            if ap:
                table = _ap_table(sub, mode, cfg)
                vectors = [compute_weights(table, k, cfg.normalization)
                           for k in keys]
            else:
                vectors = [FusionWeights.uniform(models, keys[k]) for k in keys]
            weights[scale, mode] = dict(zip(keys, vectors))
            records += [{"scale": scale, "mode": mode, "group": w.group_key,
                         "weights": dict(w.weights)} for w in vectors]
    return weights, records


# ---------------------------------------------------------------------------
# mask-level fusion (the "fuse" command)

def run_fuse(bundle: PredictionBundle, calib: PredictionBundle | None,
             cfg: PipelineConfig, mode: str) -> tuple[PredictionBundle, list[dict]]:
    """Group, weight, and average instance masks across models at each scale.

    Returns the fused bundle (model id "ensemble") and the per-group weight
    records used.
    """
    subs = [bundle.with_scale(scale) for scale in bundle.scales]
    keys = [group_keys(sub.instances, mode) for sub in subs]
    if any(inst.object_id is None for inst in bundle.instances):
        raise DataValidationError(
            "mask fusion requires object ids to put instances from different "
            "models in correspondence")
    weights, records = _fusion_weights(bundle, calib, cfg, {
        scale: {mode: dict(zip(k, k))} for scale, k in zip(bundle.scales, keys)})
    fused: list[MaskInstance] = []
    for scale, sub in zip(bundle.scales, subs):
        for key, w in weights[scale, mode].items():
            cells: dict = {}
            for inst in sub.instances_for(**{GROUP_FIELDS[mode]: key}):
                cells.setdefault((inst.component, inst.object_id), []).append(inst)
            # one half of each (component, object) cell is the group key, so
            # this orders cells by the str of the other half (object 10 < 2)
            for cell in sorted(cells, key=lambda c: (c[0], str(c[1]))):
                members = cells[cell]
                bounds, soft = fuse_masks(members, w)
                ones = np.flatnonzero(soft >= cfg.binarize_threshold)
                if not ones.size:
                    continue
                mask = _from_runs(bounds[ones], bounds[ones + 1],
                                  bundle.height, bundle.width)
                best = {}
                for m in members:
                    best[m.model_id] = max(best.get(m.model_id, 0.0), m.score)
                score = 0.0
                for model, coeff in w.weights:
                    score += coeff * best.get(model, 0.0)
                fused.append(MaskInstance(
                    mask=mask, bbox=_run_extent(mask),
                    component=members[0].component,
                    object_id=members[0].object_id,
                    score=min(1.0, max(0.0, score)), model_id=ENSEMBLE_MODEL_ID,
                    scale=scale, uid=len(fused)))

    out = PredictionBundle(
        image_id=bundle.image_id, height=bundle.height, width=bundle.width,
        models=(ENSEMBLE_MODEL_ID,), scales=bundle.scales,
        instances=tuple(fused), ground_truth=bundle.ground_truth)
    return out, records


def write_fuse_outputs(fused: PredictionBundle, records: list[dict],
                       cfg: PipelineConfig, mode: str, out_dir) -> list[Path]:
    """Returns the paths written, in write order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [save_manifest(fused, out_dir / f"fused_{mode}.json"),
            write_json_report(
                {"schema_version": 1, "kind": "fusion_weights",
                 "image_id": fused.image_id, "grouping": mode,
                 "normalization": cfg.normalization,
                 "weights_mode": cfg.weights_mode, "records": records},
                out_dir / f"weights_{mode}.json")]


# ---------------------------------------------------------------------------
# dense pipeline (the "pipeline" command)

def _fuse_global(maps: dict[str, LogitMap], vectors) -> LogitMap:
    """The ensemble of one band of rows of the frame, kept as its own stage
    so traces can time it apart from the per-object ensembles."""
    return fuse_logits(maps, vectors)


def _local_map(sub: PredictionBundle, oid: int, region_ref: BBox,
               region_s: BBox, weights: FusionWeights) -> tuple:
    """One object's local ensemble at one scale, as ``(channel, box,
    plane)`` for each component channel that some instance reaches, in
    channel order: a read-only float32 plane over ``box``, the channel's
    support on the scale grid.  Each model's masks of the channel are
    rasterized into a plane of the support with the shared gain ramp, so
    nested components survive the argmax, and the planes are fused under
    the object's horizontal ``weights``, each a float64 0-d array, so that
    every term widens exactly as in ``fuse_logits``.

    ``region_ref`` encloses the box of every instance of the object, as
    ``_object_regions`` makes it, and ``region_s`` is its box on the scale
    grid.  Each instance's bits are resampled only over the output window
    whose taps reach its box: any other pixel lerps four zero taps to
    +0.0, which leaves the running maximum as it is.  Only the source rows
    and columns that window's taps read are decoded.  At equal sizes the
    window is the box and the resample is the bits, since a bool window
    holds no -0.0."""
    same = (region_s.height, region_s.width) == (region_ref.height,
                                                 region_ref.width)
    ys = _taps(region_ref.height, region_s.height)
    xs = _taps(region_ref.width, region_s.width)
    reached: dict[int, list] = {}  # channel: [(instance, window)]
    for inst in sub.instances_for(object_id=oid):
        box = inst.bbox.shifted(-region_ref.x0, -region_ref.y0)
        if not same:
            rows, cols = _reach(ys, box.y0, box.y1), _reach(xs, box.x0, box.x1)
            if rows.start == rows.stop or cols.start == cols.stop:
                continue  # no tap of the scaled region meets the box
            box = BBox(cols.start, rows.start, cols.stop, rows.stop)
        reached.setdefault(COMPONENT_IDS[inst.component], []).append(
            (inst, box))
    planes = []
    for ch in sorted(reached):
        support = reduce(BBox.union, [box for _, box in reached[ch]])
        per_model = []
        for model, _ in weights.weights:
            plane = np.zeros((support.height, support.width), dtype=np.float32)
            for inst, box in reached[ch]:
                if inst.model_id != model:
                    continue
                if same:
                    resized = inst.window(inst.bbox)
                else:
                    rows, cols = box.slices
                    ty, tx = [t[rows] for t in ys], [t[cols] for t in xs]
                    src = BBox(tx[0][0], ty[0][0], tx[1][-1] + 1, ty[1][-1] + 1)
                    bits = inst.window(src.shifted(region_ref.x0, region_ref.y0))
                    resized = _lerp(bits[:, :, None],
                                    [ty[0] - src.y0, ty[1] - src.y0, ty[2]],
                                    [tx[0] - src.x0, tx[1] - src.x0, tx[2]]
                                    )[:, :, 0]
                gain = np.float32(COMPONENT_GAIN[inst.component] * inst.score)
                dest = plane[box.shifted(-support.x0, -support.y0).slices]
                np.maximum(dest, gain * resized, out=dest)
            per_model.append(plane)
        fused = weighted_average(per_model,
                                 [np.array(w) for _, w in weights.weights])
        planes.append((ch, support.shifted(region_s.x0, region_s.y0),
                       _frozen(fused)))
    return tuple(planes)


def _reach(taps, lo: int, hi: int) -> slice:
    """The outputs of an axis whose ``_taps`` meet source indices [lo, hi);
    both taps are nondecreasing, so they are one run."""
    first, last = taps[1].searchsorted(lo), taps[0].searchsorted(hi)
    return slice(int(first), int(last))


def _object_regions(sub: PredictionBundle,
                    cfg: PipelineConfig) -> dict[int, BBox]:
    """Expanded union box of each object's instances in ``sub``, by id."""
    regions: dict[int, BBox] = {}
    for inst in sub.instances:
        box = regions.get(inst.object_id)
        regions[inst.object_id] = inst.bbox if box is None else box.union(inst.bbox)
    return {oid: expand_bbox(box, cfg.expand_factor, sub.height, sub.width)
            for oid, box in sorted(regions.items())}


def _object_gate(global_rows: np.ndarray, local_rows: np.ndarray,
                 factor: float) -> np.ndarray:
    """One object region's gate, a column of one value per pixel, from its
    whole-frame and local logits as pixels x channels."""
    attn = row_normalize(local_attention(
        difference_matrix(global_rows, local_rows), factor))
    # scalar gate per pixel: a uniform row means no channel stands out as
    # disagreeing (gate -> 1, trust the frame); a peaked row means
    # concentrated disagreement (gate -> 0, trust the object)
    peak = _row_max(attn)
    return np.clip((1.0 - peak) / (1.0 - 1.0 / global_rows.shape[1]), 0.0, 1.0)


def _band_gate(ens: np.ndarray, r0: int, objects: list[tuple[BBox, tuple]],
               cfg: PipelineConfig) -> AttentionMap:
    """Rows [r0, r0 + len(ens)) of one scale's gate, from ``ens``, those
    rows of the scale's ensemble, and ``objects``, each object's region
    with the planes of its ``_local_map``: each object's ``_object_gate``
    over the rows of its region in the band, widened to float64, pasted by
    ``attention_to_map`` in object order, so a later object's gate
    overwrites an earlier one's where regions overlap.  An object's local
    rows are zeros with its planes added in.  A pixel's gate depends on its
    own row alone, so the band height changes no byte."""
    rows, width, channels = ens.shape
    band = BBox(0, r0, width, r0 + rows)
    patches = []
    for box, planes in objects:
        cut = box.intersection(band)
        if cut is None:
            continue
        local = np.zeros((cut.height, cut.width, channels), dtype=np.float32)
        _add_planes(local, cut, planes)
        gate = _object_gate(
            ens[cut.y0 - r0:cut.y1 - r0, cut.x0:cut.x1].astype(np.float64)
            .reshape(-1, channels),
            local.reshape(-1, channels).astype(np.float64),
            cfg.attention_factor)
        patches.append((gate.reshape(cut.height, cut.width),
                        cut.shifted(0, -r0)))
    return attention_to_map(patches, rows, width, neutral=cfg.neutral_beta)


def _mean_alpha(models, alphas: dict[str, np.ndarray], shape: tuple,
                cfg: PipelineConfig) -> np.ndarray:
    """Rows of the gate of one scale, of ``shape``: the float64 mean of
    ``alphas``, those rows of the scale's alpha maps by model, in
    ``models`` order, clipped to [0, 1] and rounded to float32; else
    ``cfg.alpha_const``.  Each pixel's mean is its own, so the rows the
    gate is built by change no byte."""
    present = [alphas[m] for m in models if m in alphas]
    if not present:
        return np.full(shape, cfg.alpha_const, dtype=np.float32)
    acc = sum(present[1:], present[0].astype(np.float64))
    return np.clip(acc / len(present), 0.0, 1.0).astype(np.float32)


@contextmanager
def _grid_rows(grid):
    """A map source's reader over an in-memory grid: ``read(r0, r1)``
    returns a copy of rows [r0, r1) as rows x width x channels."""
    data = grid.data.reshape(grid.height, grid.width, -1)
    yield lambda r0, r1: data[r0:r1].copy()


def _fuse_scale(sub: PredictionBundle, maps: dict, weights: dict,
                cfg: PipelineConfig, coarser=None, finest=False):
    """Yield ``(r0, rows)`` for each band of ``grids._band_rows`` rows of
    the fused frame of ``sub``, the image at one scale, under that scale's
    ``weights``, with ``coarser``, the next coarser scale's pass and grid
    shape, folded in when given.  Unless ``finest``, each band carries
    those rows of the scale's gate, the ``_mean_alpha`` of its alpha maps,
    as a last channel.

    The per-object planes are built first.  Then one pass over the bands
    reads each model's rows of logits from ``maps``, ensembles them, gates
    and blends them with the per-object planes that cross the band, and
    folds in the coarser bands under the gate they carry, upsampled onto
    the band by ``grids._resample_rows``.  Each logit and alpha map is opened
    once, when the first band is pulled, and no whole frame is built."""
    height, width = sub.height, sub.width
    scale = sub.scales[0]
    sh, sw = scaled_dim(height, scale), scaled_dim(width, scale)
    # background is fused with uniform weights, each component channel with
    # its component's vertical weights
    vectors = [FusionWeights.uniform(sub.models, "channel0"),
               *weights[scale, "vertical"].values()]
    horizontal = weights[scale, "horizontal"]

    regions_ref = _object_regions(sub, cfg)
    regions_s = {oid: scale_box(box, height, width, sh, sw)
                 for oid, box in regions_ref.items()}

    objects = list(zip(regions_s.values(), _pmap(
        lambda oid: _local_map(sub, oid, regions_ref[oid], regions_s[oid],
                               horizontal[oid]), regions_s, workers=1)))
    with ExitStack() as stack:
        reads = {m: stack.enter_context(maps["logit_maps", m, scale][1]())
                 for m in sub.models}
        # the finest gate is never folded: its alpha maps stay unread
        alphas = {} if finest else {
            m: stack.enter_context(maps["alpha_maps", m, scale][1]())
            for m in sub.models if ("alpha_maps", m, scale) in maps}
        if coarser is not None:  # its pass is closed with this one
            rows, shape = coarser
            ups = _resample_rows(stack.enter_context(closing(rows)), shape,
                                 sh, sw)
        step = _band_rows(sw)
        for r0 in range(0, sh, step):
            r1 = min(r0 + step, sh)
            ens = _fuse_global(
                {m: LogitMap._own(read(r0, r1), checked=True)
                 for m, read in reads.items()}, vectors).data
            beta = (AttentionMap.full(r1 - r0, sw, cfg.beta_const)
                    if cfg.beta_const is not None
                    else _band_gate(ens, r0, objects, cfg))
            band = _blend_rows(ens, r0, objects, beta.data[:, :, None])
            del ens, beta  # so that neither is held at the yield
            if coarser is not None:
                _, up = next(ups)
                band = _fold_rows(up, band)
                del up
            if not finest:
                band = np.concatenate((band, _mean_alpha(sub.models, {
                    m: read(r0, r1) for m, read in alphas.items()},
                    (r1 - r0, sw, 1), cfg)), axis=2)
            yield r0, band


# output names in write order: the three frames the finest pass streams,
# then the carving and the report
_OUTPUTS = ("fused_logits.tns", "labels.tns", "overlay.ppm", "instances.json",
            "report.json")


class _Frames:
    """The in-memory sink: the reference-grid logits and label grid that
    ``PipelineResult`` holds, filled a band of rows at a time."""

    def start(self, height: int, width: int, channels: int) -> None:
        self.logits = np.empty((height, width, channels), dtype=np.float32)
        self.labels = np.empty((height, width), dtype=np.int64)

    def write(self, r0: int, logits: np.ndarray, labels: np.ndarray) -> None:
        self.logits[r0:r0 + len(logits)] = logits
        self.labels[r0:r0 + len(labels)] = labels

    @contextmanager
    def rows(self):
        """``read(r0, r1)``: rows [r0, r1) of the logits and of the labels."""
        yield lambda r0, r1: (self.logits[r0:r1], self.labels[r0:r1])


class _PipelineFiles:
    """The file sink: the pipeline's outputs, written under their names in
    a staging directory, the three frames a band of rows at a time to files
    opened once, and renamed into ``out_dir`` by ``commit`` once all five
    are complete.  One ``ExitStack`` owns the directory and the files:
    leaving the ``with`` block closes them and removes what is still
    staged, so a failed run leaves ``out_dir`` as it was and no temporary
    behind."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self._owned = ExitStack()

    def __enter__(self) -> "_PipelineFiles":
        return self

    def __exit__(self, *exc) -> None:
        self._owned.close()

    def start(self, height: int, width: int, channels: int) -> None:
        # staged in out_dir, or where it would be made, so that the renames
        # stay on one file system and a failed run makes no out_dir; a
        # failed cleanup does not hide the run's own error
        anchor = next(p for p in (self.out_dir, *self.out_dir.parents)
                      if p.is_dir())
        own = self._owned.enter_context
        self.staging = Path(own(tempfile.TemporaryDirectory(
            prefix=".segfuse-", dir=anchor, ignore_cleanup_errors=True)))
        self.shapes = (height, width, channels), (height, width, 1)
        self.files = [own((self.staging / name).open("w+b"))
                      for name in _OUTPUTS[:3]]
        heads = [_tensor_header(*shape) for shape in self.shapes]
        for f, head in zip(self.files, (*heads, _overlay_header(height, width))):
            f.write(head)

    def write(self, r0: int, logits: np.ndarray, labels: np.ndarray) -> None:
        logits_file, labels_file, overlay_file = self.files
        logits_file.write(logits)
        labels_file.write(labels.astype("<f4"))
        overlay_file.write(_overlay_pixels(labels))

    @contextmanager
    def rows(self):
        """``read(r0, r1)``: rows [r0, r1) of the logits and of the labels,
        read back through the handles that wrote them, each read checked
        as a band read of an input map is (``formats._read_rows``)."""
        logits, labels = (partial(_read_rows, f, self.staging / name, name,
                                  False, shape)
                          for f, name, shape in zip(self.files, _OUTPUTS,
                                                    self.shapes))
        yield lambda r0, r1: (logits(r0, r1), labels(r0, r1)[:, :, 0])

    def commit(self, result: "PipelineResult") -> list[Path]:
        """Close the frames, write the carving and the report, then move all
        five into ``out_dir``; returns their paths, in write order."""
        for f in self.files:
            f.close()
        save_manifest(result.carved, self.staging / _OUTPUTS[3])
        write_json_report(result.report, self.staging / _OUTPUTS[4])
        self.out_dir.mkdir(parents=True, exist_ok=True)
        paths = [self.out_dir / name for name in _OUTPUTS]
        for name, path in zip(_OUTPUTS, paths):
            os.replace(self.staging / name, path)
        return paths


def _emit(sink, bands) -> None:
    """Hand each ``(r0, rows)`` of ``bands``, rows of the reference-grid
    logits that own their data, to ``sink`` with their labels,
    ``argmax_channel`` of the rows, once every value is checked as a tensor
    write checks it."""
    for r0, logits in bands:
        logits = _payload(logits)
        sink.write(r0, logits, argmax_channel(LogitMap._own(logits, checked=True)))
        del logits  # so that it is not held while the next band is built


@dataclass(frozen=True)
class PipelineResult:
    """What ``run_pipeline`` returns; ``final_logits`` and ``labels`` are
    None when the run streamed them to a file sink."""

    final_logits: LogitMap | None     # at the reference grid
    labels: np.ndarray | None         # argmax label ids, reference grid
    carved: PredictionBundle          # the label grid's instances, model "pipeline"
    report: dict


def run_pipeline(bundle: PredictionBundle, calib: PredictionBundle | None,
                 cfg: PipelineConfig, workers: int = 1,
                 maps: dict | None = None, sink=None) -> PipelineResult:
    """Ensemble logits, local attention, and the coarse-to-fine fold on
    one thread; ``workers`` must be >= 1.  Maps are read from ``maps`` as
    ``load_manifest(path, maps={})`` fills it, or else from the bundle.
    Each scale's bands are folded into the next finer scale's pass as it
    pulls them; the finest scale's bands, resampled to the reference grid,
    go with their argmax labels to ``sink``: by default an in-memory one,
    whose frame and labels the result holds, or the CLI's
    ``_PipelineFiles``, which writes them to files; the carving reads its
    regions' rows back from the sink."""
    if workers < 1:
        raise DataValidationError("workers must be >= 1")
    if maps is None:
        maps = {(f, m, s): (getattr(g, "channels", 1), partial(_grid_rows, g))
                for f in ("logit_maps", "alpha_maps")
                for (m, s), g in getattr(bundle, f).items()}
    height, width = bundle.height, bundle.width
    channels = [c for (f, _, _), (c, _) in maps.items() if f == "logit_maps"]
    if not channels:
        raise DataValidationError("pipeline needs logit maps in the manifest")
    if channels[0] != len(COMPONENTS) + 1:
        raise DataValidationError(
            f"pipeline expects {len(COMPONENTS) + 1} channels (background + "
            f"components), got {channels[0]}")
    for scale in bundle.scales:
        for model in bundle.models:
            if ("logit_maps", model, scale) not in maps:
                raise DataValidationError(
                    f"no logit map for model {model!r} at scale {scale}")
    if any(inst.object_id is None for inst in bundle.instances):
        raise DataValidationError(
            "the pipeline requires object ids on every instance")
    subs = [bundle.with_scale(scale) for scale in bundle.scales]
    # under uniform weights a component channel's vector is keyed by channel
    vertical = {comp: f"channel{COMPONENT_IDS[comp]}" for comp in COMPONENTS}
    horizontal = [group_keys(sub.instances, "horizontal") for sub in subs]
    weights, weights_records = _fusion_weights(bundle, calib, cfg, {
        scale: {"vertical": vertical, "horizontal": dict(zip(oids, oids))}
        for scale, oids in zip(bundle.scales, horizontal)})
    frames = _Frames() if sink is None else sink
    frames.start(height, width, channels[0])
    level = None  # a scale's pass, unpulled, and its grid
    for sub in subs:
        scale = sub.scales[0]
        level = (_fuse_scale(sub, maps, weights, cfg, level,
                             finest=sub is subs[-1]),
                 (scaled_dim(height, scale), scaled_dim(width, scale)))
    bands, shape = level
    _emit(frames, _resample_rows(bands, shape, height, width))

    with frames.rows() as rows:
        instances = _label_instances(bundle, rows, cfg)
    carved = PredictionBundle(
        image_id=bundle.image_id, height=height, width=width,
        models=(PIPELINE_MODEL_ID,), scales=(1.0,), instances=instances,
        ground_truth=bundle.ground_truth)
    report = {
        "schema_version": 1,
        "kind": "pipeline_report",
        "image_id": bundle.image_id,
        "scales": list(bundle.scales),
        "weights": weights_records,
        "ap": _evaluation_records(carved, cfg),
    }
    if sink is not None:
        return PipelineResult(None, None, carved, report)
    return PipelineResult(LogitMap._own(frames.logits, checked=True),
                          frames.labels, carved, report)


def _label_instances(bundle: PredictionBundle, rows, cfg: PipelineConfig
                     ) -> tuple[MaskInstance, ...]:
    """Carve the final label grid into per-object component instances.

    Components form a containment chain (shell > meat > gonad > muscle) and
    the argmax keeps only the innermost label, so component c's mask is
    every pixel labeled c or deeper, restricted to the object's region.  Its
    score is the mean of P(label >= c) over those pixels, from the softmax of
    each region's logits.  Where two regions overlap, a labeled pixel is
    carved into both objects' instances.

    ``rows(r0, r1)`` reads rows [r0, r1) of the reference-grid logits and
    labels, a band of ``grids._band_rows`` rows of the frame's width at a
    time, and the softmax runs per band.  Each component's selected tail
    probabilities are gathered in row order and averaged by one
    ``np.mean``, so the score is that of the whole region.
    """
    out = []
    step = _band_rows(bundle.width)
    for oid, region in _object_regions(bundle, cfg).items():
        cols = region.slices[1]
        picked = {comp: [] for comp in COMPONENTS}
        region_labels = []
        for r0 in range(region.y0, region.y1, step):
            logits, labels = rows(r0, min(r0 + step, region.y1))
            logits, labels = logits[:, cols], labels[:, cols]
            channels = logits.shape[2]
            # tail_probs[:, c] = P(label >= c): the component-or-deeper
            # probability, summed from the last channel down one column at
            # a time
            tail_probs = softmax_rows(logits.reshape(-1, channels))
            for ch in range(channels - 2, -1, -1):
                tail_probs[:, ch] += tail_probs[:, ch + 1]
            band_labels = labels.ravel()
            for comp in COMPONENTS:
                ch = COMPONENT_IDS[comp]
                picked[comp].append(tail_probs[:, ch][band_labels >= ch])
            region_labels.append(labels)
        region_labels = np.concatenate(region_labels)
        for comp in COMPONENTS:
            bits = region_labels >= COMPONENT_IDS[comp]
            if not bits.any():
                continue
            score = float(np.mean(np.concatenate(picked[comp])))
            mask = rle_encode(bits, region, bundle.height, bundle.width)
            out.append(MaskInstance(
                mask=mask, bbox=_run_extent(mask),
                component=comp, object_id=oid, score=min(1.0, max(0.0, score)),
                model_id=PIPELINE_MODEL_ID, scale=1.0, uid=len(out)))
    return tuple(out)


def _evaluation_records(carved: PredictionBundle,
                        cfg: PipelineConfig) -> list[dict] | None:
    gts = carved.ground_truth
    return _ap_records(carved, gts, cfg) if gts else None


def _ap_records(bundle: PredictionBundle, gts: tuple[MaskInstance, ...],
                cfg: PipelineConfig, **extra) -> list[dict]:
    """AP records in ApTable entry order: vertical by (model, component),
    then horizontal by (model, object id) when every prediction and
    ground-truth record has an object id.  ``extra`` fields are added to
    every record."""
    records = []
    have_ids = all(i.object_id is not None for i in (*bundle.instances, *gts))
    for mode in ("vertical", "horizontal") if have_ids else ("vertical",):
        table = group_ap(bundle, gts, mode, cfg.iou_threshold)
        for (model, group), ap in table.entries.items():
            records.append({**extra, "mode": mode, "model": model,
                            "group": group, "ap": ap})
    return records


def write_pipeline_outputs(result: PipelineResult, out_dir) -> list[Path]:
    """Write an in-memory result's outputs into ``out_dir`` through the file
    sink the CLI streams to: its frame a band of rows at a time, with the
    labels ``argmax_channel`` derives from each band, as the run derived
    ``result.labels``, renamed into ``out_dir`` once all five are
    complete.  Returns the paths written, in write order."""
    logits = result.final_logits
    if logits is None:
        raise DataValidationError(
            "this pipeline result was streamed to a file sink and holds no "
            "frame to write")
    with _PipelineFiles(out_dir) as files:
        files.start(*logits.shape)
        step = _band_rows(logits.width)
        _emit(files, ((r0, logits.data[r0:r0 + step].copy())
                      for r0 in range(0, logits.height, step)))
        return files.commit(result)


# ---------------------------------------------------------------------------
# evaluation (the "evaluate" command)

def run_evaluate(pred: PredictionBundle, gt: PredictionBundle,
                 cfg: PipelineConfig) -> dict:
    """AP tables of a prediction manifest against a ground-truth manifest."""
    if pred.image_id != gt.image_id:
        raise DataValidationError(
            f"image id mismatch: predictions are for {pred.image_id!r}, "
            f"ground truth for {gt.image_id!r}")
    gts = gt.ground_truth
    if not gts:
        raise DataValidationError(
            "ground-truth manifest has no ground_truth records")
    records = []
    for scale in pred.scales:
        records += _ap_records(pred.with_scale(scale), gts, cfg, scale=scale)
    return {"schema_version": 1, "kind": "evaluation", "image_id": pred.image_id,
            "iou_threshold": cfg.iou_threshold, "records": records}
