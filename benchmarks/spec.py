"""Workloads and metric catalogue of the segfuse benchmark.

Each workload is a synthetic fixture geometry plus the chain of ``segfuse``
commands run on every image.  The metric tables give each metric's unit and
direction; per-layer entries also name the end-to-end metric and workload
the layer should move.  ``BENCHMARK.json`` repeats the names, units and
directions; ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

FUSE_OUTPUTS = ("fused_vertical.json", "weights_vertical.json",
                "fused_horizontal.json", "weights_horizontal.json")
PIPELINE_OUTPUTS = ("fused_logits.tns", "labels.tns", "overlay.ppm",
                    "instances.json", "report.json")

# pinned to 1 in every process the benchmark runs, so timings do not depend
# on how many cores the BLAS or OpenMP runtime decides to use
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Command:
    """One ``segfuse`` invocation and the files it must leave behind."""

    kind: str                   # fuse | evaluate | pipeline
    argv: tuple[str, ...]       # arguments after ``segfuse``
    outputs: tuple[Path, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    height: int
    width: int
    objects: int
    models: int
    scales: tuple[float, ...]
    commands: tuple[str, ...]   # the per-image chain, in order
    workers: int
    why: str

    def synth_argv(self, seed: int, out_dir: Path) -> tuple[str, ...]:
        return ("synth", "--seed", str(seed), "--objects", str(self.objects),
                "--models", str(self.models), "--height", str(self.height),
                "--width", str(self.width), "--scales",
                *(repr(s) for s in self.scales), "--out-dir", str(out_dir))

    def chain(self, image: Path, calib: Path, out_dir: Path,
              workers: int | None = None) -> list[Command]:
        """The commands run on one image, writing under ``out_dir``."""
        workers = self.workers if workers is None else workers
        out = []
        for kind in self.commands:
            if kind == "fuse":
                d = out_dir / "fuse"
                argv = ("fuse", str(image), "--grouping", "both",
                        "--calib", str(calib), "--out-dir", str(d))
                outputs = tuple(d / f for f in FUSE_OUTPUTS)
            elif kind == "evaluate":
                path = out_dir / "evaluation.json"
                argv = ("evaluate", str(image), str(image), "--out", str(path))
                outputs = (path,)
            elif kind == "pipeline":
                d = out_dir / "pipeline"
                argv = ("pipeline", str(image), "--calib", str(calib),
                        "--out-dir", str(d))
                if workers != 1:
                    argv += ("--workers", str(workers))
                outputs = tuple(d / f for f in PIPELINE_OUTPUTS)
            else:
                raise ValueError(f"unknown command kind {kind!r}")
            out.append(Command(kind, argv, outputs))
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="calib_masks", height=640, width=640, objects=25, models=5,
        scales=(1.0,), commands=("fuse", "evaluate"), workers=1,
        why="640x640, 25 objects, 5 models, scale 1.0; fuse --grouping both "
            "then evaluate: RLE decode, full-frame IoU, greedy matching and "
            "mask averaging; no grids or attention work"),
    Workload(
        name="dense_scales", height=1024, width=1024, objects=4, models=3,
        scales=(0.25, 0.5, 1.0), commands=("pipeline",), workers=1,
        why="1024x1024, 4 objects, 3 models, scales 0.25/0.5/1.0; pipeline: "
            "grids up to 21 MB each, so resize, logit ensemble, attention, "
            "scale fold and tensor I/O dominate"),
    Workload(
        name="pipeline_ap", height=640, width=640, objects=16, models=4,
        scales=(0.5, 1.0), commands=("pipeline",), workers=2,
        why="640x640, 16 objects, 4 models, scales 0.5/1.0; pipeline "
            "--workers 2: the paper's default path, AP tables per scale plus "
            "per-object attention on the thread pool"),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # lower | higher
    bound: float | None = None  # end-to-end only
    moves: str = ""             # per-layer only: end-to-end metric and workloads


END_TO_END = (
    Metric("image_s", "s", "lower", 0.25),
    Metric("images_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
)

_MASK_FUSE = "image_s on calib_masks"
_DENSE = "image_s on dense_scales"
_AP = "image_s on pipeline_ap"
_PIPES = "image_s on dense_scales and pipeline_ap"

PER_LAYER = (
    # formats: JSON + RLE parsing on calib_masks, tensor I/O on dense_scales
    Metric("formats.load_manifest_s", "s", "lower", moves=f"{_MASK_FUSE}; {_DENSE}"),
    Metric("formats.load_manifest_calls", "count", "lower", moves=_MASK_FUSE),
    Metric("formats.load_tensor_s", "s", "lower", moves=_DENSE),
    Metric("formats.tensor_bytes_read", "bytes", "lower", moves=_DENSE),
    Metric("formats.write_s", "s", "lower", moves=_DENSE),
    Metric("formats.bytes_written", "bytes", "lower", moves=_DENSE),
    # masks: every decode keeps a full-frame bool array
    Metric("masks.rle_decode_calls", "count", "lower",
           moves=f"{_MASK_FUSE}; peak_rss_mb everywhere"),
    Metric("masks.rle_decode_s", "s", "lower", moves=_MASK_FUSE),
    Metric("masks.rle_encode_s", "s", "lower", moves=_MASK_FUSE),
    Metric("masks.tight_bbox_s", "s", "lower", moves=_MASK_FUSE),
    Metric("masks.iou_calls", "count", "lower", moves=f"{_MASK_FUSE}; {_AP}"),
    Metric("masks.iou_s", "s", "lower", moves=f"{_MASK_FUSE}; {_AP}"),
    Metric("masks.iou_overlap_frac", "ratio", "higher", moves=_MASK_FUSE),
    Metric("masks.iou_pixels", "pixels", "lower", moves=f"{_MASK_FUSE}; {_AP}"),
    Metric("masks.crop_s", "s", "lower", moves=_PIPES),
    # bundle: linear scans over every instance
    Metric("bundle.instances_for_calls", "count", "lower", moves=_MASK_FUSE),
    Metric("bundle.instances_for_s", "s", "lower", moves=_MASK_FUSE),
    Metric("bundle.with_scale_s", "s", "lower", moves=_MASK_FUSE),
    # metrics: AP tables rebuilt from the same pairs
    Metric("metrics.group_ap_calls", "count", "lower", moves=f"{_MASK_FUSE}; {_AP}"),
    Metric("metrics.group_ap_repeat_calls", "count", "lower",
           moves=f"{_MASK_FUSE}; {_AP}"),
    Metric("metrics.group_ap_s", "s", "lower", moves=f"{_MASK_FUSE}; {_AP}"),
    Metric("metrics.match_self_s", "s", "lower", moves=f"{_MASK_FUSE}; {_AP}"),
    # fusion: mask averaging on calib_masks, logit ensemble on dense_scales
    Metric("fusion.fuse_masks_calls", "count", "lower", moves=_MASK_FUSE),
    Metric("fusion.fuse_masks_s", "s", "lower", moves=_MASK_FUSE),
    Metric("fusion.weighted_average_s", "s", "lower", moves=f"{_MASK_FUSE}; {_DENSE}"),
    Metric("fusion.weighted_average_bytes", "bytes", "lower",
           moves=f"{_MASK_FUSE}; {_DENSE}"),
    Metric("fusion.binarize_s", "s", "lower", moves=_MASK_FUSE),
    Metric("fusion.fuse_logits_s", "s", "lower", moves=_DENSE),
    # grids
    Metric("grids.bilinear_resize_calls", "count", "lower", moves=_DENSE),
    Metric("grids.bilinear_resize_s", "s", "lower", moves=_DENSE),
    Metric("grids.bilinear_resize_values", "values", "lower", moves=_DENSE),
    Metric("grids.argmax_channel_s", "s", "lower", moves=_DENSE),
    Metric("grids.softmax_rows_s", "s", "lower", moves=_PIPES),
    # attention
    Metric("attention.difference_matrix_s", "s", "lower", moves=_PIPES),
    Metric("attention.local_attention_s", "s", "lower", moves=_PIPES),
    Metric("attention.attention_to_map_s", "s", "lower", moves=_PIPES),
    Metric("attention.fuse_global_local_s", "s", "lower", moves=_PIPES),
    # hierarchy
    Metric("hierarchy.run_inference_chain_s", "s", "lower", moves=_DENSE),
    # pipeline stage helpers
    Metric("pipeline.ap_table_s", "s", "lower", moves=_AP),
    Metric("pipeline.fuse_global_s", "s", "lower", moves=_PIPES),
    Metric("pipeline.local_map_s", "s", "lower", moves=_PIPES),
    Metric("pipeline.mean_alpha_s", "s", "lower", moves=_DENSE),
    Metric("pipeline.label_instances_s", "s", "lower", moves=_PIPES),
    Metric("pipeline.evaluation_s", "s", "lower", moves=_PIPES),
    Metric("pipeline.pmap_s", "s", "lower", moves=_AP),
    Metric("pipeline.pmap_busy_frac", "ratio", "higher", moves=_AP),
    # self time per module: with trace.unattributed_s they add up to the
    # traced wall time (less trace.parallel_overlap_s)
    Metric("formats.self_s", "s", "lower", moves=f"{_MASK_FUSE}; {_DENSE}"),
    Metric("masks.self_s", "s", "lower", moves=_MASK_FUSE),
    Metric("bundle.self_s", "s", "lower", moves=_MASK_FUSE),
    Metric("metrics.self_s", "s", "lower", moves=f"{_MASK_FUSE}; {_AP}"),
    Metric("fusion.self_s", "s", "lower", moves=f"{_MASK_FUSE}; {_DENSE}"),
    Metric("grids.self_s", "s", "lower", moves=_DENSE),
    Metric("attention.self_s", "s", "lower", moves=_PIPES),
    Metric("hierarchy.self_s", "s", "lower", moves=_DENSE),
    Metric("pipeline.self_s", "s", "lower", moves=_PIPES),
    # the trace itself
    Metric("trace.wall_s", "s", "lower", moves="image_s on every workload"),
    Metric("trace.unattributed_s", "s", "lower", moves="image_s on every workload"),
    Metric("trace.bookkeeping_s", "s", "lower", moves="none (tracer cost)"),
    Metric("trace.parallel_overlap_s", "s", "higher", moves=_AP),
    Metric("trace.overhead_frac", "ratio", "lower", moves="none (tracer cost)"),
    Metric("trace.span_count", "count", "lower", moves="none (tracer cost)"),
    # untraced wall time of each command kind, one process each
    Metric("cli.fuse_s", "s", "lower", moves=_MASK_FUSE),
    Metric("cli.evaluate_s", "s", "lower", moves=_MASK_FUSE),
    Metric("cli.pipeline_s", "s", "lower", moves=_PIPES),
)
