"""Command-line surface: synth, fuse, pipeline, evaluate.

Exit codes: 0 success, 1 usage error, 2 data or contract error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import PipelineConfig
from .errors import DataValidationError, SegfuseError
from .formats import (_json_text, _Staged, load_manifest, save_manifest,
                      write_json_report)
from .pipeline import (_PipelineFiles, run_evaluate, run_fuse, run_pipeline,
                       write_fuse_outputs)
from .synth import generate


# PipelineConfig is the one place the algorithm defaults are written; each
# command's set_defaults also fills in the defaults that --help shows
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}
_IOU_HELP = "mask IoU needed for a true positive (default %(default)s)"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iou-threshold", type=float, help=_IOU_HELP)
    p.add_argument("--normalization", choices=("fraction", "minmax"),
                   help="AP normalization before weighting (default %(default)s)")
    p.add_argument("--out-dir", default="out", help="output directory")


def _add_weight_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("manifest", help="prediction manifest (JSON)")
    p.add_argument("--calib", metavar="MANIFEST",
                   help="manifest of the weight-calibration split; required "
                        "with --weights ap")
    p.add_argument("--weights", dest="weights_mode", choices=("ap", "uniform"),
                   help="model weighting: AP-derived or uniform (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segfuse",
                     description="Deterministic multi-model, multi-scale "
                                 "segmentation fusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic fixture")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objects", type=int, default=4)
    p.add_argument("--models", type=int, default=3)
    p.add_argument("--height", type=int, default=96)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--perturb", type=int, default=2,
                   help="max perturbation magnitude; model 0 is always exact")
    p.add_argument("--scales", type=float, nargs="+", default=[0.5, 1.0])
    p.add_argument("--out-dir", default="out")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("fuse", help="weighted mask fusion across models")
    _add_weight_source(p)
    _add_common(p)
    p.add_argument("--grouping", choices=("vertical", "horizontal", "both"),
                   default="vertical")
    p.add_argument("--binarize-threshold", type=float,
                   help="soft-mask threshold (default %(default)s)")
    p.set_defaults(**_CONFIG_DEFAULTS, run=_cmd_fuse)

    p = sub.add_parser("pipeline",
                       help="full dense pipeline: ensemble, attention, "
                            "scale chain")
    _add_weight_source(p)
    _add_common(p)
    p.add_argument("--attention-factor", type=float,
                   help="sharpness of the difference softmax (default %(default)s)")
    p.add_argument("--beta-const", type=float,
                   help="skip the attention computation and use this constant "
                        "frame/object gate")
    p.add_argument("--neutral-beta", type=float,
                   help="gate value outside every object region (default %(default)s)")
    p.add_argument("--alpha-const", type=float,
                   help="scale gate used when the manifest has no alpha maps "
                        "(default %(default)s)")
    p.add_argument("--expand-factor", type=float,
                   help="expansion of each object's bounding box (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="checked to be >= 1 before any manifest is read; "
                        "starts no thread, the engine runs on one (default 1)")
    p.set_defaults(**_CONFIG_DEFAULTS, run=_cmd_pipeline)

    p = sub.add_parser("evaluate", help="AP tables of predictions vs ground truth")
    p.add_argument("manifest", help="prediction manifest (JSON)")
    p.add_argument("gt_manifest", help="manifest holding ground_truth records")
    p.add_argument("--iou-threshold", type=float, help=_IOU_HELP)
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")
    p.set_defaults(**_CONFIG_DEFAULTS, run=_cmd_evaluate)
    return parser


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(**{name: getattr(args, name) for name in _CONFIG_DEFAULTS})


def _load_again(path, args, first):
    """``first``, loaded from ``args.manifest``, when ``path`` names the same
    file; otherwise the manifest at ``path``, without its maps."""
    same = Path(path).resolve() == Path(args.manifest).resolve()
    return first if same else load_manifest(path, maps=False)


def _load_calib(args, parser, bundle):
    if args.weights_mode == "ap" and not args.calib:
        parser.error("--weights ap requires --calib MANIFEST "
                     "(name the weight-calibration split explicitly)")
    # a named manifest is read and checked under any weights; uniform
    # weights use none of its APs
    return args.calib and _load_again(args.calib, args, bundle)


def _cmd_synth(args, parser) -> list[Path]:
    bundle = generate(args.seed, objects=args.objects, models=args.models,
                      height=args.height, width=args.width,
                      perturb=args.perturb, scales=args.scales)
    with _Staged(args.out_dir) as stage:  # its tensors are renamed first
        save_manifest(bundle, stage.staging / "manifest.json")
        return stage.commit(["manifest.json"])


def _cmd_fuse(args, parser) -> list[Path]:
    cfg = _config_from(args)
    bundle = load_manifest(args.manifest, maps=False)
    calib = _load_calib(args, parser, bundle)
    modes = (("vertical", "horizontal") if args.grouping == "both"
             else (args.grouping,))
    with _Staged(args.out_dir) as stage:
        staged = [path.name for mode in modes for path in write_fuse_outputs(
            *run_fuse(bundle, calib, cfg, mode), cfg, mode, stage.staging)]
        return stage.commit(staged)


def _cmd_pipeline(args, parser) -> list[Path]:
    if args.workers < 1:
        raise DataValidationError("workers must be >= 1")
    cfg = _config_from(args)
    maps = {}  # each scale's tensors are read again when it is fused
    bundle = load_manifest(args.manifest, maps=maps)
    calib = _load_calib(args, parser, bundle)
    with _PipelineFiles(args.out_dir) as files:
        return files.commit(run_pipeline(bundle, calib, cfg, maps, files))


def _cmd_evaluate(args, parser) -> list[Path]:
    cfg = _config_from(args)
    pred = load_manifest(args.manifest, maps=False)
    gt = _load_again(args.gt_manifest, args, pred)
    report = run_evaluate(pred, gt, cfg)
    if not args.out:
        print(_json_text(report), end="")
        return []
    out = Path(args.out)
    with _Staged(out.parent) as stage:
        write_json_report(report, stage.staging / out.name)
        return stage.commit([out.name])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a handler returns the paths it committed: a failed run has none
        paths = args.run(args, parser)
    except (SegfuseError, OSError) as e:
        print(f"segfuse: error: {e}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
