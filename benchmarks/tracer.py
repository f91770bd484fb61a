"""Outside-in tracer: spans around segfuse's public functions.

The tracer wraps each function in ``TARGETS`` and rebinds the wrapper in
every ``segfuse`` module that holds the original (``segfuse.metrics.iou`` as
well as ``segfuse.masks.iou``), so calls through module globals are caught
without touching the program.  Each span records its name, start, end,
parent and thread; spans stay in memory until the caller writes them out.

Tasks handed to ``pipeline._pmap`` get a span of their own whose parent is
the ``_pmap`` span, so work on the thread pool nests under the call that
scheduled it.  Counters (bytes, pixels, overlapping boxes) are updated by
hooks that run after the wrapped call; their cost is recorded as
``trace.bookkeeping`` spans so it is not charged to the program.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PMAP_TASK = "pipeline.pmap_task"
BOOKKEEPING = "trace.bookkeeping"
WRITERS = frozenset({"formats.save_manifest", "formats.save_tensor",
                     "formats.write_overlay", "formats.write_json_report"})
MODULES = ("formats", "masks", "bundle", "metrics", "fusion", "grids",
           "attention", "hierarchy", "pipeline")
COUNTERS = ("formats.tensor_bytes_read", "formats.bytes_written",
            "masks.iou_pixels", "masks.iou_overlap",
            "fusion.weighted_average_bytes", "grids.bilinear_resize_values")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_file(key, index, name):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += os.path.getsize(_arg(args, kwargs, index, name))
    return hook


def _count_result_file(tracer, args, kwargs, result):
    tracer.counters["formats.bytes_written"] += os.path.getsize(result)


def _iou_hook(tracer, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    tracer.counters["masks.iou_pixels"] += a.height * a.width
    ba, bb = tracer.tight_box(a), tracer.tight_box(b)
    if (ba is not None and bb is not None and ba[0] < bb[1] and bb[0] < ba[1]
            and ba[2] < bb[3] and bb[2] < ba[3]):
        tracer.counters["masks.iou_overlap"] += 1


def _group_ap_hook(tracer, args, kwargs, result):
    bundle = _arg(args, kwargs, 0, "bundle")
    tracer.group_ap_keys.add((bundle.image_id, bundle.models, bundle.scales))


def _weighted_average_hook(tracer, args, kwargs, result):
    tracer.counters["fusion.weighted_average_bytes"] += sum(
        a.nbytes for a in _arg(args, kwargs, 0, "arrays"))


def _resize_hook(tracer, args, kwargs, result):
    tracer.counters["grids.bilinear_resize_values"] += (
        result.height * result.width * result.channels)


# (module, attribute, span name, counter hook)
TARGETS = (
    ("formats", "load_manifest", "formats.load_manifest", None),
    ("formats", "load_tensor", "formats.load_tensor",
     _count_file("formats.tensor_bytes_read", 0, "path")),
    ("formats", "save_manifest", "formats.save_manifest", _count_result_file),
    ("formats", "save_tensor", "formats.save_tensor",
     _count_file("formats.bytes_written", 0, "path")),
    ("formats", "write_overlay", "formats.write_overlay",
     _count_file("formats.bytes_written", 3, "path")),
    ("formats", "write_json_report", "formats.write_json_report",
     _count_result_file),
    ("masks", "rle_decode", "masks.rle_decode", None),
    ("masks", "rle_encode", "masks.rle_encode", None),
    ("masks", "tight_bbox", "masks.tight_bbox", None),
    ("masks", "iou", "masks.iou", _iou_hook),
    ("masks", "crop", "masks.crop", None),
    ("bundle", "PredictionBundle.instances_for", "bundle.instances_for", None),
    ("bundle", "PredictionBundle.with_scale", "bundle.with_scale", None),
    ("metrics", "group_ap", "metrics.group_ap", _group_ap_hook),
    ("metrics", "match_predictions", "metrics.match_predictions", None),
    ("fusion", "fuse_masks", "fusion.fuse_masks", None),
    ("fusion", "weighted_average", "fusion.weighted_average",
     _weighted_average_hook),
    ("fusion", "binarize", "fusion.binarize", None),
    ("fusion", "fuse_logits", "fusion.fuse_logits", None),
    ("grids", "bilinear_resize", "grids.bilinear_resize", _resize_hook),
    ("grids", "argmax_channel", "grids.argmax_channel", None),
    ("grids", "softmax_rows", "grids.softmax_rows", None),
    ("attention", "difference_matrix", "attention.difference_matrix", None),
    ("attention", "local_attention", "attention.local_attention", None),
    ("attention", "attention_to_map", "attention.attention_to_map", None),
    ("attention", "fuse_global_local", "attention.fuse_global_local", None),
    ("hierarchy", "run_inference_chain", "hierarchy.run_inference_chain", None),
    ("pipeline", "run_fuse", "pipeline.run_fuse", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "run_evaluate", "pipeline.run_evaluate", None),
    ("pipeline", "write_fuse_outputs", "pipeline.write_fuse_outputs", None),
    ("pipeline", "write_pipeline_outputs", "pipeline.write_pipeline_outputs", None),
    ("pipeline", "_ap_table", "pipeline.ap_table", None),
    ("pipeline", "_fuse_global", "pipeline.fuse_global", None),
    ("pipeline", "_local_map", "pipeline.local_map", None),
    ("pipeline", "_mean_alpha", "pipeline.mean_alpha", None),
    ("pipeline", "_label_instances", "pipeline.label_instances", None),
    ("pipeline", "_evaluation_records", "pipeline.evaluation", None),
    ("pipeline", "_pmap", "pipeline.pmap", None),
)


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, name, start, end, parent, thread)
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self.group_ap_keys: set = set()
        self.pmap_workers: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._boxes: dict[int, tuple] = {}
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, hook=None, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        if name == "pipeline.pmap":
            args, kwargs = self._schedule_tasks(sid, args, kwargs), {}
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
        if hook is not None:
            hook(self, args, kwargs, result)
            self.spans.append((next(self._ids), BOOKKEEPING, t1, perf_counter(),
                               parent, threading.get_ident()))
        return result

    def _schedule_tasks(self, sid, args, kwargs):
        fn = _arg(args, kwargs, 0, "fn")
        items = list(_arg(args, kwargs, 1, "items"))
        workers = _arg(args, kwargs, 2, "workers")
        # _pmap runs inline for one worker or one item, else one thread each
        self.pmap_workers[sid] = (1 if workers <= 1 or len(items) <= 1
                                  else min(workers, len(items)))

        def task(item):
            return self.call(PMAP_TASK, fn, (item,), {}, parent=sid)
        return (task, items, workers)

    def tight_box(self, mask):
        """(y0, y1, x0, x1) of the set pixels of ``mask``, memoized per mask."""
        hit = self._boxes.get(id(mask))
        if hit is not None and hit[0] is mask:
            return hit[1]
        rows = mask.bits.any(axis=1).nonzero()[0]
        cols = mask.bits.any(axis=0).nonzero()[0]
        box = (None if rows.size == 0 else
               (int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1))
        self._boxes[id(mask)] = (mask, box)
        return box

    def command(self, kind: str, fn):
        """Run one whole command as a root span ``cli.<kind>``."""
        try:
            return self.call(f"cli.{kind}", fn, (), {})
        finally:
            self._boxes.clear()

    # -- installing --------------------------------------------------------

    def _wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target in every loaded segfuse module, then restore."""
        importlib.import_module("segfuse.cli")
        for module in MODULES:
            importlib.import_module(f"segfuse.{module}")
        holders = [m for n, m in sys.modules.items()
                   if n == "segfuse" or n.startswith("segfuse.")]
        try:
            for module, attr, name, hook in TARGETS:
                owner = sys.modules[f"segfuse.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrapper(name, orig, hook))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrapper(name, orig, hook)
                for mod in holders:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for obj, key, orig in reversed(self._restore):
                setattr(obj, key, orig)
            self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span once, times relative to the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        rows = [{"id": sid, "name": name, "start": start - t0, "end": end - t0,
                 "parent": parent,
                 "thread": threads.setdefault(thread, len(threads))}
                for sid, name, start, end, parent, thread in
                sorted(self.spans, key=lambda s: s[2])]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": rows}, f)

    def analyse(self):
        """Per-span self time and child overlap, plus consistency problems.

        A span's self time is its duration minus the union of its children's
        intervals.  Children on pool threads can overlap each other; the
        overlap is the sum of their durations minus that union.  When every
        span lies inside a command and every child inside its parent, self
        times partition each command's wall time:
        wall = sum(self) - sum(overlap) over the command's spans.
        """
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        problems = []
        for span in self.spans:
            sid, name, start, end, parent, _ = span
            children[parent].append(span)
            if parent is None:
                if not name.startswith("cli."):
                    problems.append(f"span {name} ran outside any command")
            elif not (by_id[parent][2] <= start and end <= by_id[parent][3]):
                problems.append(f"span {name} escapes its parent "
                                f"{by_id[parent][1]}")
        self_time, overlap = {}, {}
        for sid, _, start, end, _, _ in self.spans:
            kids = sorted((c[2], c[3]) for c in children.get(sid, ()))
            covered, lo, hi = 0.0, None, None
            for s, e in kids:
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
            self_time[sid] = (end - start) - covered
            overlap[sid] = sum(e - s for s, e in kids) - covered
        return self_time, overlap, problems[:5]

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Every per-layer value the traced run yields, and consistency problems.

        ``<span>_s`` is inclusive time summed over calls, ``<span>_calls`` the
        call count, ``<module>.self_s`` the module's summed self time.
        """
        self_time, overlap, problems = self.analyse()
        by_id = {s[0]: s for s in self.spans}
        total = defaultdict(float)
        calls = Counter()
        module_self = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            module_self[name.split(".")[0]] += self_time[sid]

        def outermost_writer(span):
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1] in WRITERS:
                    return False
                parent = by_id.get(parent[4])
            return True

        m = dict(self.counters)
        for _, _, name, _ in TARGETS:
            m[f"{name}_s"] = total[name]
            m[f"{name}_calls"] = calls[name]
        for module in MODULES:
            m[f"{module}.self_s"] = module_self[module]
        iou_calls = calls["masks.iou"]
        pmap_capacity = sum(self.pmap_workers[s[0]] * (s[3] - s[2])
                            for s in self.spans if s[1] == "pipeline.pmap")
        m.update({
            "formats.write_s": sum(s[3] - s[2] for s in self.spans
                                   if s[1] in WRITERS and outermost_writer(s)),
            "masks.iou_overlap_frac": (self.counters["masks.iou_overlap"]
                                       / iou_calls if iou_calls else 0.0),
            "metrics.group_ap_repeat_calls": (calls["metrics.group_ap"]
                                              - len(self.group_ap_keys)),
            "metrics.match_self_s": sum(self_time[s[0]] for s in self.spans
                                        if s[1] == "metrics.match_predictions"),
            "pipeline.pmap_busy_frac": (total[PMAP_TASK] / pmap_capacity
                                        if pmap_capacity else 0.0),
            "trace.wall_s": sum(s[3] - s[2] for s in self.spans if s[4] is None),
            "trace.unattributed_s": module_self["cli"],
            "trace.bookkeeping_s": module_self["trace"],
            "trace.parallel_overlap_s": sum(overlap.values()),
            "trace.span_count": len(self.spans),
        })
        return m, problems
