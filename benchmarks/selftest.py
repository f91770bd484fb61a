"""Fast self-test of the benchmark harness.

Runs every workload's chain on the small 96x128 synth fixture (4 objects,
3 models, the workload's own scales), once timed and once traced, and
checks that each run is correct and prints every metric named in
``BENCHMARK.json`` with its unit.  Also checks that ``BENCHMARK.json``
agrees with ``spec.py``.  Run from the repository root:

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

from spec import END_TO_END, PER_LAYER, THREAD_VARS, WORKLOADS


def _check_benchmark_json(root: Path) -> None:
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why, w["name"]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


def main() -> int:
    root = Path.cwd()
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(root / "src"))
    from harness import run_workload

    _check_benchmark_json(root)
    for wl in WORKLOADS.values():
        tiny = dataclasses.replace(wl, height=96, width=128, objects=4, models=3)
        for trace, wanted in ((False, END_TO_END), (True, PER_LAYER)):
            result = run_workload(tiny, seed=7, seconds=0.0, trace=trace, root=root)
            problems = result["details"]["problems"]
            assert result["correct"] and result["failed"] == 0, problems
            assert result["attempted"] >= 2
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == {m.name: m.unit for m in wanted}, (wl.name, trace)
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), name
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values())
            print(f"ok {wl.name} trace={int(trace)} "
                  f"attempted={result['attempted']}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
