"""Runs one workload: set-up, then the timed loop or the traced run.

Timed run (``trace=False``): a closed loop with one client.  For each image
the workload's command chain runs, one ``segfuse`` process per command,
each starting after the previous one has ended.  The loop stops at the
first chain boundary after ``seconds`` (and after at least two chains).

Traced run (``trace=True``): the chain runs once as processes (untraced
per-command wall times), then three times in this process: untraced,
under the outside-in tracer, and untraced again.  The untraced runs on
either side of the traced one give the tracing overhead.

Every command counts as attempted; it fails if it exits non-zero, if an
output invariant is broken, or if its output digests differ from the first
run of the same command (or, for a workload run with several workers, from
a one-worker reference run during set-up).
"""

from __future__ import annotations

import functools
import gc
import io
import itertools
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import check, digests, tree_digests
from spec import END_TO_END, PER_LAYER, THREAD_VARS, Command, Workload

SETUP_ROUNDS = 3
MIN_CHAINS = 2
BUDGET_S = 165.0  # a run must end well within 180 s


@dataclass
class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems


@dataclass
class Proc:
    seconds: float
    rss_mb: float
    code: int
    stderr: str


class Runner:
    """Launches ``segfuse`` commands as child processes of this one."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        env.update({v: "1" for v in THREAD_VARS})
        self.env = env

    def out_of_time(self) -> bool:
        return perf_counter() >= self.deadline

    def run(self, argv) -> Proc:
        """Run ``segfuse <argv>``; wall time from launch until it is reaped."""
        log = self.work / "stderr.log"
        with open(log, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "segfuse.cli", *argv], cwd=self.root,
                env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                    log.read_text(errors="replace")[-400:])


class Verifier:
    """Digest comparison and invariant checks, memoized per digest set."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.references: dict[int, dict] = {}  # chain position -> digests
        self.verdicts: dict[tuple, list[str]] = {}
        self.records: list[dict] = []  # sha256 of every output, per command run

    def verify(self, position: int, cmd: Command, code: int, stderr: str,
               label: str) -> bool:
        if code != 0:
            return self.tally.record(label, [f"exit code {code}: {stderr.strip()}"])
        dig = digests(cmd.outputs)
        self.records.append({"command": label, "sha256": dig})
        ref = self.references.setdefault(position, dig)
        if dig != ref:
            changed = sorted(k for k in ref if ref[k] != dig.get(k))
            return self.tally.record(label, [f"outputs differ from the first "
                                             f"run: {changed}"])
        key = (cmd.kind, tuple(sorted(dig.items())))
        if key not in self.verdicts:
            self.verdicts[key] = check(cmd.kind, cmd.outputs)
        return self.tally.record(label, self.verdicts[key])


def _warm_up(runner: Runner, tally: Tally) -> None:
    # imports every module once, so byte-code compilation and cold page
    # cache are not charged to the first timed command
    p = runner.run(("--help",))
    tally.record("warm-up", [] if p.code == 0 else [f"exit code {p.code}"])


def _setup(wl: Workload, seed: int, runner: Runner, tally: Tally,
           rounds: int) -> tuple[Path, Path, list[float]]:
    """Generate the image and calibration fixtures ``rounds`` times.

    Returns the first round's manifests and each round's synth wall time;
    later rounds must reproduce the first byte for byte.
    """
    seeds = {"image": 2 * seed, "calib": 2 * seed + 1}
    times, first = [], {}
    for r in range(rounds):
        total = 0.0
        for role, s in seeds.items():
            out = runner.work / f"setup{r}" / role
            p = runner.run(wl.synth_argv(s, out))
            total += p.seconds
            problems = [] if p.code == 0 else [f"exit code {p.code}: {p.stderr}"]
            if not problems:
                dig = tree_digests(out)
                if first.setdefault(role, dig) != dig:
                    problems.append("fixture differs from the first round")
            tally.record(f"synth {role} round {r}", problems)
        times.append(total)
        if r > 0:
            shutil.rmtree(runner.work / f"setup{r}")
    base = runner.work / "setup0"
    return base / "image" / "manifest.json", base / "calib" / "manifest.json", times


def _process_chain(commands: list[Command], runner: Runner, verifier: Verifier,
                   label: str) -> tuple[list[Proc], bool]:
    """Run a chain, one process per command; stop at the first failure."""
    procs = []
    for i, cmd in enumerate(commands):
        p = runner.run(cmd.argv)
        procs.append(p)
        if not verifier.verify(i, cmd, p.code, p.stderr, f"{cmd.kind} {label}"):
            return procs, False
    return procs, True


def _timed(wl: Workload, seed: int, seconds: float, runner: Runner,
           tally: Tally) -> tuple[dict, dict]:
    _warm_up(runner, tally)
    image, calib, setup_times = _setup(wl, seed, runner, tally, SETUP_ROUNDS)
    verifier = Verifier(tally)
    if wl.workers != 1:
        _process_chain(wl.chain(image, calib, runner.work / "reference",
                                workers=1), runner, verifier, "reference 1 worker")
    chain_times, command_time, peak_rss = [], 0.0, 0.0
    per_kind: dict[str, list[float]] = {k: [] for k in wl.commands}
    start = perf_counter()
    for k in itertools.count():
        out = runner.work / f"image{k}"
        procs, ok = _process_chain(wl.chain(image, calib, out), runner, verifier,
                                   f"image {k}")
        shutil.rmtree(out, ignore_errors=True)
        command_time += sum(p.seconds for p in procs)
        peak_rss = max([peak_rss] + [p.rss_mb for p in procs])
        for kind, p in zip(wl.commands, procs):
            per_kind[kind].append(p.seconds)
        if ok:
            chain_times.append(sum(p.seconds for p in procs))
        if runner.out_of_time() or (k + 1 >= MIN_CHAINS
                                    and perf_counter() - start >= seconds):
            break
    metrics = {
        "image_s": statistics.median(chain_times) if chain_times else 0.0,
        "images_per_s": len(chain_times) / command_time if command_time else 0.0,
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_times),
    }
    details = {"images": len(chain_times), "chain_s": chain_times,
               "command_s": per_kind, "setup_s": setup_times,
               "outputs": verifier.records}
    return metrics, details


def _in_process_chain(commands: list[Command], verifier: Verifier, label: str,
                      tracer=None) -> list[float]:
    """Run a chain through ``segfuse.cli.main`` in this process."""
    from segfuse import cli

    times = []
    for i, cmd in enumerate(commands):
        gc.collect()
        sink = io.StringIO()
        main = functools.partial(cli.main, list(cmd.argv))
        t0 = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = main() if tracer is None else tracer.command(cmd.kind, main)
        except SystemExit as e:
            code = e.code
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = 1
            sink.write(traceback.format_exc())
        times.append(perf_counter() - t0)
        if not verifier.verify(i, cmd, code, sink.getvalue()[-400:],
                               f"{cmd.kind} {label}"):
            break
    return times


def _traced(wl: Workload, seed: int, runner: Runner, tally: Tally,
            spans_path: Path) -> tuple[dict, dict]:
    from tracer import Tracer

    _warm_up(runner, tally)
    image, calib, _ = _setup(wl, seed, runner, tally, 1)
    verifier = Verifier(tally)
    procs, _ = _process_chain(wl.chain(image, calib, runner.work / "cli"),
                              runner, verifier, "untraced process")
    cli_s = {kind: 0.0 for kind in ("fuse", "evaluate", "pipeline")}
    for kind, p in zip(wl.commands, procs):
        cli_s[kind] = p.seconds
    # untraced runs on both sides of the traced one, so warming of this
    # process does not show up as (negative) tracing overhead
    plain = _in_process_chain(wl.chain(image, calib, runner.work / "plain0"),
                              verifier, "untraced in-process")
    tracer = Tracer()
    with tracer.installed():
        traced = _in_process_chain(wl.chain(image, calib, runner.work / "traced"),
                                   verifier, "traced in-process", tracer)
    plain += _in_process_chain(wl.chain(image, calib, runner.work / "plain1"),
                               verifier, "untraced in-process")
    tracer.write(spans_path)
    metrics, problems = tracer.layer_metrics()
    tally.record("trace consistency", problems)
    untraced = sum(plain) / 2
    metrics["trace.overhead_frac"] = (sum(traced) / untraced - 1.0
                                      if untraced else 0.0)
    metrics.update({f"cli.{kind}_s": s for kind, s in cli_s.items()})
    details = {"in_process_s": {"untraced": plain, "traced": traced},
               "spans": str(spans_path), "outputs": verifier.records}
    return metrics, details


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """Run one workload and return the result record (see ``run.py``)."""
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-",
                                 dir=root / ".bench_work"))
    tally = Tally()
    runner = Runner(root, work, perf_counter() + BUDGET_S)
    try:
        if trace:
            metrics, details = _traced(
                wl, seed, runner, tally,
                results / f"{wl.name}-seed{seed}-spans.json")
        else:
            metrics, details = _timed(wl, seed, seconds, runner, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = PER_LAYER if trace else END_TO_END
    details["problems"] = tally.problems
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in wanted},
        "details": details,
    }
