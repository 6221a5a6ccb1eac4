"""Benchmark child process: one workload, measured in a fresh interpreter.

run.py starts it with the checkout's ``src/`` on PYTHONPATH and the
BLAS/OpenMP thread count pinned to 1.  Its last stdout line is one JSON
object with the measured values.  Modes:

- ``setup``: time ``import waveaction`` plus parsing and building the
  workload's scenarios (the dicts are generated before the clock starts);
- ``measure``: one warm-up pass, then timed passes through
  ``runner.run_scenario`` until ``--seconds`` have passed; after each
  scenario, chunks of the fixed reference kernel (reference.py) run for
  about a quarter as long as the scenario took; tracing off;
- ``trace``: untraced and traced passes in turn until ``--seconds`` have
  passed, then the kernel probes.

On a shared 2-vCPU machine the speed of the whole machine drifts by up
to a third, in phases of seconds to tens of minutes.  A pass time alone
follows those phases; so does the reference kernel, which no change to
the toolkit can speed up.  ``wall_rel`` divides the time of each
scenario by the mean reference chunk time measured just before and just
after it, sums these over the pass, and averages over the timed passes,
so drift slower than a scenario cancels.  The warm-up pass pays for
first-touch costs and is checked but not timed.

A pass runs every scenario of the workload once, one after another, in
this single process (a closed loop with one client).  Every pass is
checked by the output oracles, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

MIN_PASSES = 3
# Reference time run after each timed scenario, as a share of its time.
REFERENCE_SHARE = 0.25


def setup_seconds(dicts: list) -> float:
    start = time.perf_counter()
    import waveaction
    from waveaction.scenario import build_config, build_grid, build_initial_state, build_plan

    for d in dicts:
        scenario = waveaction.parse_scenario_dict(d)
        build_config(scenario)
        build_initial_state(scenario, build_grid(scenario))
        if scenario.task["kind"] in ("propagate", "gp-propagate", "verify"):
            build_plan(scenario)
    return time.perf_counter() - start


class Passes:
    """Runs and checks passes over one workload's scenarios, keeping the tally."""

    def __init__(self, dicts: list, out_root: Path):
        from checker import Checker

        self.dicts = dicts
        self.checker = Checker(dicts)
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.walls: list = []
        self.reference_walls: list = []

    def run(self, after_scenario=None) -> dict:
        """One pass: parse, run every scenario, then check and measure the outputs.

        The pass time is the sum of the scenario times.  ``after_scenario``,
        if given, is called with each scenario's time, outside the timing.
        """
        from waveaction import parse_scenario_dict, run_scenario

        out = self.out_root / f"pass-{len(self.walls):03d}"
        scenarios = [parse_scenario_dict(d) for d in self.dicts]
        raised = set()
        wall = 0.0
        for i, scenario in enumerate(scenarios):
            start = time.perf_counter()
            try:
                run_scenario(scenario, out / f"{i:02d}", quiet=True)
            except Exception:  # a scenario that raises is a failed operation, not a crash
                traceback.print_exc()
                raised.add(i)
            elapsed = time.perf_counter() - start
            wall += elapsed
            if after_scenario is not None:
                after_scenario(elapsed)
        for i, d in enumerate(self.dicts):
            self.attempted += 1
            try:
                problems = ["raised"] if i in raised else self.checker.problems(i, out / f"{i:02d}")
            except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.failed += 1
                print(f"FAILED {d['name']}: {'; '.join(problems)}", file=sys.stderr)
        self.walls.append(wall)
        files = [p for p in out.rglob("*") if p.is_file()]
        written = sum(p.stat().st_size for p in files)
        shutil.rmtree(out)
        return {"wall_s": wall, "bytes": written, "files": len(files)}


def _timed_loop(seconds: float, body, min_passes: int) -> list:
    """Repeat body until the next repeat would end after ``seconds``."""
    results = []
    start = last = time.perf_counter()
    while len(results) < min_passes or 2 * time.perf_counter() - last - start < seconds:
        last = time.perf_counter()
        results.append(body())
    return results


def measure(passes: Passes, seconds: float) -> dict:
    import resource

    from reference import Reference

    start = time.perf_counter()
    reference = Reference(passes.out_root / "reference")
    passes.run()
    before = reference.sample(0.25)
    relative = []

    def after_scenario(elapsed: float) -> None:
        # A scenario's time over the mean reference chunk time measured
        # just before and just after it.
        nonlocal before
        after = reference.sample(REFERENCE_SHARE * elapsed)
        relative[-1] += elapsed / ((before + after) / 2)
        before = after

    def timed_pass() -> dict:
        relative.append(0.0)
        return passes.run(after_scenario)

    timed = _timed_loop(seconds - (time.perf_counter() - start), timed_pass, MIN_PASSES)
    passes.reference_walls = reference.walls
    return {
        "wall_rel": statistics.mean(relative),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": statistics.median(p["bytes"] for p in timed),
        "ok_frac": 1.0 - passes.failed / passes.attempted,
    }


def trace(passes: Passes, seconds: float) -> tuple:
    from probes import run_probes
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    restored = True

    def traced_pass():
        nonlocal restored
        tracer.reset()
        tracer.install()
        try:
            result = passes.run()
        finally:
            restored = tracer.restore() and restored
        return result, layer_metrics(tracer)

    pairs = _timed_loop(seconds, lambda: (passes.run(), traced_pass()), 1)
    traced = [t for _, t in pairs]
    values = {
        key: statistics.median(layers[key] for _, layers in traced) for key in traced[0][1]
    }
    values["runner.bytes_written"] = statistics.median(p["bytes"] for p, _ in traced)
    values["runner.files_written"] = statistics.median(p["files"] for p, _ in traced)
    values["trace.traced_wall_s"] = min(p["wall_s"] for p, _ in traced)
    values["trace.untraced_wall_s"] = statistics.median(u["wall_s"] for u, _ in pairs)
    # Each traced pass runs right after an untraced one, so the pair sees
    # nearly the same machine speed.
    values["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, (t, _) in pairs)
    values.update(run_probes(passes.out_root / "probes"))
    values["failed_frac"] = passes.failed / passes.attempted
    return values, restored


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    dicts = workloads.scenario_dicts(args.workload, args.seed)
    if args.mode == "setup":
        report = {"setup_s": setup_seconds(dicts)}
    else:
        passes = Passes(dicts, args.out)
        if args.mode == "measure":
            values, restored = measure(passes, args.seconds), True
        else:
            values, restored = trace(passes, args.seconds)
        report = {
            "values": values,
            "attempted": passes.attempted,
            "failed": passes.failed,
            "restored": restored,
            "pass_walls": passes.walls,
            "reference_walls": passes.reference_walls,
            "env": environment(),
        }
    import waveaction

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(waveaction.__file__).resolve().parent.parent != src:
        print(f"waveaction was imported from {waveaction.__file__}, not from {src}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
