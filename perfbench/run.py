"""Run one benchmark workload of the waveaction toolkit and print its metrics.

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the toolkit is imported from its
``src/`` directory.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones; ``--workload all`` runs
every workload both ways.  Each metric is printed as ``name value unit``,
and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero,
and no JSON is printed, when the run cannot be made.

The measurements run in child interpreters whose BLAS/OpenMP thread
count is pinned to 1; this process imports neither numpy nor the toolkit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 4
TIME_LIMIT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child(mode: str, workload: str, seed: int, seconds: float, out: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in PINNED_THREADS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} child for {workload} passed the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """One run: the worker's report, with setup_s added when tracing is off.

    Half the setup samples are taken before the measuring child and half
    after it, so that their median spans the whole run.
    """
    out = SCRATCH / f"{workload}-{seed}-{os.getpid()}-{int(traced)}"
    half = 0 if traced else SETUP_REPEATS // 2

    def setup_samples() -> list:
        return [_child("setup", workload, seed, 0, out, deadline)["setup_s"] for _ in range(half)]

    try:
        setups = setup_samples()
        report = _child("trace" if traced else "measure", workload, seed, seconds, out, deadline)
        setups += setup_samples()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if setups:
        report["values"]["setup_s"] = statistics.median(setups)
        report["setup_samples"] = setups
    return report


def _print_run(workload: str, seed: int, traced: bool, report: dict, table: list) -> dict:
    values = report["values"]
    expected = {m["name"] for m in table}
    if set(values) != expected:
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ expected)}")
    walls = report["pass_walls"]
    print(f"# workload {workload} seed {seed} trace {int(traced)}: "
          f"{report['attempted']} scenario runs, {report['failed']} failed")
    print(f"# {len(walls)} passes, s: {' '.join(f'{w:.3f}' for w in walls)}")
    refs = report.get("reference_walls")
    if refs:
        print(f"# {len(refs)} reference chunks, s: median {statistics.median(refs):.4f} "
              f"min {min(refs):.4f} max {max(refs):.4f}")
    if "setup_samples" in report:
        print(f"# setup samples, s: {' '.join(f'{t:.3f}' for t in report['setup_samples'])}")
    print(f"# inputs sha256 {workloads.inputs_hash(workloads.scenario_dicts(workload, seed))}")
    print(f"# environment {json.dumps(report['env'], sort_keys=True)}")
    if not report["restored"]:
        print("# tracing left a wrapped function behind")
    metrics = {}
    for m in table:
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "waveaction" / "__init__.py").is_file():
        print(f"no toolkit source at {SRC}; run from the root of a waveaction checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    deadline = time.monotonic() + TIME_LIMIT_S * len(runs)
    attempted = failed = 0
    correct = True
    metrics = {}
    try:
        for workload, traced in runs:
            report = measure(workload, args.seed, args.seconds, traced, deadline)
            run_metrics = _print_run(workload, args.seed, traced, report,
                                     spec["per_layer" if traced else "end_to_end"])
            prefix = f"{workload}." if len(runs) > 1 else ""
            metrics.update({prefix + k: v for k, v in run_metrics.items()})
            attempted += report["attempted"]
            failed += report["failed"]
            correct = correct and report["failed"] == 0 and report["restored"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            SCRATCH.rmdir()  # only when empty: another run may be using it
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
