"""Batch front door: run | validate | batch.

Exit codes: 0 success, 1 usage or configuration error, 2 solver
non-convergence, a failed verify battery or a solver error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .runner import run_scenario
from .scenario import ScenarioError, parse_scenario, parse_scenario_dict, serialize_scenario

BATCH_WIDTH_ENV = "WAVEACTION_BATCH_WIDTH"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for non-convergence
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="waveaction", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--out", type=Path, default=None, help="output directory")
    p_run.add_argument("--stride", type=int, default=None, help="override record stride")
    p_run.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario", type=Path)

    p_batch = sub.add_parser("batch", help="run every scenario file in a directory")
    p_batch.add_argument("directory", type=Path)
    p_batch.add_argument("--out", type=Path, default=None, help="output root directory")
    p_batch.add_argument("--quiet", action="store_true")
    return parser


def _run_one(path: Path, out_dir: Path, stride, quiet: bool) -> int:
    """Run the scenario file, with its record stride replaced by stride unless that is None."""
    try:
        scenario = parse_scenario(path)
        if stride is not None:
            scenario = parse_scenario_dict({**serialize_scenario(scenario), "output": {"record_stride": stride}})
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        manifest = run_scenario(scenario, out_dir, quiet=True)  # the line is printed here, not logged
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:  # includes ObserverError
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    if not quiet:
        print(manifest.line(out_dir))
    return EXIT_OK if manifest.converged else EXIT_NOT_CONVERGED


def _batch_entry(args):
    path, out_dir, quiet = args
    return str(path), _run_one(path, out_dir, None, quiet)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "validate":
        try:
            scenario = parse_scenario(args.scenario)
        except (OSError, ScenarioError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"OK: {scenario.name} ({scenario.task['kind']})")
        return EXIT_OK

    if args.command == "run":
        out = args.out if args.out is not None else Path("runs") / args.scenario.stem
        return _run_one(args.scenario, out, args.stride, args.quiet)

    # batch
    raw_width = os.environ.get(BATCH_WIDTH_ENV, "1")
    try:
        width = int(raw_width)
    except ValueError:
        width = 0
    if width < 1:
        print(f"usage error: {BATCH_WIDTH_ENV} must be an integer >= 1, got {raw_width!r}", file=sys.stderr)
        return EXIT_USAGE
    directory: Path = args.directory
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return EXIT_USAGE
    out_root = args.out if args.out is not None else Path("runs")
    jobs = [(p, out_root / p.stem, args.quiet) for p in paths]
    width = min(width, len(paths))  # the pool starts every worker at once, however few the jobs
    if width == 1:
        results = [_batch_entry(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=width) as pool:
            results = list(pool.map(_batch_entry, jobs))
    worst = EXIT_OK
    for name, code in results:
        if not args.quiet:
            print(f"{name}: exit {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
