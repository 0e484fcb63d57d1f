"""Perf ledger entry point.

Driver form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/perf/run.py --workload learn_small --seed 1 \\
        --seconds 25 --trace 0

runs one workload once and prints every metric by name with its unit;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

Ledger form::

    python3 benchmarks/perf/run.py ledger --seed 1 --out A.json
    python3 benchmarks/perf/run.py compare A.json B.json

runs every workload (``--reps`` untraced runs plus one traced run
each), writes one JSON document, and compares two of them.

Every measurement executes in a fresh child process of this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
# the benchmark's own modules, then the package it measures
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf import spec  # noqa: E402
from benchmarks.perf.stats import common_prefix_agrees  # noqa: E402

#: set-up is measured this many times per run (median reported): the
#: measuring child, the trajectory-prefix child and this many children
#: that only set up
SETUP_ONLY_CHILDREN = 3


def _child(workload, seed, seconds, mode, windows=None) -> dict:
    """Run one measurement in a fresh interpreter; its last stdout line
    is the result document."""
    command = [
        sys.executable, str(HERE / "run.py"), "_child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--mode", mode,
        "--t-spawn", repr(time.time()),
    ]
    if windows is not None:
        command += ["--windows", str(windows)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=False,
        timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} child ({mode}) exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _child_main(args) -> None:
    from benchmarks.perf.workloads import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, args.mode, args.windows,
        args.t_spawn, OUT_DIR,
    )
    print(json.dumps(result))


# -- one driver run ----------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end numbers of one run."""
    setups = [
        _child(workload, seed, seconds, "setup")["setup_s"]
        for _ in range(SETUP_ONLY_CHILDREN)
    ]
    prefix = _child(workload, seed, seconds, "prefix")
    main = _child(workload, seed, seconds, "measure")
    setups += [prefix["setup_s"], main["setup_s"]]
    checks = dict(main["checks"])
    if "chain" in prefix:
        # two processes, one seed: the same walk as far as both went
        checks["trajectory_repeats_across_processes"] = (
            common_prefix_agrees(prefix["chain"], main["chain"])
        )
    metrics = dict(main["metrics"])
    metrics["setup_s"] = {
        "value": statistics.median(setups),
        "min": min(setups),
        "max": max(setups),
        "windows": len(setups),
    }
    return {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "checks": checks,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "trajectory_sha": (main.get("chain") or [None])[-1],
        "info": main.get("info", {}),
    }


def traced_windows(workload: str, seconds: float):
    per_second = spec.TRACED_WINDOWS_PER_S.get(workload)
    if per_second is None:
        return None
    return max(1, round(per_second * seconds))


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """The per-layer numbers of one run: an untraced reference child
    and a traced child do the same seed-fixed work, and the difference
    between their throughputs is the tracing overhead."""
    windows = traced_windows(workload, seconds)
    if windows is not None:
        reference_s = traced_s = seconds  # unused: the windows decide
    else:
        # serve_fleet's work is fixed by its phase lengths instead; the
        # reference only has to give a closed-loop rate
        reference_s, traced_s = 0.2 * seconds, 0.6 * seconds
    reference = _child(workload, seed, reference_s, "measure", windows)
    traced = _child(workload, seed, traced_s, "traced", windows)
    # answers per second: requests, or 150 genomes per generation
    untraced_rate = reference["metrics"]["served_qps"]["value"]
    traced_rate = traced["metrics"]["served_qps"]["value"]
    layers = {name: 0.0 for name in spec.PER_LAYER}
    layers.update(traced["layers"])
    layers["obs.trace_overhead_pct"] = (
        100.0 * (untraced_rate - traced_rate) / untraced_rate
    )
    checks = dict(traced["checks"])
    if "chain" in traced:
        checks["traced_run_walks_the_untraced_trajectory"] = (
            common_prefix_agrees(reference["chain"], traced["chain"])
        )
    if workload in spec.LEARN:
        checks["attributed_share_at_least_0.95"] = (
            layers["attributed_share"] >= 0.95
        )
    return {
        "workload": workload,
        "seed": seed,
        "layers": layers,
        "checks": checks,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "trajectory_sha": (traced.get("chain") or [None])[-1],
        "info": {
            "trace_file": traced["trace_file"],
            "trace_spans": traced["trace_spans"],
            "trace_spans_written": traced["trace_spans_written"],
            **traced.get("info", {}),
        },
    }


def _units(trace: bool) -> dict:
    if trace:
        return {name: unit for name, (unit, _b) in spec.PER_LAYER.items()}
    return {name: unit for name, unit, _better, _bound in spec.END_TO_END}


def report(result: dict, trace: bool) -> dict:
    """Print one run for people, return its driver document."""
    units = _units(trace)
    values = result["layers"] if trace else {
        name: entry["value"] for name, entry in result["metrics"].items()
    }
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{'traced' if trace else 'untraced'}")
    for name, unit in units.items():
        line = f"  {name:<44} {values[name]:>16.6f} {unit}"
        entry = {} if trace else result["metrics"][name]
        if "min" in entry:
            line += (f"   [min {entry['min']:.6f}  max {entry['max']:.6f}"
                     f"  n {entry['windows']}")
            if "raw" in entry:
                line += f"  raw {entry['raw']:.6f}"
            line += "]"
        print(line)
    for name, value in result["info"].items():
        print(f"  info {name}: {value}")
    print(f"  trajectory_sha: {result['trajectory_sha']}")
    print(f"  ops_attempted: {result['attempted']}  "
          f"ops_failed: {result['failed']}")
    for name, passed in result["checks"].items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    return {
        "correct": all(result["checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def drive(args) -> int:
    if args.workload not in spec.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    run = run_traced if args.trace else run_untraced
    document = report(
        run(args.workload, args.seed, args.seconds), bool(args.trace)
    )
    print(json.dumps(document))
    return 0 if document["correct"] else 1


# -- the ledger --------------------------------------------------------------


def ledger(args) -> int:
    """Every workload: ``--reps`` untraced runs and one traced run."""
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "bounds": {
            name: {"unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in spec.END_TO_END
        },
        "workloads": {},
    }
    correct = True
    for workload in args.workloads or list(spec.WORKLOADS):
        runs = []
        for _ in range(args.reps):
            result = run_untraced(workload, args.seed, args.seconds)
            correct &= report(result, trace=False)["correct"]
            runs.append(result)
        shas = {run["trajectory_sha"] for run in runs}
        traced = run_traced(workload, args.seed, args.seconds)
        correct &= report(traced, trace=True)["correct"]
        document["workloads"][workload] = {
            "end_to_end": {
                name: [run["metrics"][name]["value"] for run in runs]
                for name in document["bounds"]
            },
            "per_layer": traced["layers"],
            "ops_attempted": [run["attempted"] for run in runs],
            "ops_failed": [run["failed"] for run in runs],
            # time-bounded runs stop at different generations, so the
            # final hashes may differ; the per-run check above compares
            # the shared prefix
            "trajectory_sha": sorted(sha for sha in shas if sha),
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"ledger written to {args.out}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "command", nargs="?", default="run",
        choices=("run", "ledger", "compare", "_child"),
    )
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.RUN_SECONDS)
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "ledger.json")
    parser.add_argument("--mode", help=argparse.SUPPRESS)
    parser.add_argument("--windows", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.command == "_child":
        _child_main(args)
        return 0
    if args.command == "compare":
        from benchmarks.perf.compare import compare_files

        if len(args.files) != 2:
            parser.error("compare takes two ledger files")
        return compare_files(*args.files)
    if args.command == "ledger":
        return ledger(args)
    if args.workload is None:
        parser.error("--workload is required")
    return drive(args)


if __name__ == "__main__":
    raise SystemExit(main())
