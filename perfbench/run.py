"""Benchmark of the mesostefan solver suite.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own interpreter.
``--trace 1`` reports the per-layer metrics of BENCHMARK.json instead of
the end-to-end ones and writes the spans to perfbench/out/.
``--record`` stores the checked default-seed outputs in reference.json.
Timings are scaled to a reference machine speed; speed.py says how.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means the run
completed, whether or not every check passed; 2 means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("desk", "eps-ladder", "spectrum-fine")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--record"] if args.record
                                              else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    missing = [p for p in (os.path.join(src, "mesostefan", "cli.py"),
                           os.path.join(root, "BENCHMARK.json"))
               if not os.path.isfile(p)]
    if missing:
        print("perfbench: run from the root of a mesostefan checkout; "
              f"missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:       # one BLAS/OpenMP thread, set before numpy
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import mesostefan.cli
    if not os.path.abspath(mesostefan.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {mesostefan.cli.__file__}, not the "
              "checkout's source", file=sys.stderr)
        return 2

    from harness import Run
    from workloads import DEFAULT_SEED
    if args.record and args.seed != DEFAULT_SEED:
        print(f"perfbench: --record needs --seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    lines, result = run.execute()
    if args.record and result["correct"]:
        run.record()
    print("\n".join(lines))
    print("threads " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
