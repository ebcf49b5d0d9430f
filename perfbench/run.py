"""Benchmark of the harmstable command line: three workloads timed end to end.

    python3 perfbench/run.py --workload lln|clt|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from its src/.

With --trace 0 the result holds setup_s (median over fresh processes),
run_s (median wall time of one round of the workload's commands) and
peak_rss_mib (peak resident set of the process that ran the rounds). With --trace 1 it holds the per-layer metrics of a traced run
(tracing.py) and the tracing overhead. Each metric is printed by name with
its unit, and the last line of stdout is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is timed in fresh processes, at least SETUP_MIN_REPEATS of them and
# more while their total is under SETUP_MIN_SECONDS (up to SETUP_MAX_REPEATS),
# so a cheap set-up is sampled more often; setup_s is their median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPEATS = 9

# a run must end within 180 s; leave room to stop a child and report
RUN_BUDGET_S = 170.0

class BenchError(Exception):
    pass


def _child(args, mode, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed), str(args.seconds), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {args.workload} ran past the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        return _child(args, "trace", deadline)
    setups = []
    while len(setups) < SETUP_MIN_REPEATS - 1 or (
        sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS - 1
    ):
        setups.append(_child(args, "setup", deadline)["setup_s"])
    result = _child(args, "run", deadline)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "harmstable" / "__init__.py").is_file():
        print(f"error: no harmstable package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds = {result['rounds']}, commands attempted = "
          f"{result['attempted']}, failed = {result['failed']}, "
          f"check errors = {len(result['errors'])}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
