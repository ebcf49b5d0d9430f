"""One workload process: set-up, the timed rounds and the output checks.

    python3 perfbench/child.py <workload> <seed> <seconds> setup|run|trace

with src/ on PYTHONPATH; run.py starts it that way. Every mode first times
set-up: from before `import harmstable` to the end of the workload's
minimal commands. `setup` stops there. `run` then runs one untimed
warm-up round of the workload's commands and repeats timed rounds until
`seconds` have passed, each round on its own seed, and checks every
round's outputs. `trace` times untraced rounds for `seconds`, then traced
rounds for as long (tracing.py). The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS


def run_cli(cli, argv):
    """(return code, stdout) of one harmstable command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a command that raises counts as failed; keep going
        rc = -1
        err.write(traceback.format_exc())
    if rc != 0:
        sys.stderr.write(f"command {' '.join(argv)} exited {rc}\n{err.getvalue()}")
    return rc, out.getvalue()


def one_round(cli, workload, seed, k):
    """(round, cli seed, wall s, outputs) of round k of the workload."""
    cli_seed = workload.cli_seed(seed, k)
    commands = workload.round_commands(cli_seed)
    t = time.perf_counter()
    outputs = [run_cli(cli, argv) for argv in commands]
    return k, cli_seed, time.perf_counter() - t, outputs


def timed_rounds(cli, workload, seed, seconds, first_round):
    """Whole rounds, numbered from first_round, until `seconds` have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round(cli, workload, seed, first_round + len(rounds)))
    return rounds


def main(argv) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    workload = WORKLOADS[name]

    started = time.perf_counter()
    import harmstable.cli as cli

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup = [run_cli(cli, argv) for argv in workload.setup]
    setup_s = time.perf_counter() - started
    if any(rc != 0 for rc, _ in setup):
        return 1
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        setup_totals = tracer.take()
        tracer.uninstall()
    # round 0 warms the allocator and caches at full size; it is checked
    # but not timed
    warmup = one_round(cli, workload, seed, 0)
    if tracer is None:
        rounds = timed_rounds(cli, workload, seed, seconds, 1)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(r[2] for r in rounds), "s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }
    else:
        plain = timed_rounds(cli, workload, seed, seconds, 1)
        tracer.install()
        traced = timed_rounds(cli, workload, seed, seconds, 1 + len(plain))
        tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.take(), len(traced), setup_totals)
        untraced_s = statistics.median(r[2] for r in plain)
        traced_s = statistics.median(r[2] for r in traced)
        metrics["trace.untraced_run_s"] = (untraced_s, "s")
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        rounds = plain + traced

    import checks

    rounds = [warmup] + rounds
    errors = []
    for k, cli_seed, _, outputs in rounds:
        errors += checks.check_round(workload, k, cli_seed, outputs)
    attempted = sum(len(r[3]) for r in rounds)
    failed = sum(rc != 0 for r in rounds for rc, _ in r[3])
    for e in errors:
        sys.stderr.write(f"check failed: {e}\n")
    print(json.dumps({
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
