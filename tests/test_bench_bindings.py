"""The benchmark's bindings to the package, checked in the tier-1 suite.

perfbench/tracing.py wraps package functions by module and name and reads
work counts from their bound arguments, and every workload starts with its
set-up commands. A renamed function or parameter, or a caller that stops
passing an argument the tracer reads, breaks the benchmark; this runs each
workload's set-up under the tracer, as the benchmark does.
"""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from harmstable import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_targets_resolve(perfbench):
    tracing, _ = perfbench
    for module, name, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"harmstable.{module}"), name, None)), (
            f"{module}.{name}"
        )


def test_workload_setups_run_under_the_tracer(perfbench):
    tracing, workloads = perfbench
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, workload in workloads.WORKLOADS.items():
            for argv in workload.setup:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(list(argv))
                assert rc == 0, (name, argv)
                assert out.getvalue(), (name, argv)
    finally:
        tracer.uninstall()
    totals = tracer.take()
    # (calls, busy seconds, child seconds, work count): the clt set-up draws
    # its limit through rosenblatt_fast with an explicit node count
    calls, _, _, node_atoms = totals["harmonizable.rosenblatt_fast"]
    assert calls > 0 and node_atoms > 0
