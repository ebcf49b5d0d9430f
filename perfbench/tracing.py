"""Per-layer busy time and work counts, recorded from outside the program.

Tracer.install() replaces each traced function, in every harmstable module
that holds a reference to it, by a wrapper that times the call. Callers
look the name up in their own module at call time, so every call goes
through the wrapper; uninstall() puts the originals back.

Each thread keeps a stack of open spans. A span's child time is the part
of it that traced callees covered, so busy time minus child time is the
layer's self time. analysis._parallel_map is wrapped too: the caller's
thread only waits inside it, so that wait is not busy time, and each item
run on a worker thread is booked to the caller's layer as busy time of its
own. A layer's busy seconds are therefore summed over threads.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time

import harmstable
from harmstable.quadrature import axis_cells

MODULES = ("cli", "analysis", "harmonizable", "levy_model", "quadrature", "rng_stable", "kernels")


def _atoms(a):
    return a.arguments["n_terms"]


def _atom_steps(a):
    return a.arguments["n"] * a.arguments["jm"].n_terms


def _node_atoms(a):
    return a.arguments["t_nodes"] * a.arguments["jm"].n_terms


def _pairs(a):
    n = a.arguments["jm"].n_terms
    return n * (n - 1) // 2


def _cells(a):
    return axis_cells(a.arguments["quad"])[0].size ** 2


# (module, function, work count of one call from its bound arguments)
TARGETS = (
    ("cli", "main", None),
    ("analysis", "run_lln_experiment", None),
    ("analysis", "run_clt_experiment", None),
    ("analysis", "identity_suite", None),
    ("analysis", "envelope_quadrature", None),
    ("levy_model", "condition_value", None),
    ("quadrature", "grid_integral_2d", _cells),
    ("levy_model", "build_jump_measure", _atoms),
    ("rng_stable", "poisson_arrivals", None),
    ("levy_model", "series_unit_scale", None),
    ("levy_model", "estimate_series_unit_scale", None),
    ("harmonizable", "simulate_increments", _atom_steps),
    ("harmonizable", "rosenblatt_fast", _node_atoms),
    ("harmonizable", "realized_U", None),
    ("levy_model", "integrate_qv", None),
    ("levy_model", "double_integrate", _pairs),
    ("kernels", "kernel_r", None),
)


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # layer -> (calls, busy seconds, child seconds, work count)
        self._totals: dict[str, tuple] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, key, fn, args, kwargs, new_call=True, work=None):
        """Run fn as a span booked to layer `key`. Key None marks a wait: the
        span books nothing and its time is not busy time of the caller."""
        stack = self._stack()
        frame = [key, 0.0, 0.0]  # layer, child seconds, waiting seconds
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1 if key is not None else 2] += elapsed
            if key is not None:
                count = work(args, kwargs) if work is not None else 0
                with self._lock:
                    calls, busy, child, total = self._totals.get(key, (0, 0.0, 0.0, 0))
                    self._totals[key] = (
                        calls + int(new_call),
                        busy + elapsed - frame[2],
                        child + frame[1],
                        total + count,
                    )

    def _wrap(self, key, fn, work_of):
        work = None
        if work_of is not None:
            sig = inspect.signature(fn)

            def work(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return work_of(bound)

        def traced(*args, **kwargs):
            return self._span(key, fn, args, kwargs, work=work)

        return traced

    def _wrap_parallel_map(self, fn):
        def traced(item_fn, count, threads):
            stack = self._stack()
            owner = stack[-1][0] if stack else None

            def item(i):
                return self._span(owner, item_fn, (i,), {}, new_call=False)

            return self._span(None, fn, (item, count, threads), {})

        return traced

    def install(self) -> None:
        modules = [harmstable] + [importlib.import_module(f"harmstable.{m}") for m in MODULES]
        for module, name, work_of in TARGETS:
            original = getattr(importlib.import_module(f"harmstable.{module}"), name)
            self._patch(modules, name, original, self._wrap(f"{module}.{name}", original, work_of))
        analysis = importlib.import_module("harmstable.analysis")
        original = analysis._parallel_map
        self._patch([analysis], "_parallel_map", original, self._wrap_parallel_map(original))

    def _patch(self, modules, name, original, wrapper) -> None:
        for m in modules:
            if getattr(m, name, None) is original:
                setattr(m, name, wrapper)
                self._patches.append((m, name, original))

    def uninstall(self) -> None:
        while self._patches:
            m, name, original = self._patches.pop()
            setattr(m, name, original)

    def take(self) -> dict[str, tuple]:
        """Totals recorded since the last take, and reset them."""
        with self._lock:
            totals, self._totals = self._totals, {}
        return totals


def _field(totals, key, what):
    calls, busy, child, work = totals.get(key, (0, 0.0, 0.0, 0))
    if what in ("calls", "setup_calls"):
        return calls
    if what in ("s", "setup_s"):
        return busy
    if what == "self_s":
        return busy - child
    return work


# per-layer metrics from the timed rounds: (layer, field name, unit)
ROUND_METRICS = (
    ("cli.main", "calls", "count"),
    ("cli.main", "s", "s"),
    ("analysis.run_lln_experiment", "s", "s"),
    ("analysis.run_lln_experiment", "self_s", "s"),
    ("analysis.run_clt_experiment", "s", "s"),
    ("analysis.run_clt_experiment", "self_s", "s"),
    ("analysis.identity_suite", "s", "s"),
    ("analysis.identity_suite", "self_s", "s"),
    ("analysis.envelope_quadrature", "calls", "count"),
    ("analysis.envelope_quadrature", "s", "s"),
    ("levy_model.condition_value", "calls", "count"),
    ("levy_model.condition_value", "s", "s"),
    ("quadrature.grid_integral_2d", "calls", "count"),
    ("quadrature.grid_integral_2d", "s", "s"),
    ("quadrature.grid_integral_2d", "cells", "count"),
    ("levy_model.build_jump_measure", "calls", "count"),
    ("levy_model.build_jump_measure", "s", "s"),
    ("levy_model.build_jump_measure", "atoms", "count"),
    ("rng_stable.poisson_arrivals", "calls", "count"),
    ("rng_stable.poisson_arrivals", "s", "s"),
    ("harmonizable.simulate_increments", "calls", "count"),
    ("harmonizable.simulate_increments", "s", "s"),
    ("harmonizable.simulate_increments", "atom_steps", "count"),
    ("harmonizable.rosenblatt_fast", "calls", "count"),
    ("harmonizable.rosenblatt_fast", "s", "s"),
    ("harmonizable.rosenblatt_fast", "node_atoms", "count"),
    ("harmonizable.realized_U", "calls", "count"),
    ("harmonizable.realized_U", "s", "s"),
    ("levy_model.integrate_qv", "calls", "count"),
    ("levy_model.integrate_qv", "s", "s"),
    ("levy_model.double_integrate", "calls", "count"),
    ("levy_model.double_integrate", "s", "s"),
    ("levy_model.double_integrate", "pairs", "count"),
    ("kernels.kernel_r", "calls", "count"),
    ("kernels.kernel_r", "s", "s"),
)

# per-layer metrics from the set-up commands, where the series scale is paid
SETUP_METRICS = (
    ("levy_model.series_unit_scale", "setup_s", "s"),
    ("levy_model.estimate_series_unit_scale", "setup_calls", "count"),
    ("levy_model.estimate_series_unit_scale", "setup_s", "s"),
)


def layer_metrics(round_totals: dict, rounds: int, setup_totals: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name: round totals averaged per round, set-up
    totals as they are; cli.self_s is the front end's own time per round."""
    out = {}
    for key, what, unit in ROUND_METRICS:
        out[f"{key}.{what}"] = (_field(round_totals, key, what) / rounds, unit)
    out["cli.self_s"] = (_field(round_totals, "cli.main", "self_s") / rounds, "s")
    for key, what, unit in SETUP_METRICS:
        out[f"{key}.{what}"] = (float(_field(setup_totals, key, what)), unit)
    return out
