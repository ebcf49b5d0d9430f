"""Tests of the benchmark's own output checks and tracer.

Each check passes on real harmstable output at a small size and fails when
one value of that output is perturbed. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import CLT, LLN, VERIFY, WORKLOADS  # noqa: E402

import harmstable.cli as cli  # noqa: E402
from harmstable import ModelParams  # noqa: E402

SEED = 3

LLN_SMALL = dict(LLN, alpha=1.2, half_width=5.0, n_terms=2000, n_list=(16, 32, 64, 128))
CLT_SMALL = dict(CLT, half_width=5.0, n_terms=2000, n=32)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc == 0
    return out.getvalue()


def model_flags(p):
    return ["--alpha", repr(p["alpha"]), "--hurst", repr(p["hurst"]),
            "--half-width", repr(p["half_width"]), "--n-terms", str(p["n_terms"]),
            "--seed", str(SEED), "--threads", "2", "--format", "csv"]


def perturbed(samples, key, factor):
    out = dict(samples)
    out[key] = samples[key] * factor
    return out


@pytest.fixture(scope="module")
def lln_samples():
    text = run(["lln", *model_flags(LLN_SMALL), "--n-list", "16,32,64,128",
                "--reps", str(LLN_SMALL["replications"])])
    return checks.parse_samples(text)


@pytest.fixture(scope="module")
def clt_samples():
    text = run(["clt", *model_flags(CLT_SMALL), "--n", str(CLT_SMALL["n"]),
                "--reps", str(CLT_SMALL["replications"])])
    return checks.parse_samples(text)


@pytest.fixture(scope="module")
def verify_outputs():
    ident = run(["check-identities", "--trials", "3", "--seed", str(SEED), "--threads", "2"])
    cond = run(["check-condition", "--lambdas", "50,100"])
    divergent = run(["check-condition", "--lambdas", "50,100", "--r1", "0.4"])
    return ident, cond, divergent


def test_lln_values_pass_and_fail_on_one_perturbed_value(lln_samples):
    assert checks.lln_value_errors(lln_samples, LLN_SMALL, SEED, [4, 31]) == []
    bad = perturbed(lln_samples, (31, 64), 1.0 + 1e-5)
    errors = checks.lln_value_errors(bad, LLN_SMALL, SEED, [4, 31])
    assert len(errors) == 1 and "rep 31 n 64" in errors[0]


def test_dense_increments_match_direct_sums():
    rng = np.random.default_rng(0)
    s = rng.uniform(-5.0, 5.0, 300)
    a = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    direct = np.array([np.sum(np.exp(1j * j * s) * a) for j in range(70)])
    assert np.allclose(checks.dense_increments(s, a, 70), direct, rtol=0, atol=1e-10)


def test_calibration_passes_and_fails_when_off_by_two_percent():
    jm = checks._jump_measure(LLN_SMALL, SEED, 0)
    assert checks.calibration_errors(jm, LLN_SMALL) == []
    off = dataclasses.replace(jm, calibration=jm.calibration * 1.02)
    assert len(checks.calibration_errors(off, LLN_SMALL)) == 1


def test_closed_form_scale_near_the_frozen_table():
    from harmstable.levy_model import _UNIT_SERIES_SCALE

    for alpha, frozen in _UNIT_SERIES_SCALE.items():
        assert abs(checks.closed_form_unit_scale(alpha) / frozen - 1.0) < 0.01


def test_slope_band_fails_on_one_perturbed_median():
    p = dict(LLN, replications=1)
    samples = {(0, n): n ** -0.5 for n in p["n_list"]}
    assert checks.slope_errors(samples, p) == []
    assert len(checks.slope_errors(perturbed(samples, (0, 512), 1e3), p)) == 1


def test_lln_grid_must_be_complete(lln_samples):
    p = dict(LLN_SMALL)
    text = "replication,n,value\n" + "".join(
        f"{r},{n},{v!r}\n" for (r, n), v in lln_samples.items() if (r, n) != (0, 16)
    )
    assert "cells" in checks.check_lln(text, p, SEED, [])[0]


def test_limit_draws_pass_and_fail_on_one_perturbed_draw(clt_samples):
    assert checks.limit_draw_errors(clt_samples, CLT_SMALL, SEED, [0, 5]) == []
    R, n = CLT_SMALL["replications"], CLT_SMALL["n"]
    bad = perturbed(clt_samples, (R + 5, n), 1.0 + 1e-6)
    errors = checks.limit_draw_errors(bad, CLT_SMALL, SEED, [0, 5])
    assert len(errors) == 1 and "draw 5" in errors[0]


def test_normalized_errors_pass_and_fail_on_one_perturbed_error(clt_samples):
    assert checks.normalized_error_errors(clt_samples, CLT_SMALL, SEED, [1, 2]) == []
    bad = perturbed(clt_samples, (2, CLT_SMALL["n"]), 1.0 + 1e-6)
    assert len(checks.normalized_error_errors(bad, CLT_SMALL, SEED, [1, 2])) == 1


def test_ks_fails_when_one_value_separates_the_samples():
    p = dict(CLT, replications=6, n=1)
    a = [0.0, 1.0, 2.0, 3.0, 4.0, 20.0]
    b = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    samples = {(i, 1): v for i, v in enumerate(a + b)}
    assert checks.ks_errors(samples, p) == []
    assert len(checks.ks_errors(perturbed(samples, (5, 1), 0.0), p)) == 1


def test_ks_distance_and_critical_value():
    assert checks.ks_distance([1, 2, 3], [4, 5, 6]) == 1.0
    assert checks.ks_distance([1, 3], [2, 4]) == 0.5
    # Smirnov's c(0.01) for equal samples of 100
    assert math.isclose(checks.ks_critical_01(100, 100), 1.6276 * math.sqrt(0.02), rel_tol=1e-4)


def test_identity_residuals_fail_above_tolerance_or_non_finite(verify_outputs):
    ident = verify_outputs[0]
    p = dict(VERIFY, trials=3)
    assert checks.identity_errors(ident, p) == []
    for bad_value in (2e-8, float("nan")):
        report = json.loads(ident)
        report["results"]["max_error_representation_residual"] = bad_value
        assert len(checks.identity_errors(json.dumps(report), p)) == 1


def _with_value(text, key, index, factor):
    report = json.loads(text)
    report["results"][key][index] *= factor
    return json.dumps(report)


def test_condition_growth_checks(verify_outputs):
    _, cond, divergent = verify_outputs
    assert checks.condition_errors(cond, VERIFY, envelope_integrable=True) == []
    assert checks.condition_errors(divergent, VERIFY, envelope_integrable=False) == []
    grown = _with_value(cond, "envelope_values", 1, 1.1)
    assert len(checks.condition_errors(grown, VERIFY, envelope_integrable=True)) == 1
    shrunk = _with_value(cond, "condition_values", 1, 0.9)
    assert len(checks.condition_errors(shrunk, VERIFY, envelope_integrable=True)) == 1
    flat = _with_value(divergent, "envelope_values", 1, 0.9)
    assert len(checks.condition_errors(flat, VERIFY, envelope_integrable=False)) == 1


def test_check_round_reports_malformed_output(verify_outputs):
    ident, cond, _ = verify_outputs
    wl = dataclasses.replace(WORKLOADS["verify"], params=dict(VERIFY, trials=3))
    errors = checks.check_round(wl, 0, SEED, [(0, ident), (0, cond), (0, "not json")])
    assert len(errors) == 1 and "malformed" in errors[0]


def test_check_round_skips_failed_commands(verify_outputs):
    ident, cond, divergent = verify_outputs
    wl = dataclasses.replace(WORKLOADS["verify"], params=dict(VERIFY, trials=3))
    flat = _with_value(divergent, "envelope_values", 1, 0.9)
    assert checks.check_round(wl, 0, SEED, [(0, ident), (0, cond), (0, divergent)]) == []
    assert len(checks.check_round(wl, 0, SEED, [(0, ident), (0, cond), (0, flat)])) == 1
    assert checks.check_round(wl, 0, SEED, [(0, ident), (0, cond), (1, flat)]) == []


def test_tracer_counts_calls_and_restores_originals():
    from harmstable import analysis, harmonizable

    original = analysis.simulate_increments
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert analysis.simulate_increments is not original
        assert harmonizable.simulate_increments is analysis.simulate_increments
        analysis.run_lln_experiment(ModelParams(1.2, 0.75), 5.0, 500, (4, 8, 16), 50, seed=1, threads=2)
    finally:
        tracer.uninstall()
    assert analysis.simulate_increments is original
    totals = tracer.take()
    calls, busy, child, work = totals["harmonizable.simulate_increments"]
    assert calls == 50 and work == 50 * 16 * 500
    runner = totals["analysis.run_lln_experiment"]
    assert runner[0] == 1 and 0.0 <= runner[2] <= runner[1]
    metrics = tracing.layer_metrics(totals, 1, {})
    assert metrics["levy_model.build_jump_measure.atoms"] == (50 * 500, "count")
