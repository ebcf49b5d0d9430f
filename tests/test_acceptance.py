"""Full-scale acceptance runs.

Each test exercises one verification gate of the toolkit at its stated
size and tolerance and records a one-line PASS/FAIL verdict that the
terminal summary prints after the run. The statistical gates use frozen
seeds so the suite is reproducible end to end.
"""

import time

import numpy as np
import pytest

from harmstable import (
    ModelParams,
    RngStream,
    build_jump_measure,
    condition_value,
    envelope_quadrature,
    identity_suite,
    iid_stable_qv_experiment,
    kernel_gn,
    kernel_h,
    kernel_hn,
    kernel_limit_check,
    kernel_r,
    ks_two_sample,
    run_clt_experiment,
    run_lln_experiment,
    sample_isotropic_stable,
    simulate_increments,
)
from harmstable.cli import main
from oracles import gn_bound, phi_qv

P = ModelParams(alpha=1.2, hurst=0.75)

LLN_SEED = 20260814
CLT_SEED = 20260815
IID_SEED = 20260816
CROSS_SEEDS = (42, 43)


@pytest.fixture(scope="module")
def lln_results():
    """One full-scale decay experiment's results, shared by the rate and
    growth gates."""
    started = time.monotonic()
    _, results = run_lln_experiment(
        P,
        half_width=50.0,
        n_terms=100000,
        n_list=(64, 128, 256, 512),
        replications=200,
        seed=LLN_SEED,
        threads=0,
    )
    return results, time.monotonic() - started


def test_exact_identity_suite(criterion_recorder):
    started = time.monotonic()
    out = identity_suite(
        trials=100,
        seed=0,
        alphas=(0.8, 1.2, 1.6),
        half_width=10.0,
        n_terms=1000,
        n_increments=64,
        threads=0,
    )
    elapsed = time.monotonic() - started
    worst = max(
        out["max_square_decomposition_residual"],
        out["max_error_representation_residual"],
    )
    ok = worst <= 1e-8 and elapsed < 60.0
    criterion_recorder(
        "exact identities: squared-integral and rescaled-error representations",
        ok,
        f"worst residual {worst:.3e} <= 1e-08 over 100 measures ({elapsed:.1f}s < 60s)",
    )
    assert ok, f"worst identity residual {worst:.3e}, elapsed {elapsed:.1f}s"


def test_kernel_algebra(criterion_recorder, rng):
    started = time.monotonic()

    s = rng.uniform(1e-6, 60.0, 10000) * rng.choice([-1.0, 1.0], 10000)
    spectral = float(
        np.max(
            np.abs(2.0 * phi_qv(s, P) - np.abs(kernel_r(s, P)) ** 2)
            / (2.0 * phi_qv(s, P))
        )
    )

    geometric = 0.0
    for n in (1, 2, 3, 7, 16, 64, 256, 512):
        x = rng.uniform(-40.0, 40.0, 1250)
        direct = np.exp(1j * np.outer(np.arange(n), x)).sum(axis=0)
        geometric = max(
            geometric, float(np.max(np.abs(kernel_gn(x, n) - direct))) / n
        )

    x = rng.uniform(-50.0, 50.0, 10000)
    bounded = all(
        bool(np.all(np.abs(kernel_gn(x, n)) <= gn_bound(x, n) * (1.0 + 1e-10)))
        for n in (3, 17, 256)
    )

    su = rng.uniform(-10.0, 10.0, 10000)
    uu = su + rng.uniform(0.0, 5.0, 10000)  # u >= s everywhere
    supported = bool(
        np.all(kernel_h(su, uu, P) == 0.0)
        and np.all(kernel_hn(su, uu, 64, P) == 0.0)
    )

    elapsed = time.monotonic() - started
    ok = (
        spectral <= 1e-10
        and geometric <= 1e-10
        and bounded
        and supported
        and elapsed < 10.0
    )
    criterion_recorder(
        "kernel algebra: spectral identity, geometric sum, bound, support",
        ok,
        f"rel devs {spectral:.1e}/{geometric:.1e} <= 1e-10, bound and "
        f"triangular support exact on 1e4 inputs ({elapsed:.1f}s < 10s)",
    )
    assert ok, (spectral, geometric, bounded, supported, elapsed)


def test_rescaled_kernel_limit(criterion_recorder):
    started = time.monotonic()
    finals = []
    shrinking = True
    for pair in ((1.0, -0.5), (3.0, 1.0), (0.5, -2.0)):
        devs = kernel_limit_check(pair[0], pair[1], P, (2**6, 2**14))
        finals.append(float(devs[-1]))
        shrinking = shrinking and devs[-1] < devs[0]
    elapsed = time.monotonic() - started
    ok = max(finals) < 1e-2 and shrinking and elapsed < 1.0
    criterion_recorder(
        "deterministic kernel scaling limit",
        ok,
        f"max deviation at n=2^14 is {max(finals):.3e} < 1e-02, shrinking "
        f"from n=2^6 at all 3 pairs ({elapsed:.2f}s < 1s)",
    )
    assert ok, (finals, shrinking, elapsed)


def test_lln_rate(criterion_recorder, lln_results):
    results, elapsed = lln_results
    slope = results["slope"]
    ok = slope is not None and -0.7 <= slope <= -0.3 and elapsed < 600.0
    criterion_recorder(
        "lln rate: log-log slope of median |Q_n/n - U|",
        ok,
        f"slope {slope:.4f} (stderr {results['slope_stderr']:.4f}) in -0.5 +/- 0.2 "
        f"({elapsed:.0f}s < 600s)",
    )
    assert ok, (slope, elapsed)


def test_normalized_error_distribution(criterion_recorder):
    started = time.monotonic()
    _, results = run_clt_experiment(
        P,
        half_width=20.0,
        n_terms=100000,
        n=256,
        replications=500,
        seed=CLT_SEED,
        threads=0,
    )
    elapsed = time.monotonic() - started
    ks = results["ks_distance"]
    ok = ks < 0.1 and elapsed < 900.0
    criterion_recorder(
        "limit distribution: KS(normalized errors, realized limit draws)",
        ok,
        f"ks {ks:.4f} < 0.1 at 500+500 replications ({elapsed:.0f}s < 900s)",
    )
    assert ok, (ks, elapsed)


def test_growth_contrast(criterion_recorder, lln_results):
    results, _ = lln_results
    started = time.monotonic()
    slopes = {}
    for alpha in (1.0, 1.5):
        _, iid = iid_stable_qv_experiment(
            alpha, (64, 256, 1024, 4096), 200, seed=IID_SEED, threads=0
        )
        slopes[alpha] = iid["slope"]
    elapsed = time.monotonic() - started

    q_slope = results["q_slope"]
    iid_ok = all(abs(slopes[a] - 2.0 / a) <= 0.2 for a in (1.0, 1.5))
    ok = iid_ok and abs(q_slope - 1.0) <= 0.1 and elapsed < 300.0
    criterion_recorder(
        "growth contrast: iid superlinear vs coupled order-n statistic",
        ok,
        f"iid slopes {slopes[1.0]:.3f}/{slopes[1.5]:.3f} in 2/alpha +/- 0.2, "
        f"coupled q-slope {q_slope:.3f} in 1 +/- 0.1 ({elapsed:.0f}s < 300s)",
    )
    assert ok, (slopes, q_slope, elapsed)


def test_existence_certifier(criterion_recorder):
    started = time.monotonic()
    cond = condition_value(lambda s, u: kernel_h(s, u, P), P.alpha, (50.0, 100.0))
    cond_growth = cond[1] / cond[0] - 1.0
    stable = envelope_quadrature(0.7, 1.2, (50.0, 100.0))
    stable_growth = stable[1] / stable[0] - 1.0
    growing = envelope_quadrature(0.4, 1.2, (50.0, 100.0))
    growing_growth = growing[1] / growing[0] - 1.0
    elapsed = time.monotonic() - started

    ok = (
        0.0 <= cond_growth < 0.05
        and 0.0 <= stable_growth < 0.05
        and growing_growth > 0.20
        and elapsed < 120.0
    )
    criterion_recorder(
        "existence certifier: window stability and divergence detection",
        ok,
        f"condition growth {cond_growth:.2%} < 5%, envelope (0.7,1.2) "
        f"{stable_growth:.2%} < 5%, (0.4,1.2) {growing_growth:.2%} > 20% "
        f"({elapsed:.0f}s < 120s)",
    )
    assert ok, (cond_growth, stable_growth, growing_growth, elapsed)


def test_sampler_cross_validation(criterion_recorder):
    # the same single integral of r, the increment Y_0, sampled two
    # independent ways: the atomic series realization versus direct stable
    # increments on a fine grid
    started = time.monotonic()
    half_width, n_terms, draws = 10.0, 10000, 2000

    series = np.empty(draws)
    for i in range(draws):
        rng = RngStream(master_seed=CROSS_SEEDS[0], stream_index=i)
        jm = build_jump_measure(P.alpha, half_width, n_terms, rng)
        series[i] = simulate_increments(jm, 1, P)[0][0].real

    cells = 65536
    edges = np.linspace(-half_width, half_width, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    r_mid = kernel_r(mids, P)
    grid = np.empty(draws)
    for i in range(draws):
        rng = RngStream(master_seed=CROSS_SEEDS[1], stream_index=i)
        increments = sample_isotropic_stable(
            P.alpha, width ** (1.0 / P.alpha), rng, size=cells
        )
        grid[i] = float(np.real(r_mid @ increments))

    ks = ks_two_sample(series, grid)
    elapsed = time.monotonic() - started
    ok = ks < 0.05 and elapsed < 180.0
    criterion_recorder(
        "sampler cross-validation: series vs grid-increment integrals",
        ok,
        f"ks {ks:.4f} < 0.05 at 2000 draws each ({elapsed:.0f}s < 180s)",
    )
    assert ok, (ks, elapsed)


def test_cli_reports_are_deterministic(criterion_recorder, tmp_path):
    started = time.monotonic()
    cases = [
        ("simulate", ["simulate", "--n", "16", "--n-terms", "200",
                      "--half-width", "5", "--seed", "3", "--format", "json"], False),
        ("lln", ["lln", "--half-width", "5", "--n-terms", "400",
                 "--n-list", "8,16,32", "--reps", "50", "--seed", "9"], True),
        ("clt", ["clt", "--half-width", "5", "--n-terms", "400", "--n", "16",
                 "--reps", "8", "--seed", "10"], True),
        ("iid", ["iid", "--alpha", "1.5", "--n-list", "64,128,256",
                 "--reps", "100", "--seed", "7"], True),
        ("check-condition", ["check-condition", "--lambdas", "20,40"], False),
        ("check-identities", ["check-identities", "--trials", "5",
                              "--n-terms", "200", "--seed", "4"], True),
        ("kernel-limit", ["kernel-limit", "--pairs", "1,-0.5;3,1",
                          "--n-list", "64,256"], False),
        ("simulate-csv", ["simulate", "--n", "16", "--n-terms", "200",
                          "--half-width", "5", "--seed", "3", "--format", "csv"], False),
        ("lln-csv", ["lln", "--half-width", "5", "--n-terms", "400",
                     "--n-list", "8,16,32", "--reps", "50", "--seed", "9",
                     "--format", "csv"], True),
        ("clt-csv", ["clt", "--half-width", "5", "--n-terms", "400", "--n", "16",
                     "--reps", "8", "--seed", "10", "--format", "csv"], True),
        ("iid-csv", ["iid", "--alpha", "1.5", "--n-list", "64,128,256",
                     "--reps", "100", "--seed", "7", "--format", "csv"], True),
    ]
    # files written next to the --out path, by the suffix of their stem
    sidecars = {"clt-csv": ("_error_ecdf", "_limit_ecdf")}
    mismatched = []
    for name, argv, threaded in cases:
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        extra_a = ["--threads", "1"] if threaded else []
        extra_b = ["--threads", "4"] if threaded else []
        rc_a = main(argv + extra_a + ["--out", str(out_a)])
        rc_b = main(argv + extra_b + ["--out", str(out_b)])
        pairs = [(out_a, out_b)] + [
            (tmp_path / f"{name}_a{suffix}.out", tmp_path / f"{name}_b{suffix}.out")
            for suffix in sidecars.get(name, ())
        ]
        if rc_a != 0 or rc_b != 0 or any(a.read_bytes() != b.read_bytes() for a, b in pairs):
            mismatched.append(name)
    elapsed = time.monotonic() - started
    ok = not mismatched
    criterion_recorder(
        "CLI determinism: byte-identical reports across reruns and threads",
        ok,
        (f"all {len(cases)} commands byte-identical ({elapsed:.0f}s)"
         if ok else f"mismatch in: {', '.join(mismatched)}"),
    )
    assert ok, mismatched
