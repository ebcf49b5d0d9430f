"""Batch command-line front end.

Commands dispatch to the experiment runners and write JSON reports or CSV
data files. Reports embed the fully resolved config and are byte-identical
for identical configs and seeds, regardless of --threads; wall-clock time
is printed to the console only and serialized as null so artifacts stay
reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    _check_resolution,
    envelope_quadrature,
    identity_suite,
    iid_stable_qv_experiment,
    kernel_limit_check,
    run_clt_experiment,
    run_lln_experiment,
)
from .errors import ConfigError, HarmstableError
from .harmonizable import couple, increments_to_csv, simulate_increments
from .kernels import ModelParams, kernel_h, psi
from .levy_model import build_jump_measure, condition_value
from .quadrature import QuadratureSpec
from .rng_stable import RngStream

COMMANDS = (
    "simulate",
    "lln",
    "clt",
    "iid",
    "check-condition",
    "check-identities",
    "kernel-limit",
)

_DEFAULTS: dict[str, dict] = {
    "simulate": {
        "alpha": 1.2,
        "hurst": 0.75,
        "half_width": 50.0,
        "n_terms": 100000,
        "n": 256,
        "seed": 0,
        "format": "csv",
    },
    "lln": {
        "alpha": 1.2,
        "hurst": 0.75,
        "half_width": 50.0,
        "n_terms": 100000,
        "n_list": (64, 128, 256, 512),
        "replications": 200,
        "seed": 0,
        "format": "json",
    },
    "clt": {
        "alpha": 1.2,
        "hurst": 0.75,
        "half_width": 20.0,
        "n_terms": 100000,
        "n": 256,
        "replications": 500,
        "seed": 0,
        "format": "json",
    },
    "iid": {
        "alpha": 1.5,
        "n_list": (64, 128, 256, 512, 1024, 2048, 4096),
        "replications": 200,
        "seed": 0,
        "format": "json",
    },
    "check-condition": {
        "alpha": 1.2,
        "hurst": 0.75,
        "lambdas": (50.0, 100.0),
        "r1": 0.7,
        "r2": 1.2,
        "format": "json",
    },
    "check-identities": {
        "trials": 100,
        "half_width": 10.0,
        "n_terms": 1000,
        "seed": 0,
        "tolerance": 1e-8,
        "format": "json",
    },
    "kernel-limit": {
        "alpha": 1.2,
        "hurst": 0.75,
        "pairs": ((1.0, -0.5), (3.0, 1.0), (0.5, -2.0)),
        "n_list": (64, 256, 1024, 4096, 16384),
        "format": "json",
    },
}


def _parse_int_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(x) for x in text)
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"n_list must be comma-separated integers, got {text!r}")


def _parse_float_list(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(x) for x in text)
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated reals, got {text!r}")


def _parse_pairs(text) -> tuple[tuple[float, float], ...]:
    if isinstance(text, (list, tuple)):
        return tuple((float(a), float(b)) for a, b in text)
    pairs = []
    for chunk in str(text).split(";"):
        if not chunk.strip():
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"pairs must look like 's,u;s,u', got {text!r}")
        pairs.append((float(parts[0]), float(parts[1])))
    if not pairs:
        raise ConfigError(f"pairs must contain at least one 's,u' entry, got {text!r}")
    return tuple(pairs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmstable",
        description="Simulation and verification toolkit for a harmonizable "
        "fractional stable model: coupled realizations, quadratic-variation "
        "limits and their distributional checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(sp):
        sp.add_argument("--alpha", type=float, default=None, help="stability index in (0, 2)")
        sp.add_argument("--hurst", type=float, default=None, help="self-similarity index in (0, 1)")
        sp.add_argument("--half-width", type=float, default=None, dest="half_width",
                        help="frequency window half-width M")
        sp.add_argument("--n-terms", type=int, default=None, dest="n_terms",
                        help="number of series atoms")
        sp.add_argument("--n", type=int, default=None, help="number of increments")
        sp.add_argument("--n-list", default=None, dest="n_list",
                        help="comma-separated increment counts, e.g. 64,128,256")
        sp.add_argument("--reps", type=int, default=None, dest="replications",
                        help="Monte Carlo replications")
        sp.add_argument("--seed", type=int, default=None, help="master seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads for the replication loop (0 = auto)")
        sp.add_argument("--out", default=None, help="output file path")
        sp.add_argument("--format", default=None, choices=("csv", "json"),
                        help="output format")
        sp.add_argument("--config", default=None,
                        help="JSON config file; explicit flags win")

    helps = {
        "simulate": "simulate one coupled realization and emit its increments",
        "lln": "median |Q_n/n - U| decay across n with log-log slope",
        "clt": "KS comparison of rescaled errors against limit draws",
        "iid": "contrast run: quadratic variation of iid isotropic stable draws",
        "check-condition": "window-stability certificates for the double-integral existence functional",
        "check-identities": "exact pathwise identity sweep on random atomic measures",
        "kernel-limit": "deterministic rescaled-kernel convergence check",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        add_common(sp)
        if name == "check-condition":
            sp.add_argument("--lambdas", default=None,
                            help="comma-separated window half-widths, e.g. 50,100")
            sp.add_argument("--r1", type=float, default=None, help="envelope axis exponent")
            sp.add_argument("--r2", type=float, default=None, help="envelope gap exponent")
        if name == "check-identities":
            sp.add_argument("--trials", type=int, default=None, help="random measures to test")
            sp.add_argument("--tolerance", type=float, default=None,
                            help="relative residual gate")
        if name == "kernel-limit":
            sp.add_argument("--pairs", default=None,
                            help="semicolon-separated s,u pairs, e.g. '1,-0.5;3,1'")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


def parse_config(argv) -> dict:
    """Resolve command-line flags and optional config file into one dict.

    Precedence: built-in defaults, then config file values, then explicit
    flags. The result always carries every key the command understands."""
    ns = build_parser().parse_args(argv)
    command = ns.command
    cfg = dict(_DEFAULTS[command])
    cfg.setdefault("threads", 0)
    cfg.setdefault("out", None)

    flag_values = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    known = set(cfg) | set(flag_values)
    if ns.config is not None:
        for key, value in _load_config_file(ns.config).items():
            if key not in known:
                raise ConfigError(f"unknown config field: {key}")
            cfg[key] = value
    for key, value in flag_values.items():
        if value is not None:
            cfg[key] = value
    for key in list(cfg):
        if key not in known:
            raise ConfigError(f"field {key} is not accepted by command {command}")

    if "n_list" in cfg:
        cfg["n_list"] = _parse_int_list(cfg["n_list"])
    if "lambdas" in cfg:
        cfg["lambdas"] = _parse_float_list(cfg["lambdas"])
    if "pairs" in cfg:
        cfg["pairs"] = _parse_pairs(cfg["pairs"])
    cfg["command"] = command
    _validate(cfg)
    return cfg


def _require_range(cfg, key, lo, hi, lo_open=True, hi_open=True) -> None:
    value = cfg.get(key)
    if value is None:
        raise ConfigError(f"missing required field: {key}")
    value = float(value)
    below = value <= lo if lo_open else value < lo
    above = value >= hi if hi_open else value > hi
    if below or above:
        raise ConfigError(
            f"{key} must lie in the interval "
            f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}, got {value}"
        )


def _validate(cfg: dict) -> None:
    command = cfg["command"]
    if command in ("simulate", "lln", "clt", "check-condition", "kernel-limit"):
        _require_range(cfg, "alpha", 0.0, 2.0)
        _require_range(cfg, "hurst", 0.0, 1.0)
    if command == "iid":
        _require_range(cfg, "alpha", 0.0, 2.0, hi_open=False)
    if command in ("simulate", "lln", "clt", "check-identities"):
        half_width = float(cfg["half_width"])
        if not (math.isfinite(half_width) and half_width >= 1.0):
            raise ConfigError(f"half_width must be finite and at least 1, got {half_width}")
        if int(cfg["n_terms"]) < 0:
            raise ConfigError(f"n_terms must be nonnegative, got {cfg['n_terms']}")
    if command == "clt":
        p = ModelParams(alpha=float(cfg["alpha"]), hurst=float(cfg["hurst"]))
        if not p.clt_regime:
            raise ConfigError(
                "clt requires hurst > 1/2 and alpha*(1-hurst) < 1/2; "
                f"got alpha={p.alpha}, hurst={p.hurst} "
                f"(alpha*(1-hurst)={p.alpha * (1.0 - p.hurst):g})"
            )
    if int(cfg.get("seed", 0)) < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg['seed']}")
    if int(cfg.get("threads", 0)) < 0:
        raise ConfigError(f"threads must be >= 0, got {cfg['threads']}")


def _report_config(cfg: dict) -> dict:
    """Config snapshot embedded in artifacts: everything that affects the
    numbers, nothing that does not (threads, output routing)."""
    skip = {"command", "threads", "out", "format"}
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items() if k not in skip}


def _clean(value):
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _announce(cfg: dict, text: str) -> None:
    """One-line console summary; goes to stderr whenever stdout carries the
    artifact itself, so piped output stays parseable."""
    print(text, file=sys.stdout if cfg.get("out") else sys.stderr)


def _emit_json(cfg: dict, kind: str, results: dict) -> None:
    report = {
        "kind": kind,
        "config": _clean(_report_config(cfg)),
        "results": _clean(results),
        "runtime_seconds": None,
        "version": __version__,
    }
    text = json.dumps(report, indent=2) + "\n"
    out = cfg.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_samples_csv(path_or_stdout, raw) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["replication", "n", "value"])
        for rep, n, value in raw:
            writer.writerow([rep, n, format(value, ".17g")])

    if path_or_stdout:
        with open(path_or_stdout, "w", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _write_ecdf_csv(path, sample) -> None:
    xs = np.sort(np.asarray(sample, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "F"])
        for i, x in enumerate(xs):
            writer.writerow([format(x, ".17g"), format((i + 1) / xs.size, ".17g")])


def _sidecar(path: str, suffix: str) -> str:
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}{suffix}.csv"
    return f"{stem}{suffix}.{ext}"


def _cmd_simulate(cfg: dict, started: float) -> int:
    p = ModelParams(alpha=float(cfg["alpha"]), hurst=float(cfg["hurst"]))
    n = int(cfg["n"])
    _check_resolution(n, int(cfg["n_terms"]), float(cfg["half_width"]))
    rng = RngStream(master_seed=int(cfg["seed"]), stream_index=0)
    jm = build_jump_measure(p.alpha, float(cfg["half_width"]), int(cfg["n_terms"]), rng)
    if cfg["format"] == "csv":
        increments_to_csv(simulate_increments(jm, n, p), cfg.get("out") or sys.stdout)
        _announce(cfg, f"simulate: n={n} atoms={jm.n_terms} "
                       f"(runtime {time.time() - started:.2f}s)")
        return 0
    real = couple(jm, p, n, q_marks=(n,), with_rosenblatt=True)
    results = {
        "u_realized": real.u_realized,
        "rosenblatt": real.rosenblatt,
        "q_partial": [[m, q] for m, q in real.q_partial],
        "increments": [[y.real, y.imag] for y in real.increments.increments],
    }
    _emit_json(cfg, "simulate", results)
    _announce(cfg, f"simulate: n={n} atoms={jm.n_terms} "
                   f"u_realized={real.u_realized:.6g} "
                   f"(runtime {time.time() - started:.2f}s)")
    return 0


def _cmd_lln(cfg: dict, started: float) -> int:
    p = ModelParams(alpha=float(cfg["alpha"]), hurst=float(cfg["hurst"]))
    report = run_lln_experiment(
        p,
        half_width=float(cfg["half_width"]),
        n_terms=int(cfg["n_terms"]),
        n_list=cfg["n_list"],
        replications=int(cfg["replications"]),
        seed=int(cfg["seed"]),
        threads=int(cfg["threads"]),
    )
    if cfg["format"] == "csv":
        _write_samples_csv(cfg.get("out"), report.raw)
    else:
        _emit_json(cfg, "lln", report.results_dict())
    slope = "undefined" if report.slope is None else f"{report.slope:.4f}"
    _announce(cfg, f"lln: slope={slope} target={2.0 * p.hurst - 2.0:.4f} "
                   f"reps={cfg['replications']} (runtime {time.time() - started:.2f}s)")
    return 0


def _cmd_clt(cfg: dict, started: float) -> int:
    p = ModelParams(alpha=float(cfg["alpha"]), hurst=float(cfg["hurst"]))
    report = run_clt_experiment(
        p,
        half_width=float(cfg["half_width"]),
        n_terms=int(cfg["n_terms"]),
        n=int(cfg["n"]),
        replications=int(cfg["replications"]),
        seed=int(cfg["seed"]),
        threads=int(cfg["threads"]),
    )
    if cfg["format"] == "csv":
        out = cfg.get("out")
        _write_samples_csv(out, report.raw)
        if out:
            _write_ecdf_csv(_sidecar(out, "_error_ecdf"), report.extras["normalized_errors"])
            _write_ecdf_csv(_sidecar(out, "_limit_ecdf"), report.extras["limit_draws"])
    else:
        _emit_json(cfg, "clt", report.results_dict())
    _announce(cfg, f"clt: ks_distance={report.ks_distance:.6f} "
                   f"samples={cfg['replications']}+{cfg['replications']} "
                   f"(runtime {time.time() - started:.2f}s)")
    return 0


def _cmd_iid(cfg: dict, started: float) -> int:
    report = iid_stable_qv_experiment(
        float(cfg["alpha"]),
        n_list=cfg["n_list"],
        replications=int(cfg["replications"]),
        seed=int(cfg["seed"]),
        threads=int(cfg["threads"]),
    )
    if cfg["format"] == "csv":
        _write_samples_csv(cfg.get("out"), report.raw)
    else:
        _emit_json(cfg, "iid", report.results_dict())
    slope = "undefined" if report.slope is None else f"{report.slope:.4f}"
    _announce(cfg, f"iid: slope={slope} target={2.0 / float(cfg['alpha']):.4f} "
                   f"(runtime {time.time() - started:.2f}s)")
    return 0


def _cmd_check_condition(cfg: dict, started: float) -> int:
    if cfg["format"] == "csv":
        raise ConfigError("format csv is not supported for check-condition; use json")
    p = ModelParams(alpha=float(cfg["alpha"]), hurst=float(cfg["hurst"]))
    lams = cfg["lambdas"]
    if len(lams) < 2:
        raise ConfigError(f"lambdas needs at least two window sizes, got {lams}")
    psi_fn = lambda s: psi(s, 2.0 / p.alpha, p.alpha)
    cond = [
        condition_value(
            lambda s, u: kernel_h(s, u, p), p.alpha, psi_fn,
            QuadratureSpec(outer_cutoff=lam),
        )
        for lam in lams
    ]
    cond_growth = [abs(b / a - 1.0) for a, b in zip(cond, cond[1:])]
    env = envelope_quadrature(float(cfg["r1"]), float(cfg["r2"]), lams)
    env_growth = [abs(b / a - 1.0) for a, b in zip(env, env[1:])]
    results = {
        "lambdas": list(lams),
        "condition_values": cond,
        "condition_growth": cond_growth,
        "r1": float(cfg["r1"]),
        "r2": float(cfg["r2"]),
        "envelope_values": env.tolist(),
        "envelope_growth": env_growth,
    }
    _emit_json(cfg, "condition", results)
    _announce(cfg, f"check-condition: condition growth {max(cond_growth):.4%}, "
                   f"envelope growth {max(env_growth):.4%} "
                   f"(runtime {time.time() - started:.2f}s)")
    return 0


def _cmd_check_identities(cfg: dict, started: float) -> int:
    if cfg["format"] == "csv":
        raise ConfigError("format csv is not supported for check-identities; use json")
    results = identity_suite(
        trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
        half_width=float(cfg["half_width"]),
        n_terms=int(cfg["n_terms"]),
        threads=int(cfg["threads"]),
    )
    tol = float(cfg["tolerance"])
    worst = max(
        results["max_square_decomposition_residual"],
        results["max_error_representation_residual"],
    )
    results["tolerance"] = tol
    _emit_json(cfg, "identities", results)
    _announce(cfg, f"check-identities: worst residual {worst:.3e} over "
                   f"{cfg['trials']} trials (tolerance {tol:g}, "
                   f"runtime {time.time() - started:.2f}s)")
    if worst > tol:
        print(f"error: identity residual {worst:.3e} exceeds tolerance {tol:g}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_kernel_limit(cfg: dict, started: float) -> int:
    if cfg["format"] == "csv":
        raise ConfigError("format csv is not supported for kernel-limit; use json")
    p = ModelParams(alpha=float(cfg["alpha"]), hurst=float(cfg["hurst"]))
    n_list = cfg["n_list"]
    rows = []
    decreasing = True
    for s, u in cfg["pairs"]:
        devs = kernel_limit_check(s, u, p, n_list)
        rows.append({"s": s, "u": u, "deviations": devs.tolist()})
        decreasing = decreasing and devs[-1] < devs[0]
    results = {"n_list": list(n_list), "pairs": rows, "decreasing": decreasing}
    final = max(row["deviations"][-1] for row in rows)
    _emit_json(cfg, "kernel_limit", results)
    _announce(cfg, f"kernel-limit: max final deviation {final:.3e}, "
                   f"decreasing={'yes' if decreasing else 'no'} "
                   f"(runtime {time.time() - started:.2f}s)")
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "lln": _cmd_lln,
    "clt": _cmd_clt,
    "iid": _cmd_iid,
    "check-condition": _cmd_check_condition,
    "check-identities": _cmd_check_identities,
    "kernel-limit": _cmd_kernel_limit,
}


def dispatch(cfg: dict) -> int:
    started = time.time()
    return _DISPATCH[cfg["command"]](cfg, started)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        return dispatch(cfg)
    except HarmstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
