"""Batch command-line front end.

Each command calls the library and writes one artifact, a JSON report or a
CSV data file; this module alone fixes their layouts. Reports embed the
fully resolved config and are byte-identical for identical configs and
seeds, regardless of --threads; wall-clock time is printed to the console
only and serialized as null so artifacts stay reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import nullcontext

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
from .harmonizable import (
    quadratic_statistic,
    rosenblatt_fast,
    simulate_increments,
    t_nodes_for,
)
from .kernels import ModelParams, kernel_h
from .levy_model import build_jump_measure, condition_value
from .rng_stable import RngStream

def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(value)
    return int(value)


def _count(value) -> int:
    value = _integer(value)
    if value < 0:
        raise ValueError(value)
    return value


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(value)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _items(value, sep: str):
    """A JSON list as it is, or a flag string split at sep."""
    if isinstance(value, (list, tuple)):
        return value
    if not isinstance(value, str):
        raise TypeError(value)
    return [tok for tok in value.split(sep) if tok.strip()]


def _int_list(value) -> tuple[int, ...]:
    return tuple(_integer(x) for x in _items(value, ","))


def _real_list(value) -> tuple[float, ...]:
    return tuple(_real(x) for x in _items(value, ","))


def _pairs(value) -> tuple[tuple[float, float], ...]:
    pairs = tuple(_real_list(pair) for pair in _items(value, ";"))
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ValueError(value)
    return pairs


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError(value)
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


# config key -> (flag, converter, help). A command takes the flags of the
# keys in its defaults plus out; flag and config-file values go through the
# same converter.
_FIELDS = {
    "alpha": ("--alpha", _real, "stability index in (0, 2); (0, 2] for iid"),
    "hurst": ("--hurst", _real, "self-similarity index in (0, 1)"),
    "half_width": ("--half-width", _real, "frequency window half-width M"),
    "n_terms": ("--n-terms", _count, "number of series atoms (positive integer)"),
    "n": ("--n", _integer, "number of increments (integer)"),
    "n_list": ("--n-list", _int_list, "comma-separated increment counts, e.g. 64,128,256"),
    "replications": ("--reps", _integer, "Monte Carlo replications (integer)"),
    "seed": ("--seed", _count, "master seed (integer >= 0)"),
    "lambdas": ("--lambdas", _real_list, "comma-separated window half-widths, e.g. 50,100"),
    "r1": ("--r1", _real, "envelope axis exponent"),
    "r2": ("--r2", _real, "envelope gap exponent"),
    "trials": ("--trials", _integer, "random measures to test (integer)"),
    "tolerance": ("--tolerance", _real, "relative residual gate"),
    "pairs": ("--pairs", _pairs, "semicolon-separated s,u pairs, e.g. '1,-0.5;3,1'"),
    "format": ("--format", _format, "output format, csv or json"),
    "threads": ("--threads", _count, "worker threads for the replications or trials (0 = auto)"),
    "out": ("--out", _text, "output file path"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmstable",
        description="Simulation and verification toolkit for a harmonizable "
        "fractional stable model: coupled realizations, quadratic-variation "
        "limits and their distributional checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, (handler, defaults) in _COMMANDS.items():
        # no prefix matching, so an unread --n is not taken for --n-list
        sp = sub.add_parser(name, help=handler.__doc__, allow_abbrev=False,
                            argument_default=argparse.SUPPRESS)
        for key in (*defaults, "out"):
            flag, _, field_help = _FIELDS[key]
            sp.add_argument(flag, dest=key, help=field_help)
        sp.add_argument("--config", help="JSON config file; explicit flags win")
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


def _convert(key: str, value):
    _, convert, help_text = _FIELDS[key]
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid {key} {value!r}: expected {help_text}") from None


def parse_config(argv) -> dict:
    """Resolve command-line flags and optional config file into one dict.

    Precedence: built-in defaults, then config file values, then explicit
    flags. The result carries exactly the keys the command reads, plus out
    and command."""
    given = vars(build_parser().parse_args(argv))
    command = given.pop("command")
    path = given.pop("config", None)
    cfg = {**_COMMANDS[command][1], "out": None}
    values = _load_config_file(path) if path is not None else {}
    for key in values:
        if key not in cfg:
            raise ConfigError(f"unknown config field: {key}")
    values.update(given)
    for key, value in values.items():
        cfg[key] = _convert(key, value)
    cfg["command"] = command
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """The checks no library call makes; the library checks alpha and hurst."""
    half_width = cfg.get("half_width")
    if half_width is not None and half_width < 1.0:
        raise ConfigError(f"half_width must be at least 1, got {half_width}")
    tolerance = cfg.get("tolerance")
    if tolerance is not None and tolerance <= 0.0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")


def _report_config(cfg: dict) -> dict:
    """Config snapshot embedded in artifacts: everything that affects the
    numbers, nothing that does not (threads, output routing)."""
    skip = {"command", "threads", "out", "format"}
    return {k: v for k, v in cfg.items() if k not in skip}


def _emit_json(cfg: dict, kind: str, results: dict) -> None:
    report = {
        "kind": kind,
        "config": _report_config(cfg),
        "results": results,
        "runtime_seconds": None,
        "version": __version__,
    }
    with open(cfg["out"], "w") if cfg["out"] else nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(report, indent=2, default=lambda o: o.tolist()) + "\n")


def _write_csv(dest, header, rows) -> None:
    """Write a header row and rows to the path dest, or to stdout without
    one; floats take 17 significant digits, so they read back exactly."""
    with open(dest, "w", newline="") if dest else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows
        )


def _emit_samples(cfg: dict, kind: str, samples: np.ndarray, results: dict, ns) -> None:
    """The JSON report, or the samples as replication, n, value rows, n-major."""
    if cfg["format"] == "json":
        _emit_json(cfg, kind, results)
        return
    columns = samples.T.tolist()
    _write_csv(cfg["out"], ["replication", "n", "value"],
               ([i, n, v] for n, col in zip(ns, columns) for i, v in enumerate(col)))


def _sidecar(path: str, suffix: str) -> str:
    """path with suffix added to its file name, keeping its extension or
    taking .csv."""
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext or '.csv'}"


# command -> (handler, defaults); a handler's docstring is its help line, and
# it returns its exit code and one-line console summary
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, **defaults):
    def register(handler):
        _COMMANDS[name] = (handler, defaults)
        return handler
    return register


@_command("simulate", alpha=1.2, hurst=0.75, half_width=50.0, n_terms=100000, n=256, seed=0,
          format="csv")
def _simulate(cfg: dict) -> tuple[int, str]:
    """simulate one coupled realization and emit its increments"""
    p = ModelParams(alpha=cfg["alpha"], hurst=cfg["hurst"])
    n = cfg["n"]
    _check_resolution(n, cfg["n_terms"], cfg["half_width"])
    rng = RngStream(master_seed=cfg["seed"], stream_index=0)
    jm = build_jump_measure(p.alpha, cfg["half_width"], cfg["n_terms"], rng)
    y, u = simulate_increments(jm, n, p)
    summary = f"simulate: n={n} atoms={jm.n_terms}"
    if cfg["format"] == "csv":
        _write_csv(cfg["out"], ["j", "re", "im"], ([j, v.real, v.imag] for j, v in enumerate(y)))
        return 0, summary
    results = {
        "u_realized": u,
        "rosenblatt": rosenblatt_fast(jm, p, t_nodes=t_nodes_for(jm.half_width)),
        "q_partial": [[n, quadratic_statistic(y, n)]],
        "increments": [[v.real, v.imag] for v in y],
    }
    _emit_json(cfg, "simulate", results)
    return 0, f"{summary} u_realized={u:.6g}"


@_command("lln", alpha=1.2, hurst=0.75, half_width=50.0, n_terms=100000,
          n_list=(64, 128, 256, 512), replications=200, seed=0, threads=0, format="json")
def _lln(cfg: dict) -> tuple[int, str]:
    """median |Q_n/n - U| decay across n with log-log slope"""
    p = ModelParams(alpha=cfg["alpha"], hurst=cfg["hurst"])
    samples, results = run_lln_experiment(
        p,
        half_width=cfg["half_width"],
        n_terms=cfg["n_terms"],
        n_list=cfg["n_list"],
        replications=cfg["replications"],
        seed=cfg["seed"],
        threads=cfg["threads"],
    )
    _emit_samples(cfg, "lln", samples, results, cfg["n_list"])
    slope = "undefined" if results["slope"] is None else f"{results['slope']:.4f}"
    return 0, (f"lln: slope={slope} target={2.0 * p.hurst - 2.0:.4f} "
               f"reps={cfg['replications']}")


@_command("clt", alpha=1.2, hurst=0.75, half_width=20.0, n_terms=100000, n=256,
          replications=500, seed=0, threads=0, format="json")
def _clt(cfg: dict) -> tuple[int, str]:
    """KS comparison of rescaled errors against limit draws"""
    p = ModelParams(alpha=cfg["alpha"], hurst=cfg["hurst"])
    reps = cfg["replications"]
    samples, results = run_clt_experiment(
        p,
        half_width=cfg["half_width"],
        n_terms=cfg["n_terms"],
        n=cfg["n"],
        replications=reps,
        seed=cfg["seed"],
        threads=cfg["threads"],
    )
    _emit_samples(cfg, "clt", samples, results, (cfg["n"],))
    if cfg["format"] == "csv" and cfg["out"]:
        draws = samples[:, 0]
        for suffix, sample in (("_error_ecdf", draws[:reps]), ("_limit_ecdf", draws[reps:])):
            xs = np.sort(sample).tolist()
            _write_csv(_sidecar(cfg["out"], suffix), ["x", "F"],
                       ([x, (i + 1) / len(xs)] for i, x in enumerate(xs)))
    return 0, f"clt: ks_distance={results['ks_distance']:.6f} samples={reps}+{reps}"


@_command("iid", alpha=1.5, n_list=(64, 128, 256, 512, 1024, 2048, 4096), replications=200,
          seed=0, threads=0, format="json")
def _iid(cfg: dict) -> tuple[int, str]:
    """contrast run: quadratic variation of iid isotropic stable draws"""
    samples, results = iid_stable_qv_experiment(
        cfg["alpha"],
        n_list=cfg["n_list"],
        replications=cfg["replications"],
        seed=cfg["seed"],
        threads=cfg["threads"],
    )
    _emit_samples(cfg, "iid", samples, results, cfg["n_list"])
    slope = "undefined" if results["slope"] is None else f"{results['slope']:.4f}"
    return 0, f"iid: slope={slope} target={2.0 / cfg['alpha']:.4f}"


@_command("check-condition", alpha=1.2, hurst=0.75, lambdas=(50.0, 100.0), r1=0.7, r2=1.2)
def _check_condition(cfg: dict) -> tuple[int, str]:
    """window-stability certificates for the double-integral existence functional"""
    p = ModelParams(alpha=cfg["alpha"], hurst=cfg["hurst"])
    lams = cfg["lambdas"]
    if len(lams) < 2:
        raise ConfigError(f"lambdas needs at least two window sizes, got {lams}")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigError(f"lambdas must be strictly increasing, got {lams}")
    cond = condition_value(lambda s, u: kernel_h(s, u, p), p.alpha, lams).tolist()
    cond_growth = [abs(b / a - 1.0) for a, b in zip(cond, cond[1:])]
    env = envelope_quadrature(cfg["r1"], cfg["r2"], lams)
    env_growth = [abs(b / a - 1.0) for a, b in zip(env, env[1:])]
    results = {
        "lambdas": list(lams),
        "condition_values": cond,
        "condition_growth": cond_growth,
        "r1": cfg["r1"],
        "r2": cfg["r2"],
        "envelope_values": env.tolist(),
        "envelope_growth": env_growth,
    }
    _emit_json(cfg, "condition", results)
    return 0, (f"check-condition: condition growth {max(cond_growth):.4%}, "
               f"envelope growth {max(env_growth):.4%}")


@_command("check-identities", trials=100, half_width=10.0, n_terms=1000, seed=0, tolerance=1e-8,
          threads=0)
def _check_identities(cfg: dict) -> tuple[int, str]:
    """exact pathwise identity sweep on random atomic measures"""
    results = identity_suite(
        trials=cfg["trials"],
        seed=cfg["seed"],
        half_width=cfg["half_width"],
        n_terms=cfg["n_terms"],
        threads=cfg["threads"],
    )
    tol = cfg["tolerance"]
    worst = max(
        results["max_square_decomposition_residual"],
        results["max_error_representation_residual"],
    )
    results["tolerance"] = tol
    _emit_json(cfg, "identities", results)
    summary = (f"check-identities: worst residual {worst:.3e} over "
               f"{cfg['trials']} trials, tolerance {tol:g}")
    if not worst <= tol:
        print(f"error: identity residual {worst:.3e} exceeds tolerance {tol:g}",
              file=sys.stderr)
        return 1, summary
    return 0, summary


@_command("kernel-limit", alpha=1.2, hurst=0.75, pairs=((1.0, -0.5), (3.0, 1.0), (0.5, -2.0)),
          n_list=(64, 256, 1024, 4096, 16384))
def _kernel_limit(cfg: dict) -> tuple[int, str]:
    """deterministic rescaled-kernel convergence check"""
    p = ModelParams(alpha=cfg["alpha"], hurst=cfg["hurst"])
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
    return 0, (f"kernel-limit: max final deviation {final:.3e}, "
               f"decreasing={'yes' if decreasing else 'no'}")


def main(argv=None) -> int:
    """Run one command. Its console summary, with the wall time, goes to
    stderr whenever stdout carries the artifact itself, so piped output stays
    parseable."""
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        started = time.time()
        code, summary = _COMMANDS[cfg["command"]][0](cfg)
    except HarmstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{summary} (runtime {time.time() - started:.2f}s)",
          file=sys.stdout if cfg["out"] else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
