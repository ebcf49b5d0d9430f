"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    import tomli as tomllib

import harmstable
from harmstable import (
    JumpMeasure,
    ModelParams,
    RngStream,
    __version__,
    analysis,
    build_jump_measure,
    cli,
    iid_stable_qv_experiment,
    run_clt_experiment,
    run_lln_experiment,
    simulate_increments,
)
from harmstable.cli import _COMMANDS, main, parse_config
from harmstable.errors import ConfigError

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE_ROOT = Path(harmstable.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

LLN_ARGS = [
    "lln",
    "--half-width", "5", "--n-terms", "400", "--n-list", "8,16,32",
    "--reps", "50", "--seed", "9",
]


def package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def bits(a: np.ndarray) -> np.ndarray:
    """The array's float64 words, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def read_increments(text: str) -> np.ndarray:
    """The j, re, im rows of an increments CSV as a complex vector."""
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["j", "re", "im"]
    assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
    return np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]], dtype=complex)


# finite doubles with the edge cases of a 17-digit text round trip: signed
# zeros, subnormals, the smallest normal and magnitudes near overflow
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


class TestParseConfig:
    def test_defaults_resolved(self):
        cfg = parse_config(["simulate"])
        assert cfg["command"] == "simulate"
        assert cfg["alpha"] == 1.2 and cfg["hurst"] == 0.75
        assert cfg["half_width"] == 50.0 and cfg["n_terms"] == 100000
        assert cfg["n"] == 256 and cfg["format"] == "csv"
        assert cfg["out"] is None and "threads" not in cfg
        assert parse_config(["lln"])["threads"] == 0

    def test_config_file_overrides_defaults_and_flags_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 64, "seed": 5, "n-terms": 500}))
        cfg = parse_config(["simulate", "--config", str(path), "--seed", "9"])
        assert cfg["n"] == 64          # from file
        assert cfg["n_terms"] == 500   # hyphenated key accepted
        assert cfg["seed"] == 9        # explicit flag wins

    def test_unknown_config_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(ConfigError, match="unknown config field"):
            parse_config(["simulate", "--config", str(path)])

    def test_list_flags_parsed(self):
        cfg = parse_config(["lln", "--n-list", "8,16,32"])
        assert cfg["n_list"] == (8, 16, 32)
        cfg = parse_config(["check-condition", "--lambdas", "20,40"])
        assert cfg["lambdas"] == (20.0, 40.0)
        cfg = parse_config(["kernel-limit", "--pairs", "1,-0.5;3,1"])
        assert cfg["pairs"] == ((1.0, -0.5), (3.0, 1.0))

    # the CLI checks its own fields; alpha, hurst and the clt regime are
    # checked by the library calls the handlers make, before any draw. The
    # one error line names the last flag given.
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "2.5"],
            ["simulate", "--hurst", "0"],
            ["simulate", "--half-width", "0.5"],
            ["clt", "--hurst", "0.4"],
            ["clt", "--alpha", "1.8", "--hurst", "0.55"],
            ["lln", "--seed", "-1"],
            ["kernel-limit", "--pairs", "1,a"],
            ["iid", "--alpha", "0"],
            ["kernel-limit", "--hurst", "1"],
            ["check-condition", "--alpha", "2"],
        ],
    )
    def test_validation_failures(self, capsys, argv):
        rc, out, err = run_main(capsys, argv)
        assert rc == 2 and out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error:") and argv[-2].lstrip("-").replace("-", "_") in err

    def test_missing_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            parse_config([])


# one or two flags per command that the command does not read; --n is a
# prefix of --n-list and --n-terms, so it must not pass as either, the
# commands that write only JSON take no --format, and those that run no
# worker pool take no --threads
UNREAD_FLAGS = [
    ("simulate", "--reps", "replications", "5"),
    ("lln", "--n", "n", "8"),
    ("clt", "--n-list", "n_list", "8,16"),
    ("iid", "--hurst", "hurst", "0.3"),
    ("iid", "--n", "n", "5"),
    ("check-condition", "--n-terms", "n_terms", "9"),
    ("check-identities", "--alpha", "alpha", "1.2"),
    ("check-identities", "--n", "n", "5"),
    ("kernel-limit", "--seed", "seed", "3"),
    ("kernel-limit", "--n", "n", "5"),
    ("check-condition", "--format", "format", "json"),
    ("check-identities", "--format", "format", "json"),
    ("kernel-limit", "--format", "format", "json"),
    ("simulate", "--threads", "threads", "2"),
    ("check-condition", "--threads", "threads", "2"),
    ("kernel-limit", "--threads", "threads", "2"),
]

# small runs of every command with a JSON report
SMALL_RUNS = {
    "simulate": ["--n", "8", "--n-terms", "100", "--half-width", "5", "--format", "json"],
    "lln": LLN_ARGS[1:] + ["--threads", "2"],
    "clt": ["--half-width", "5", "--n-terms", "400", "--n", "16", "--reps", "4",
            "--threads", "2"],
    "iid": ["--n-list", "64,128,256", "--reps", "100", "--threads", "2"],
    "check-condition": ["--lambdas", "20,40"],
    "check-identities": ["--trials", "2", "--n-terms", "200", "--threads", "2"],
    "kernel-limit": ["--n-list", "64,256"],
}


class TestPerCommandFlags:
    """Each command takes the flags of the fields it reads, plus --out and
    --config; its report's config holds exactly those fields but --threads
    and --format."""

    @pytest.mark.parametrize("command, flag, key, value", UNREAD_FLAGS)
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag, key, value):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, key, value", UNREAD_FLAGS)
    def test_unread_key_in_config_file_rejected(self, tmp_path, command, flag, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"unknown config field: {key}"):
            parse_config([command, "--config", str(path)])

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_report_config_is_the_command_fields(self, capsys, command):
        rc, out, _ = run_main(capsys, [command, *SMALL_RUNS[command]])
        assert rc == 0
        defaults = _COMMANDS[command][1]
        assert list(json.loads(out)["config"]) == [
            k for k in defaults if k not in ("threads", "format")
        ]

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("simulate", {"n": "abc"}),
            ("simulate", {"n": None}),
            ("simulate", {"n": 8.7}),
            ("simulate", {"alpha": "x"}),
            ("simulate", {"seed": None}),
            ("simulate", {"seed": -1}),
            ("simulate", {"n_terms": True}),
            ("simulate", {"format": "xml"}),
            ("simulate", {"out": 3}),
            ("lln", {"n_list": [8, 16.5]}),
            ("lln", {"n_list": 64}),
            ("check-condition", {"lambdas": "20,x"}),
            ("kernel-limit", {"pairs": [[1.0]]}),
            ("kernel-limit", {"pairs": "1,a"}),
        ],
    )
    def test_malformed_config_value_exits_2(self, capsys, tmp_path, command, fields):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fields))
        rc, out, err = run_main(capsys, [command, "--config", str(path)])
        assert rc == 2 and out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"error: invalid {next(iter(fields))} ")

    def test_config_values_take_the_flag_converters(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"half_width": 5, "n_list": "8,16", "seed": "3"}))
        cfg = parse_config(["lln", "--config", str(path)])
        assert cfg["half_width"] == 5.0 and type(cfg["half_width"]) is float
        assert cfg["n_list"] == (8, 16) and cfg["seed"] == 3


def test_readme_flag_table_matches_the_parser():
    # each row of README's flag table, "| `command` | `--flag ...` |", lists
    # exactly the flags its subparser declares but the shared --out and
    # --config
    rows = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if len(cells) == 2 and cells[0] in _COMMANDS:
            rows[cells[0]] = cells[1].split()
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: [flag for action in sp._actions for flag in action.option_strings
               if flag not in ("-h", "--help", "--out", "--config")]
        for name, sp in subparsers.choices.items()
    }
    assert rows == declared


class TestBenchmarkTracer:
    def test_tracer_binds_to_the_package(self, monkeypatch, capsys):
        # the benchmark's --trace 1 wraps functions by name and reads work
        # counts from their bound arguments, so a renamed function or
        # parameter breaks it
        monkeypatch.syspath_prepend(str(PERFBENCH))
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # simulate --format json must pass rosenblatt_fast an explicit
            # node count, which the tracer multiplies by the atom count
            assert cli.main(["simulate", *SMALL_RUNS["simulate"]]) == 0
            assert tracer.take()["harmonizable.rosenblatt_fast"][3] > 0
            for command in ("lln", "clt", "check-identities", "check-condition"):
                assert cli.main([command, *SMALL_RUNS[command]]) == 0
        finally:
            tracer.uninstall()
        assert cli.main is main
        totals = tracer.take()
        for layer in (
            "levy_model.build_jump_measure",  # atoms
            "harmonizable.simulate_increments",  # atom_steps
            "harmonizable.rosenblatt_fast",  # node_atoms
            "levy_model.double_integrate",  # pairs
            "quadrature.grid_integral_2d",  # cells
        ):
            assert totals[layer][3] > 0, layer
        assert totals["levy_model.condition_value"][0] > 0


class TestBenchmarkChecks:
    def test_checks_accept_the_package_output(self, monkeypatch, capsys):
        # the benchmark checks each round's output against its own sums on
        # atoms it rebuilds with build_jump_measure and reads the measure's
        # calibration, so a change to either breaks its rounds
        monkeypatch.syspath_prepend(str(PERFBENCH))
        checks = importlib.import_module("checks")
        workloads = importlib.import_module("workloads")
        seed = 3
        small = {"alpha": 1.2, "half_width": 5.0, "n_terms": 2000}
        lln = dict(workloads.LLN, **small, n_list=(16, 32, 64, 128))
        clt = dict(workloads.CLT, **small, n=32)
        flags = ["--alpha", "1.2", "--half-width", "5", "--n-terms", "2000",
                 "--seed", str(seed), "--format", "csv"]

        rc, out, _ = run_main(capsys, ["lln", *flags, "--n-list", "16,32,64,128",
                                       "--reps", str(lln["replications"])])
        assert rc == 0
        assert checks.check_lln(out, lln, seed, [4, 31]) == []
        rc, out, _ = run_main(capsys, ["clt", *flags, "--n", "32",
                                       "--reps", str(clt["replications"])])
        assert rc == 0
        assert checks.check_clt(out, clt, seed, [0, 5], with_ks=True) == []

        jm = build_jump_measure(1.2, 5.0, 2000, RngStream(seed, 0))
        off = dataclasses.replace(jm, calibration=1.02 * jm.calibration)
        assert len(checks.calibration_errors(off, lln)) == 1


class TestMainExitCodes:
    def test_config_error_returns_2(self, capsys):
        rc, _, err = run_main(capsys, ["simulate", "--alpha", "2.5"])
        assert rc == 2 and err.startswith("error:")

    @pytest.mark.parametrize("tolerance", ["-1", "0"])
    def test_nonpositive_tolerance_returns_2(self, capsys, tolerance):
        rc, out, err = run_main(
            capsys, ["check-identities", "--trials", "1", "--n-terms", "50",
                     "--tolerance", tolerance]
        )
        assert rc == 2 and out == ""
        assert err == f"error: tolerance must be positive, got {float(tolerance)}\n"

    # 0 atoms fail the resolution check or build_jump_measure, so the help
    # text must not advertise them
    @pytest.mark.parametrize("command", ["simulate", "lln", "clt", "check-identities"])
    def test_zero_n_terms_returns_2(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--n-terms N_TERMS number of series atoms (positive integer)" in help_text
        rc, out, err = run_main(capsys, [command, "--n-terms", "0"])
        assert rc == 2 and out == ""
        assert err.splitlines() == [err.rstrip("\n")] and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv,config,key",
        [
            (["simulate", "--half-width", "nan", "--n", "8", "--n-terms", "50"], None,
             "half_width"),
            (["clt", "--half-width", "inf"], None, "half_width"),
            (["check-identities", "--tolerance", "nan"], None, "tolerance"),
            (["check-condition", "--r1", "nan"], None, "r1"),
            (["kernel-limit", "--pairs", "1,nan"], None, "pairs"),
            (["check-condition", "--lambdas", "20,-inf"], None, "lambdas"),
            # json.load reads a bare NaN, so a config file can carry one
            (["lln"], '{"alpha": NaN}', "alpha"),
        ],
        ids=["half_width-nan", "half_width-inf", "tolerance-nan", "r1-nan", "pairs-nan",
             "lambdas-neginf", "config-alpha-nan"],
    )
    def test_nonfinite_real_returns_2(self, capsys, tmp_path, argv, config, key):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        rc, out, err = run_main(capsys, argv)
        assert rc == 2 and out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"error: invalid {key} ")

    def test_simulate_beyond_resolution_limit_returns_2(self, capsys):
        rc, out, err = run_main(
            capsys, ["simulate", "--n", "4000", "--n-terms", "100", "--half-width", "5"]
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error: n=4000 exceeds the resolution limit")

    def test_unreadable_config_returns_2(self, capsys):
        rc, _, err = run_main(capsys, ["simulate", "--config", "/no/such/file.json"])
        assert rc == 2 and "cannot read config file" in err

    def test_unwritable_out_returns_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        rc, _, err = run_main(
            capsys,
            ["lln", *LLN_ARGS[1:], "--out", str(target)],
        )
        assert rc == 1 and err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,what", [
        (["iid", "--alpha", "0.001", "--reps", "100", "--n-list", "1,2,3"],
         "isotropic stable draw is non-finite"),
        (["kernel-limit", "--alpha", "0.01", "--hurst", "0.99"], "kernel limit at"),
        (["check-condition", "--alpha", "0.01", "--hurst", "0.5"],
         "condition integrand is non-finite at cell midpoint"),
    ])
    def test_nonfinite_output_returns_2(self, capsys, argv, what):
        # at these alphas a stable draw, n^(-2/alpha) |s u|^gamma or the
        # condition integrand's |f|^alpha and |f|/envelope leave the double
        # range; the command stops instead of writing NaN or Infinity, and
        # warns of nothing first
        rc, out, err = run_main(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and what in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestSimulateCommand:
    def test_csv_to_stdout_with_summary_on_stderr(self, capsys):
        rc, out, err = run_main(
            capsys,
            ["simulate", "--n", "8", "--n-terms", "100", "--half-width", "5",
             "--seed", "1"],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,re,im"
        assert len(lines) == 9
        assert lines[1].startswith("0,")
        assert err.startswith("simulate:")

    def test_json_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "real.json"
        rc, out, err = run_main(
            capsys,
            ["simulate", "--n", "8", "--n-terms", "100", "--half-width", "5",
             "--seed", "1", "--format", "json", "--out", str(path)],
        )
        assert rc == 0
        assert err == ""  # artifact went to a file, so the summary uses stdout
        assert out.startswith("simulate:")
        report = json.loads(path.read_text())
        assert report["kind"] == "simulate"
        assert report["version"] == __version__
        assert report["runtime_seconds"] is None
        assert report["config"]["seed"] == 1 and report["config"]["n"] == 8
        results = report["results"]
        assert results["u_realized"] > 0.0
        assert isinstance(results["rosenblatt"], float)
        assert results["q_partial"] == [[8, pytest.approx(results["q_partial"][0][1])]]
        assert len(results["increments"]) == 8

    def test_json_with_overflowing_realized_limit_returns_2(self, capsys, monkeypatch):
        # |r(s_i) v_i|^2 of these atoms overflows, so the increment pass
        # stops at its check of U before any limit draw is taken
        jm = JumpMeasure(np.array([-1.0, 0.5]), np.array([1e200 + 0j, 1e200 + 0j]), 2.0, 1.0)
        monkeypatch.setattr(cli, "build_jump_measure", lambda *args: jm)
        rc, out, err = run_main(
            capsys, ["simulate", "--n", "1", "--n-terms", "100", "--half-width", "5",
                     "--format", "json"]
        )
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "realized limit U is non-finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_json_with_overflowing_limit_draw_returns_2(self, capsys, monkeypatch):
        # atoms next to the zeros of r at s = +-2 pi: |r(s_i)| ~ 1.3e-17
        # keeps U ~ 3.6e286 and Q_1 ~ 7.1e286 finite, while the limit draw's
        # |a_i|^2 = (|s_i|^gamma |v_i|)^2 overflows
        jm = JumpMeasure(np.array([-2 * np.pi, 2 * np.pi]), np.array([1e160 + 0j, 1e160 + 0j]),
                         7.0, 1.0)
        monkeypatch.setattr(cli, "build_jump_measure", lambda *args: jm)
        rc, out, err = run_main(capsys, ["simulate", "--n", "1", "--format", "json"])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "limit draw is non-finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    # 40^(1/0.005) overflows; at alpha 0.01 the calibration 1.8e160 is finite
    # but seed 4's smallest arrival is 0.00606, and 0.00606^(-100) = 5.3e221
    # takes its atom value past 1.8e308
    @pytest.mark.parametrize("extra", [["--alpha", "0.005"], ["--alpha", "0.01", "--seed", "4"]])
    def test_overflowing_measure_returns_2(self, capsys, extra):
        rc, out, err = run_main(
            capsys, ["simulate", "--hurst", "0.5", "--half-width", "20", "--n-terms", "100",
                     "--n", "2", *extra]
        )
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "overflows" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_deterministic_output(self, capsys):
        _, out_a, _ = run_main(capsys, ["simulate", "--n", "8", "--n-terms", "100",
                                        "--half-width", "5", "--seed", "1"])
        _, out_b, _ = run_main(capsys, ["simulate", "--n", "8", "--n-terms", "100",
                                        "--half-width", "5", "--seed", "1"])
        assert out_a == out_b


class TestExperimentCommands:
    def test_lln_json_to_stdout(self, capsys):
        rc, out, err = run_main(capsys, LLN_ARGS)
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "lln"
        assert [row["n"] for row in report["results"]["per_n"]] == [8, 16, 32]
        assert report["results"]["slope"] < 0.0
        assert "lln: slope=" in err

    def test_lln_artifact_independent_of_threads(self, capsys):
        _, out_a, _ = run_main(capsys, LLN_ARGS + ["--threads", "1"])
        _, out_b, _ = run_main(capsys, LLN_ARGS + ["--threads", "4"])
        assert out_a == out_b

    def test_lln_csv_samples(self, capsys):
        rc, out, _ = run_main(capsys, LLN_ARGS + ["--format", "csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "replication,n,value"
        assert len(lines) == 1 + 50 * 3

    def test_clt_json_and_csv_sidecars(self, capsys, tmp_path):
        base = ["clt", "--half-width", "5", "--n-terms", "400", "--n", "16",
                "--reps", "8", "--seed", "10"]
        rc, out, _ = run_main(capsys, base)
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "clt"
        assert 0.0 <= report["results"]["ks_distance"] <= 1.0

        path = tmp_path / "clt.csv"
        rc, _, _ = run_main(capsys, base + ["--format", "csv", "--out", str(path)])
        assert rc == 0
        assert path.read_text().splitlines()[0] == "replication,n,value"
        for sidecar in ("clt_error_ecdf.csv", "clt_limit_ecdf.csv"):
            text = (tmp_path / sidecar).read_text().splitlines()
            assert text[0] == "x,F"
            assert len(text) == 1 + 8

    def test_iid_json(self, capsys):
        rc, out, err = run_main(
            capsys,
            ["iid", "--alpha", "1.5", "--n-list", "64,128,256", "--reps", "100",
             "--seed", "7"],
        )
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "iid"
        assert report["results"]["slope"] == pytest.approx(2.0 / 1.5, abs=0.3)
        assert "target=1.3333" in err


CLT_ARGS = ["clt", "--half-width", "5", "--n-terms", "400", "--n", "16", "--reps", "8",
            "--seed", "10"]
IID_ARGS = ["iid", "--alpha", "1.5", "--n-list", "64,128,256", "--reps", "100", "--seed", "7"]


def clt_samples():
    """The runner's samples for CLT_ARGS."""
    samples, _ = run_clt_experiment(ModelParams(1.2, 0.75), 5.0, 400, 16, 8, 10)
    return samples

# each sample-CSV command, its runner's samples for the same values, and its ns
SAMPLE_RUNS = [
    (LLN_ARGS,
     lambda: run_lln_experiment(ModelParams(1.2, 0.75), 5.0, 400, (8, 16, 32), 50, 9)[0],
     (8, 16, 32)),
    (IID_ARGS, lambda: iid_stable_qv_experiment(1.5, (64, 128, 256), 100, 7)[0], (64, 128, 256)),
    (CLT_ARGS, clt_samples, (16,)),
]


class TestSampleCsv:
    @pytest.mark.parametrize("argv, run, ns", SAMPLE_RUNS, ids=["lln", "iid", "clt"])
    def test_rows_are_the_report_samples_n_major(self, capsys, argv, run, ns):
        # all replications at the first n, then at the next; clt's one
        # column holds its 8 errors, then its 8 limit draws, as 0..15
        rc, out, _ = run_main(capsys, argv + ["--format", "csv"])
        assert rc == 0
        samples = run()
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["replication", "n", "value"]
        assert [(int(r), int(n)) for r, n, _ in rows[1:]] == [
            (i, n) for n in ns for i in range(samples.shape[0])
        ]
        values = np.array([float(v) for _, _, v in rows[1:]])
        np.testing.assert_array_equal(bits(values), bits(samples.T.ravel()))

    @pytest.mark.parametrize("out", ["clt.csv", "./clt", "runs.v1/clt"])
    def test_clt_sidecars_sit_beside_the_samples(self, capsys, tmp_path, monkeypatch, out):
        # the suffix goes before the file name's extension, or before .csv
        # when it has none, whatever dots the directories carry
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.v1").mkdir()
        rc, _, err = run_main(capsys, CLT_ARGS + ["--format", "csv", "--out", out])
        assert rc == 0, err
        draws = clt_samples()[:, 0]
        root = out.removesuffix(".csv")
        for suffix, sample in (("_error_ecdf", draws[:8]), ("_limit_ecdf", draws[8:])):
            rows = list(csv.reader(io.StringIO(Path(f"{root}{suffix}.csv").read_text())))
            assert rows[0] == ["x", "F"]
            x = np.array([float(r[0]) for r in rows[1:]])
            np.testing.assert_array_equal(bits(x), bits(np.sort(sample)))
            assert [float(r[1]) for r in rows[1:]] == [(i + 1) / 8 for i in range(8)]


class TestResultsBlock:
    @pytest.mark.parametrize("argv, keys", [
        (LLN_ARGS, {"per_n", "slope", "slope_stderr", "q_median_per_n", "q_slope",
                    "q_slope_stderr"}),
        (CLT_ARGS, {"ks_distance"}),
        (IID_ARGS, {"per_n", "slope", "slope_stderr"}),
    ], ids=["lln", "clt", "iid"])
    def test_json_results_hold_exactly_the_runners_keys(self, capsys, argv, keys):
        rc, out, _ = run_main(capsys, argv)
        assert rc == 0
        assert set(json.loads(out)["results"]) == keys


class TestWriteCsv:
    SIMULATE = ["simulate", "--n", "48", "--n-terms", "1000", "--half-width", "10", "--seed", "12"]

    def test_simulate_csv_reads_back_as_the_increments(self, capsys, tmp_path):
        path = tmp_path / "increments.csv"
        rc, _, _ = run_main(capsys, self.SIMULATE + ["--out", str(path)])
        assert rc == 0
        jm = build_jump_measure(1.2, 10.0, 1000, RngStream(12, 0))
        y, _ = simulate_increments(jm, 48, ModelParams(1.2, 0.75))
        np.testing.assert_array_equal(bits(read_increments(path.read_text())), bits(y))

    def test_stdout_gets_the_bytes_of_the_file(self, capsys, tmp_path):
        path = tmp_path / "increments.csv"
        run_main(capsys, self.SIMULATE + ["--out", str(path)])
        rc, out, _ = run_main(capsys, self.SIMULATE)
        assert rc == 0
        assert out.encode() == path.read_bytes()

    @settings(max_examples=60)
    @given(parts=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=40))
    def test_floats_round_trip_bit_exact(self, parts):
        rows = [[j, re, im] for j, (re, im) in enumerate(parts)]
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            cli._write_csv(None, ["j", "re", "im"], rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "increments.csv"
            cli._write_csv(path, ["j", "re", "im"], rows)
            assert path.read_bytes() == stream.getvalue().encode()
            back = read_increments(path.read_text())
        y = np.array([complex(re, im) for re, im in parts])
        np.testing.assert_array_equal(bits(back), bits(y))


class TestCheckCommands:
    def test_check_condition(self, capsys):
        rc, out, err = run_main(capsys, ["check-condition", "--lambdas", "20,40"])
        assert rc == 0
        report = json.loads(out)
        results = report["results"]
        assert results["lambdas"] == [20.0, 40.0]
        assert len(results["condition_values"]) == 2
        assert len(results["condition_growth"]) == 1
        assert results["condition_values"][1] >= results["condition_values"][0]
        assert len(results["envelope_values"]) == 2
        assert "check-condition:" in err

    def test_check_condition_needs_two_windows(self, capsys):
        rc, _, err = run_main(capsys, ["check-condition", "--lambdas", "20"])
        assert rc == 2 and "at least two" in err

    # a window that does not grow certifies nothing
    @pytest.mark.parametrize("lambdas", ["50,50", "100,50"])
    def test_check_condition_rejects_windows_that_do_not_grow(self, capsys, lambdas):
        rc, out, err = run_main(capsys, ["check-condition", "--lambdas", lambdas])
        assert rc == 2 and out == ""
        assert err.startswith("error: lambdas must be strictly increasing")

    def test_check_identities_pass(self, capsys):
        rc, out, _ = run_main(
            capsys, ["check-identities", "--trials", "5", "--n-terms", "200"]
        )
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "identities"
        assert report["results"]["max_square_decomposition_residual"] < 1e-8
        assert report["results"]["tolerance"] == 1e-8

    def test_check_identities_gate_failure_still_reports(self, capsys):
        rc, out, err = run_main(
            capsys,
            ["check-identities", "--trials", "5", "--n-terms", "200",
             "--tolerance", "1e-20"],
        )
        assert rc == 1
        assert "exceeds tolerance" in err
        assert json.loads(out)["kind"] == "identities"  # report emitted anyway

    def test_check_identities_evaluator_disagreement_exits_2(self, capsys, monkeypatch):
        double_integrate = analysis.double_integrate
        monkeypatch.setattr(analysis, "double_integrate",
                            lambda jm, f: (1.0 + 1e-6) * double_integrate(jm, f))
        rc, out, err = run_main(
            capsys, ["check-identities", "--trials", "2", "--n-terms", "200"]
        )
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "disagree" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_check_identities_nonfinite_pair_sum_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "_pair_table_sums",
                            lambda s, a, n: np.full(n, np.nan + 0j))
        rc, out, err = run_main(
            capsys, ["check-identities", "--trials", "2", "--n-terms", "200"]
        )
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "non-finite pair sum" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_kernel_limit(self, capsys):
        rc, out, _ = run_main(
            capsys,
            ["kernel-limit", "--pairs", "1,-0.5;3,1", "--n-list", "64,256,1024"],
        )
        assert rc == 0
        report = json.loads(out)
        assert report["results"]["decreasing"] is True
        assert len(report["results"]["pairs"]) == 2
        for row in report["results"]["pairs"]:
            assert len(row["deviations"]) == 3

    def test_kernel_limit_rejects_lattice_pair(self, capsys):
        rc, _, err = run_main(
            capsys,
            ["kernel-limit", "--pairs", "6.783185307179586,0.5",
             "--n-list", "64,256"],
        )
        assert rc == 2 and "lattice" in err


class TestConsoleScript:
    def test_entry_point_installed(self):
        # The `harmstable` command is the [project.scripts] target; installing
        # the package writes a wrapper that imports it and exits with its
        # return value. Check the declared target without needing that
        # wrapper, then the wrapper itself wherever one is on PATH.
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["harmstable"]
        assert pkgutil.resolve_name(target) is main

        module, attr = target.split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        env = package_env()
        commands = [[sys.executable, "-c", wrapper, "--version"]]
        installed = shutil.which("harmstable")
        if installed is not None:
            commands.append([installed, "--version"])
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"harmstable {__version__}\n"

    def test_import_loads_no_scipy(self):
        # scipy costs most of the import time; only the Monte Carlo
        # cross-checks of the series scale may load it, on first call
        probe = (
            "import sys, harmstable.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_runs_end_to_end(self, tmp_path):
        path = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "harmstable.cli", "kernel-limit",
             "--pairs", "1,-0.5", "--n-list", "64,256", "--out", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(path.read_text())["kind"] == "kernel_limit"
