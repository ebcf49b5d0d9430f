"""The three workloads: their parameters, the CLI commands of one round, the
minimal set-up commands and the per-round seeds.

Standard library only. The workload process imports this module before it
starts the set-up clock, so importing numpy here would hide part of the
import cost from setup_s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# worker threads for every command; the reference machine has two cores
THREADS = 2

# a round's CLI seed is seed * ROUND_STRIDE + round index, so rounds of one
# run use distinct inputs and runs with distinct seeds never share a round
ROUND_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: tuple[tuple[str, ...], ...]
    round_template: tuple[tuple[str, ...], ...]
    # how many replications (or draws) the checks recompute in the first
    # round of a run and in every later round
    checked_first: int = 0
    checked_later: int = 0

    def cli_seed(self, seed: int, round_index: int) -> int:
        return seed * ROUND_STRIDE + round_index

    def round_commands(self, cli_seed: int) -> list[list[str]]:
        return [[tok.replace("{seed}", str(cli_seed)) for tok in cmd] for cmd in self.round_template]

    def checked_indices(self, cli_seed: int, round_index: int, population: int) -> list[int]:
        """Replications whose values a round's checks recompute, drawn from the
        round's seed so that every replication can be picked."""
        count = self.checked_first if round_index == 0 else self.checked_later
        return sorted(random.Random(cli_seed).sample(range(population), count))


def _model_flags(p: dict) -> list[str]:
    return [
        "--alpha", repr(p["alpha"]),
        "--hurst", repr(p["hurst"]),
        "--half-width", repr(p["half_width"]),
        "--threads", str(THREADS),
        "--format", "csv",
    ]


LLN = {
    "alpha": 1.25,
    "hurst": 0.75,
    "half_width": 50.0,
    "n_terms": 100_000,
    "n_list": (64, 128, 256, 512),
    "replications": 50,
    # the log-log slope of the median errors must lie in this band around
    # 2H - 2 = -0.5; README.md gives the spread across seeds that sets it
    "slope_band": (-1.25, 0.0),
}

CLT = {
    "alpha": 1.2,
    "hurst": 0.75,
    "half_width": 20.0,
    "n_terms": 100_000,
    "n": 256,
    "replications": 6,
    # Gauss-Legendre nodes of the benchmark's own rule for the limit draws,
    # ten times the bandwidth 2M of |A(t)|^2
    "gl_nodes": 400,
}

VERIFY = {
    "trials": 30,
    "half_width": 10.0,
    "n_terms": 1000,
    "tolerance": 1e-8,
    "lambdas": (50.0, 100.0),
}

_CONDITION = (
    ("check-condition", "--alpha", "1.2", "--hurst", "0.75", "--lambdas", "50,100"),
    ("check-condition", "--alpha", "1.2", "--hurst", "0.75", "--lambdas", "50,100", "--r1", "0.4"),
)

WORKLOADS = {
    "lln": Workload(
        name="lln",
        params=LLN,
        setup=(
            tuple(["lln", *_model_flags(LLN), "--n-terms", "1000", "--n-list", "2,4,8",
                   "--reps", str(LLN["replications"]), "--seed", "0"]),
        ),
        round_template=(
            tuple(["lln", *_model_flags(LLN), "--n-terms", str(LLN["n_terms"]),
                   "--n-list", ",".join(map(str, LLN["n_list"])),
                   "--reps", str(LLN["replications"]), "--seed", "{seed}"]),
        ),
        checked_first=2,
        checked_later=1,
    ),
    "clt": Workload(
        name="clt",
        params=CLT,
        setup=(
            tuple(["clt", *_model_flags(CLT), "--n-terms", "100", "--n", "2",
                   "--reps", "1", "--seed", "0"]),
        ),
        round_template=(
            tuple(["clt", *_model_flags(CLT), "--n-terms", str(CLT["n_terms"]),
                   "--n", str(CLT["n"]), "--reps", str(CLT["replications"]),
                   "--seed", "{seed}"]),
        ),
        checked_first=2,
        checked_later=1,
    ),
    "verify": Workload(
        name="verify",
        params=VERIFY,
        setup=(
            ("check-identities", "--trials", "1", "--threads", str(THREADS)),
            *_CONDITION,
        ),
        # check-identities runs at its default seed 0: on seed-derived inputs
        # about one command in 130 exits 1, because the program scales the
        # error-representation residual by the size of a difference that one
        # heavy atom can make cancel (README.md, Seeds), which would make the
        # failed share differ between runs
        round_template=(
            ("check-identities", "--trials", str(VERIFY["trials"]),
             "--half-width", repr(VERIFY["half_width"]), "--n-terms", str(VERIFY["n_terms"]),
             "--tolerance", repr(VERIFY["tolerance"]), "--threads", str(THREADS)),
            *_CONDITION,
        ),
    ),
}
