"""Shared fixtures and the acceptance-criteria summary hook."""

import numpy as np
import pytest
from hypothesis import settings

# one profile for every property test: the same examples on every run and
# no per-example deadline; each test sets only its max_examples
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_CRITERIA: list[tuple[str, bool, str]] = []


@pytest.fixture
def criterion_recorder():
    """Records one (name, passed, detail) verdict per acceptance criterion;
    the terminal summary prints them as single pass/fail lines."""

    def record(name: str, passed: bool, detail: str) -> None:
        _CRITERIA.append((name, bool(passed), detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, passed, detail in _CRITERIA:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
