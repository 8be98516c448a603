"""Shared fixtures, the Hypothesis profile of every property test, and a
replay of the acceptance-criterion verdict lines after the test run."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from gatecert.network import DI, reference_realization
from gatecert.primitives import gate
from gatecert.tensor import Operator

_CRITERION_LINES = []

# Property tests run the same examples on every run, with no time limit per
# example and no example database; each test sets only its max_examples.
settings.register_profile("gatecert", deadline=None, derandomize=True, database=None)
settings.load_profile("gatecert")


@pytest.fixture
def zero_element_repeater():
    """di n=2 CNOT realization whose first repeater merges Bell outcomes 0
    and 1 into outcome 0, so outcome 1 has the zero element."""
    real = reference_realization(2, gate("cnot", 2), scheme=DI)
    bell = real.repeaters[0]
    dims = bell[0].dims
    merged = (
        Operator(bell[0].entries + bell[1].entries, dims),
        Operator(np.zeros((4, 4)), dims),
        bell[2],
        bell[3],
    )
    return replace(real, repeaters=(merged,) + real.repeaters[1:])


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    for line in report.capstdout.splitlines():
        if line.startswith(("PASS criterion", "FAIL criterion")):
            _CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES, key=lambda s: int(s.split(":")[0].split()[-1])):
        terminalreporter.write_line(line)
