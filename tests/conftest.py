"""Shared fixtures and the acceptance-line reporter.

Acceptance tests register a one-line PASS/FAIL verdict through
``record_criterion``; the lines are echoed in the terminal summary so that
each criterion is visible even under output capture.
"""

import signal

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


def record_criterion(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES.append(f"{name}: {status}" + (f" ({detail})" if detail else ""))


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def time_limit():
    """``time_limit(seconds)`` arms SIGALRM: a test still running after
    ``seconds`` fails with TimeoutError instead of hanging the suite."""
    def on_alarm(signum, frame):
        raise TimeoutError("time limit exceeded")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
