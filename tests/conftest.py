from __future__ import annotations

import gc

import pytest

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_log():
    """Record one acceptance verdict line and echo it to stdout."""
    def log(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)
        print(line)
    return log


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Repeat the collected verdict lines where they survive output capture.
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
