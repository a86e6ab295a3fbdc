"""Shared pytest hooks.

The acceptance module doubles as a scorecard. After a run that included
it, the terminal summary prints one pass/fail line per criterion so the
whole contract can be audited at a glance.

Hypothesis imports its explicit-example patcher (hypothesis.extra._patching,
through libcst) only once a test fails, and that import warns with a
DeprecationWarning, which the suite's filter turns into an error, so that
a failing @given test ends in INTERNALERROR without its falsifying example.
The patcher is imported here once, with that warning ignored.
"""

import importlib
import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:      # without libcst the patcher is never imported
        pass

_acceptance_outcomes = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if item.fspath.basename == "test_acceptance.py":
        _acceptance_outcomes[item.name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        status = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line("{:<4} {}".format(status, name))
