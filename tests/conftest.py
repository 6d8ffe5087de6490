"""Shared test plumbing: the acceptance-criteria result banner, and the
angle rows of a scan.

Acceptance tests register one verdict each via :func:`record_criterion`;
the verdicts are printed as a summary section at the end of the pytest
run so that each criterion yields one visible pass/fail line.
"""

from __future__ import annotations

import numpy as np

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def angle_rows(report) -> np.ndarray:
    """One row of angles per cell of a scan report, in its cell order."""
    mesh = np.meshgrid(*([report.axis] * len(report.argmax_angles)), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def record_criterion(number: int, label: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS.append((number, label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {number}: {label}")
