"""Shared test plumbing: the acceptance-criteria result banner, the angle
rows of a scan, a guard against child processes left behind, and the
means to force and count forked shards.

Acceptance tests register one verdict each via :func:`record_criterion`;
the verdicts are printed as a summary section at the end of the pytest
run so that each criterion yields one visible pass/fail line.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from eprb_lab import _shards

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def angle_rows(report) -> np.ndarray:
    """One row of angles per cell of a scan report, in its cell order."""
    mesh = np.meshgrid(*([report.axis] * len(report.argmax_angles)), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@contextlib.contextmanager
def counted_forks(monkeypatch):
    """Count the ``os.fork`` calls made while the context is open."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    yield calls


def force_cpus(monkeypatch, cpus: int) -> None:
    """Let the process use ``cpus`` CPUs with no cgroup quota, so forked
    shards run as if on a machine of that many CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(_shards, "_QUOTA_FILES", ())


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid} exited with status {status}"
    pytest.fail(f"the test left a child process behind ({state})")


def record_criterion(number: int, label: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS.append((number, label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {number}: {label}")
