"""Contiguous shards of one job, run in forked children: the package's one
fork path, shared by ``sampler.sample`` and the ``chsh-scan`` CSV render.

A caller splits its work into shards (``shard_count``), opens ``forked``
with one task per shard after the first, does shard 0 itself, then joins
each child in turn. A child runs its task against an anonymous memory
file (``os.memfd_create``) and leaves through ``os._exit``; its output is
used only when it exited 0, and the caller does any other shard itself.
No child outlives the ``forked`` block: one that has not been joined when
the block unwinds is killed and reaped, and every memory file is closed.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
import warnings
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

#: cgroup files that cap the process's CPU time as "quota period": v2, then v1.
_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)

#: Largest read of a child's output, so a caller never holds a whole shard.
_CHUNK_BYTES = 1 << 20


def _quota_cpus() -> float:
    """CPUs' worth of time the cgroup quota allows, rounded up; infinite
    without a quota or where none can be read."""
    for files in _QUOTA_FILES:
        try:
            quota, period = " ".join(Path(f).read_text() for f in files).split()
            return math.inf if quota in ("max", "-1") else math.ceil(int(quota) / int(period))
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return math.inf


def shard_count(units: int, min_units: int) -> int:
    """One shard per CPU the process may use, none of fewer than
    ``min_units`` units of work, and only one while other Python threads
    run: a child would inherit any lock they hold at the fork."""
    if units < 2 * min_units or threading.active_count() > 1:
        return 1
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "memfd_create"):
        return 1  # no forked shards off Linux
    cpus = min(len(os.sched_getaffinity(0)), _quota_cpus())
    return max(1, min(cpus, units // min_units))


class Child:
    """One task in a forked child, which writes to an anonymous memory file.

    ``pid`` is None once the child is reaped, or when it never started.
    """

    def __init__(self) -> None:
        self.pid: int | None = None
        self.fd = -1

    def start(self, task: Callable[[BinaryIO], object]) -> None:
        """Fork a child that runs ``task`` on the memory file; a child that
        cannot be made is left unstarted, and its join fails."""
        try:
            self.fd = os.memfd_create("eprb-lab-shard", os.MFD_CLOEXEC)
            # numpy's import leaves an OpenBLAS thread running, and Python
            # 3.12+ warns when a threaded process forks. The child is safe: it
            # runs only numpy and string work and writes, then leaves through
            # _exit.
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", message=r".*use of fork\(\) may lead to deadlocks",
                    category=DeprecationWarning,
                )
                pid = os.fork()
        except OSError:
            self.close()
            return
        if pid == 0:
            status = 1
            try:
                with open(self.fd, "wb", closefd=False) as sink:
                    task(sink)
                status = 0
            finally:
                # No stdio flush and no atexit: the parent owns both.
                os._exit(status)
        self.pid = pid

    def join(self) -> bool:
        """Wait for the child to exit: True if it exited 0, and its output
        then reads from the start. Where the caller ignores SIGCHLD the
        kernel reaps the child and its exit status is lost: False."""
        if self.pid is None:
            return False
        try:
            _, status = os.waitpid(self.pid, 0)
        except ChildProcessError:
            status = -1
        self.pid = None
        if status != 0:
            return False
        os.lseek(self.fd, 0, os.SEEK_SET)
        return True

    def chunks(self) -> Iterator[bytes]:
        """A joined child's output, in reads of at most ``_CHUNK_BYTES``."""
        while chunk := os.read(self.fd, _CHUNK_BYTES):
            yield chunk

    def close(self) -> None:
        """Kill and reap the child if it is still there; close its memory file."""
        if self.pid is not None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


@contextlib.contextmanager
def forked(tasks: Iterable[Callable[[BinaryIO], object]]) -> Iterator[list[Child]]:
    """One child per task, all started before the block runs and all
    closed when it ends, however it ends."""
    children: list[Child] = []
    try:
        for task in tasks:
            children.append(Child())
            children[-1].start(task)
        yield children
    finally:
        for child in children:
            child.close()
