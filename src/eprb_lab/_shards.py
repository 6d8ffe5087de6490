"""Contiguous shards of one job, run in forked children: the package's one
fork path, shared by ``sampler.sample`` and the ``chsh-scan`` CSV render.

``split`` is the whole protocol. A caller gives one function that returns
a shard's bytes, and ``split`` hands back bytes for every shard. Each child
writes its shard's bytes to an anonymous memory file (``os.memfd_create``)
and leaves through ``os._exit``; shard 0, and any shard whose fork or child
fails, is done by the same function in this process. No child outlives the
generator.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import signal
import threading
import warnings
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator

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
    """One shard's work in a forked child, which writes to a memory file.

    ``pid`` is None once the child is reaped, or when it never started.
    """

    def __init__(self) -> None:
        self.pid: int | None = None
        self.fd = -1

    def start(self, work: Callable[[int, int], Iterable[bytes]], lo: int, hi: int) -> None:
        """Fork a child that writes ``work(lo, hi)`` to the memory file; a
        child that cannot be made is left unstarted, and joins as None."""
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
                    sink.writelines(work(lo, hi))
                status = 0
            finally:
                # No stdio flush and no atexit: the parent owns both.
                os._exit(status)
        self.pid = pid

    def join(self) -> Iterator[bytes] | None:
        """Wait for the child to exit. If it exited 0, its output from the
        start, in reads of at most ``_CHUNK_BYTES``; otherwise None. Where
        the caller ignores SIGCHLD the kernel reaps the child and its exit
        status is lost: None."""
        if self.pid is None:
            return None
        try:
            _, status = os.waitpid(self.pid, 0)
        except ChildProcessError:
            status = -1
        self.pid = None
        if status != 0:
            return None
        os.lseek(self.fd, 0, os.SEEK_SET)
        return iter(functools.partial(os.read, self.fd, _CHUNK_BYTES), b"")

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


def split(
    units: int, min_units: int, work: Callable[[int, int], Iterable[bytes]]
) -> Generator[tuple[int, int, Iterable[bytes]], None, None]:
    """Each contiguous shard of ``range(units)`` as ``(lo, hi, output)``,
    in ascending order, where ``output`` is the bytes ``work(lo, hi)``
    returns for units lo..hi-1.

    Every shard after the first runs ``work`` in a forked child, and all
    children start before shard 0 is yielded. A child that exited 0 gives
    its bytes in chunks of at most ``_CHUNK_BYTES``, readable until the
    next shard is asked for. Shard 0, and any shard whose fork or child
    failed, gives ``work(lo, hi)`` called here. Ending or closing the
    generator kills and reaps every child; a caller holds it in
    ``contextlib.closing``, so that happens however its loop ends.
    """
    shards = shard_count(units, min_units)
    edges = [w * units // shards for w in range(shards + 1)]
    children = [Child() for _ in range(shards - 1)]
    try:
        for w, child in enumerate(children, 1):
            child.start(work, edges[w], edges[w + 1])
        yield edges[0], edges[1], work(edges[0], edges[1])
        for w, child in enumerate(children, 1):
            lo, hi = edges[w], edges[w + 1]
            yield lo, hi, child.join() or work(lo, hi)
            child.close()  # frees the shard's memory file
    finally:
        for child in children:
            child.close()
