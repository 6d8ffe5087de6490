"""The shard protocol, ``eprb_lab._shards.split``: contiguous shards in
ascending order, a failed child's shard handed back to the caller, and no
child or memory file left once the generator is closed."""

from __future__ import annotations

import os
import time

import pytest

from conftest import counted_forks, force_cpus, open_fds
from eprb_lab._shards import split

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")


def write_range(lo, hi, sink):
    sink.write(f"{lo}:{hi}".encode("ascii"))


def read(output):
    return None if output is None else b"".join(output).decode("ascii")


@pytest.mark.parametrize("units", [1, 7, 12, 1001])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_shards_tile_the_units_in_ascending_order(monkeypatch, cpus, units):
    force_cpus(monkeypatch, cpus)
    fds = open_fds()
    with counted_forks(monkeypatch) as forks:
        shards = [(lo, hi, read(output)) for lo, hi, output in split(units, 2, write_range)]
    count = max(1, min(cpus, units // 2))
    assert len(shards) == count
    assert len(forks) == count - 1
    edges = [lo for lo, _, _ in shards] + [units]
    assert [(lo, hi) for lo, hi, _ in shards] == list(zip(edges, edges[1:]))
    assert all(lo < hi for lo, hi, _ in shards)
    assert [text for _, _, text in shards] == [None] + [f"{lo}:{hi}" for lo, hi, _ in shards[1:]]
    assert open_fds() == fds


def exit_three(lo, hi, sink):
    os._exit(3)


def raise_error(lo, hi, sink):
    raise RuntimeError("the task failed in the child")


@pytest.mark.parametrize("fail", [exit_three, raise_error])
def test_a_failed_child_yields_none_for_its_shard(monkeypatch, fail):
    force_cpus(monkeypatch, 3)

    def task(lo, hi, sink):
        (fail if lo == 4 else write_range)(lo, hi, sink)

    fds = open_fds()
    shards = [(lo, hi, read(output)) for lo, hi, output in split(12, 2, task)]
    assert shards == [(0, 4, None), (4, 8, None), (8, 12, "8:12")]
    assert open_fds() == fds


def test_closing_after_shard_zero_leaves_no_child_and_no_fd(monkeypatch):
    force_cpus(monkeypatch, 3)
    fds = open_fds()
    shards = split(12, 2, lambda lo, hi, sink: time.sleep(60))
    with counted_forks(monkeypatch) as forks:
        assert next(shards) == (0, 4, None)
    assert len(forks) == 2
    assert open_fds() == fds + 2  # one memory file per child
    begun = time.monotonic()
    shards.close()
    assert time.monotonic() - begun < 30
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds
