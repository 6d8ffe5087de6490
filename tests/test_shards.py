"""The shard protocol, ``eprb_lab._shards.split``: contiguous shards in
ascending order, each shard's bytes from a child or, for shard 0 and a
failed child's shard, from the parent, and no child or memory file left
once the generator is closed."""

from __future__ import annotations

import os
import time

import pytest

from conftest import counted_forks, force_cpus, open_fds
from eprb_lab._shards import split

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")


def name_range(lo, hi):
    """The shard's range and the pid of the process that made its bytes."""
    return [f"{lo}:{hi}:{os.getpid()}".encode("ascii")]


def read(output):
    return b"".join(output).decode("ascii")


@pytest.mark.parametrize("units", [1, 7, 12, 1001])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_shards_tile_the_units_in_ascending_order(monkeypatch, cpus, units):
    force_cpus(monkeypatch, cpus)
    fds = open_fds()
    with counted_forks(monkeypatch) as forks:
        shards = [(lo, hi, read(output)) for lo, hi, output in split(units, 2, name_range)]
    count = max(1, min(cpus, units // 2))
    assert len(shards) == count
    assert len(forks) == count - 1
    edges = [lo for lo, _, _ in shards] + [units]
    assert [(lo, hi) for lo, hi, _ in shards] == list(zip(edges, edges[1:]))
    assert all(lo < hi for lo, hi, _ in shards)
    texts = [text.split(":") for _, _, text in shards]
    assert [(int(lo), int(hi)) for lo, hi, _ in texts] == [(lo, hi) for lo, hi, _ in shards]
    pids = [int(pid) for _, _, pid in texts]
    assert pids[0] == os.getpid()
    assert os.getpid() not in pids[1:]
    assert len(set(pids[1:])) == count - 1  # one child per shard after the first
    assert open_fds() == fds


def exit_three(lo, hi):
    os._exit(3)


def raise_error(lo, hi):
    raise RuntimeError("the work failed in the child")


@pytest.mark.parametrize("fail", [exit_three, raise_error])
def test_a_failed_child_shard_is_done_in_the_parent(monkeypatch, fail):
    force_cpus(monkeypatch, 3)
    parent = os.getpid()

    def work(lo, hi):
        return (fail if lo == 4 and os.getpid() != parent else name_range)(lo, hi)

    fds = open_fds()
    with counted_forks(monkeypatch) as forks:
        shards = [(lo, hi, read(output)) for lo, hi, output in split(12, 2, work)]
    assert len(forks) == 2
    assert shards[:2] == [(0, 4, f"0:4:{parent}"), (4, 8, f"4:8:{parent}")]
    lo, hi, pid = shards[2][2].split(":")
    assert shards[2][:2] == (8, 12) and (lo, hi) == ("8", "12") and int(pid) != parent
    assert open_fds() == fds


def test_closing_after_shard_zero_leaves_no_child_and_no_fd(monkeypatch):
    force_cpus(monkeypatch, 3)
    parent = os.getpid()

    def work(lo, hi):
        if os.getpid() != parent:
            time.sleep(60)
        return name_range(lo, hi)

    fds = open_fds()
    shards = split(12, 2, work)
    with counted_forks(monkeypatch) as forks:
        lo, hi, output = next(shards)
        assert (lo, hi, read(output)) == (0, 4, f"0:4:{parent}")
    assert len(forks) == 2
    assert open_fds() == fds + 2  # one memory file per child
    begun = time.monotonic()
    shards.close()
    assert time.monotonic() - begun < 30
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds
