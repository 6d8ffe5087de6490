"""Golden outputs: the exit code and SHA-256 of stdout for every subcommand.

Each case runs ``main`` on one of three configs (sequential with a != b,
sequential with a = b, EPRB) in CSV and in JSON. The hashes pin every
report byte, so a refactor of the command line or the library that
changes any output, even a trailing digit, fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import counted_forks, force_cpus
from eprb_lab import cli
from eprb_lab.cli import SUBCOMMANDS, main

CONFIGS = {
    "seq": {"mode": "sequential", "a": 0.0, "a_prime": 36.0, "b": 60.0, "b_prime": 102.0,
            "step": 30.0, "n": 5000, "seed": 7},
    "seq-aligned": {"mode": "sequential", "a": 20.0, "a_prime": 70.0, "b": 20.0,
                    "b_prime": 110.0, "step": 45.0, "n": 5000, "seed": 3},
    "eprb": {"mode": "eprb", "a": 0.0, "a_prime": 90.0, "b": 45.0, "b_prime": 135.0,
             "step": 30.0, "n": 5000, "seed": 0},
}

#: (config, subcommand, format) -> (exit code, SHA-256 of stdout).
GOLDEN = {
    ("seq", "exact", "csv"): (0, "51b83c123d5d3893abc09d9eb1a44903bf2f7862245479b069efc1c8672797f4"),
    ("seq", "exact", "json"): (0, "435f3315c38e31fd94d81797e6c2368e7443544292a634c8c4b105a58d0888eb"),
    ("seq", "sample", "csv"): (0, "8a4728ffcededc8b218f6e536eac7cd423bb01cfcaf50cf02f12bfc325b2d0e0"),
    ("seq", "sample", "json"): (0, "101ec3861b16371bd6fedf0daafa83e1b2edeba455a4a567b4b3f087c84234b2"),
    ("seq", "chsh-scan", "csv"): (0, "0a9ecfb5438fd63241832a7a8588e08fa2d54e90e56d9d385952ea726494a80d"),
    ("seq", "chsh-scan", "json"): (0, "aaf46862fcbc99a7fc5d62fe352c214a34fc6bf66e51e1942206f8576e7c8a8a"),
    ("seq", "chsh-max", "csv"): (0, "ee7a62b72195dfdac51f9122c891bd3e6db0ecc138fea0729376e020c104b18a"),
    ("seq", "chsh-max", "json"): (0, "6e4e86b5af0e2205e6a272e900e441c7672d54b08d696755fddd4cd16e8c0a7e"),
    ("seq", "hvm-check", "csv"): (0, "f2a869132fdeab20bb7eecbe96631e50964ebba808858811f9ca612b9a46e75c"),
    ("seq", "hvm-check", "json"): (0, "e2d55081c728a0423d734beef4bf115bd8dcbfa9d0b4a26065944a3fcc00b1bb"),
    ("seq", "joint-feasibility", "csv"): (0, "9b7646c97f789bbe80419d26e029de5b41e910ab5305dc66d6fd1e9d8ce1fb66"),
    ("seq", "joint-feasibility", "json"): (0, "6ea0ac78b887e70a1cf7d89090f1614843c887dd95e6db09d071f7c926ead0bc"),
    ("seq-aligned", "exact", "csv"): (0, "998ec9aa06235034e0fc0d1ee16291a0c69f197169e9318cffa1f77f2b0c6b86"),
    ("seq-aligned", "exact", "json"): (0, "5de7c18a4ccbe7ca202cb41ca114c7e38143273cacde7be2f07fdd1da43f5462"),
    ("seq-aligned", "sample", "csv"): (0, "3b898879532ff6b1c8393b0f23f111ec372e12dd6d7b90745a81d7a9d8373d40"),
    ("seq-aligned", "sample", "json"): (0, "a6f59af5c6e065ccc5454dd8e6f280bbe123cb4d91e068b614fe5e70610e3186"),
    ("seq-aligned", "chsh-scan", "csv"): (0, "c42b6245dbd65ce598e6a889ecd8a5e92d5470bb3670e4b4902a3f44abeeec39"),
    ("seq-aligned", "chsh-scan", "json"): (0, "eac7cbf7b2327e6b828f1a272b65c1406718176a9d945c8de782fc7829320340"),
    ("seq-aligned", "chsh-max", "csv"): (0, "ee7a62b72195dfdac51f9122c891bd3e6db0ecc138fea0729376e020c104b18a"),
    ("seq-aligned", "chsh-max", "json"): (0, "483590f74cf4e96c52573043f7baec30b3a9b1ef774b2f645cf7b25de531871d"),
    ("seq-aligned", "hvm-check", "csv"): (0, "23ac43b33bdc10a61f20f57cfa5f94f2fe74363443329da33986a95a67901cfc"),
    ("seq-aligned", "hvm-check", "json"): (0, "f7f9964f9c63bea5b064c80a1d72f28f2b9ad6e871f003cc36ee600c3f679a07"),
    ("seq-aligned", "joint-feasibility", "csv"): (0, "9b7646c97f789bbe80419d26e029de5b41e910ab5305dc66d6fd1e9d8ce1fb66"),
    ("seq-aligned", "joint-feasibility", "json"): (0, "0673fcbe0d2f507c28ad383675cf630b9cc557be2d8108a8c28143173e48540b"),
    ("eprb", "exact", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "exact", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "sample", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "sample", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "chsh-scan", "csv"): (0, "0bd6c2536524c5f1787484c9ebb5ed1a189e5924b752fcb245a6fab489f937e4"),
    ("eprb", "chsh-scan", "json"): (0, "8c93d95aab9c013d6911405309219f9cf5bda2c4fe8f66fe2b3e60c0610e420f"),
    ("eprb", "chsh-max", "csv"): (0, "c90c72a623b10608de063fc4a95f144a095792dcdaa9c9dcfd1054627be23640"),
    ("eprb", "chsh-max", "json"): (0, "70ada31e5a278068021e5767fb451481fbc23211d51aa3732ed6623d3007d362"),
    ("eprb", "hvm-check", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "hvm-check", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "joint-feasibility", "csv"): (0, "4329313a2f061280e35c7b39fb0ea9a96d8e76b2b47316d2f4d0c10dbb480933"),
    ("eprb", "joint-feasibility", "json"): (0, "2ced8c0c31d3f253a5a6817581eb77b70e9644293f56a26e70742d2bb2a45652"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(k))
def test_golden_output(key, tmp_path, capsys):
    name, subcommand, fmt = key
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[name]))
    code = main([subcommand, "--config", str(path), "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[key]


def test_every_case_is_pinned():
    assert set(GOLDEN) == {
        (name, sub, fmt) for name in CONFIGS for sub in SUBCOMMANDS for fmt in ("csv", "json")
    }


#: (mode, step in degrees) -> SHA-256 of the ``chsh-scan`` CSV written to
#: ``--out``, all four angles 0. The grids run to a million rows, so the
#: CSV spans many rendering slabs; 7 degrees does not divide 360, and the
#: 100-degree grid has only four slabs. Each grid is rendered in 1, 2 and
#: 3 forced shards; the 7- and 13-degree grids' 52 and 28 slabs do not
#: split evenly in 3.
LARGE_SCAN_GOLDEN = {
    ("eprb", 12.0): "a94c028548c34a17aa488675581770f3365f814b871a3a867e1c5a9a1b01aba2",
    ("sequential", 3.6): "585a4948c853a1c9d8149cfdcae32f231fd10998c810acc7de217bc308dc6590",
    ("sequential", 7.0): "112b46f283661ac1d84c89b05dfa135a41a1a3eda93124617d4139f83c026ead",
    ("eprb", 13.0): "7378e1cbe5e7a0d4049e41301fc62f6fa81aa6faa2a3b3ffcb27dc0ee9951d7b",
    ("eprb", 100.0): "3a44cd79fec3b3f2e11627ea1ed2fe897666f2b7d63d0b4e774d00490cbe8c8c",
}


@pytest.mark.parametrize("key", list(LARGE_SCAN_GOLDEN), ids=lambda k: f"{k[0]}-{k[1]:g}")
def test_large_scan_csv(key, tmp_path):
    mode, step = key
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": mode, "a": 0, "a_prime": 0, "b": 0, "b_prime": 0}))
    out = tmp_path / "scan.csv"
    for shards in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp, counted_forks(mp) as forks:
            force_cpus(mp, shards)
            mp.setattr(cli, "_MIN_SHARD_CELLS", 1)
            code = main(["chsh-scan", "--config", str(config), "--step", str(step), "--out", str(out)])
        assert (code, len(forks)) == (0, shards - 1)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == LARGE_SCAN_GOLDEN[key], f"{shards} shards"
