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
    ("seq", "exact", "json"): (0, "efe65897d399f12fe795d398db91f31c6af35bccb1fabe2600ce13f114574ad2"),
    ("seq", "sample", "csv"): (0, "8a4728ffcededc8b218f6e536eac7cd423bb01cfcaf50cf02f12bfc325b2d0e0"),
    ("seq", "sample", "json"): (0, "525c92ba5d982fca3836d1356c4a7ba4d85040dda782f99a8a2a03285e56e077"),
    ("seq", "chsh-scan", "csv"): (0, "0a9ecfb5438fd63241832a7a8588e08fa2d54e90e56d9d385952ea726494a80d"),
    ("seq", "chsh-scan", "json"): (0, "272bdd9b9efc8d0659a6aa71a50f21a2953e0567bbcacab6d3d0ba7ea666450d"),
    ("seq", "chsh-max", "csv"): (0, "fb5fb487839e9c57d6c609c36f79b357845b3e2c71d76f8b9c2b528058463925"),
    ("seq", "chsh-max", "json"): (0, "08dece39256a33091901a216abf8bc9daf3bb0246daded1bfde52b800e2a5a5d"),
    ("seq", "hvm-check", "csv"): (0, "f2a869132fdeab20bb7eecbe96631e50964ebba808858811f9ca612b9a46e75c"),
    ("seq", "hvm-check", "json"): (0, "0b811443c1f694c5ff3c7ff7f43118df163bc2628cec98e3b79e778bb2280bb7"),
    ("seq", "joint-feasibility", "csv"): (0, "9b7646c97f789bbe80419d26e029de5b41e910ab5305dc66d6fd1e9d8ce1fb66"),
    ("seq", "joint-feasibility", "json"): (0, "95c4d5cc92a5c2c3618576ccae0b06738cf6cc2c742dee8061a1ff5266d7bb0b"),
    ("seq-aligned", "exact", "csv"): (0, "998ec9aa06235034e0fc0d1ee16291a0c69f197169e9318cffa1f77f2b0c6b86"),
    ("seq-aligned", "exact", "json"): (0, "b1bf9f2faf62a20621038382ed0cfc999a7d2c5915837c7a12b3fbdf5df4df05"),
    ("seq-aligned", "sample", "csv"): (0, "3b898879532ff6b1c8393b0f23f111ec372e12dd6d7b90745a81d7a9d8373d40"),
    ("seq-aligned", "sample", "json"): (0, "7cc0fc658b7ee653312089c4bd8e2331aa896a114f87671b887e48ad23dc413e"),
    ("seq-aligned", "chsh-scan", "csv"): (0, "c42b6245dbd65ce598e6a889ecd8a5e92d5470bb3670e4b4902a3f44abeeec39"),
    ("seq-aligned", "chsh-scan", "json"): (0, "01341986d3351076faccd7105114945eac65abbc4d8869f78a0a10c0db16b2d1"),
    ("seq-aligned", "chsh-max", "csv"): (0, "fb5fb487839e9c57d6c609c36f79b357845b3e2c71d76f8b9c2b528058463925"),
    ("seq-aligned", "chsh-max", "json"): (0, "0baacac8f03c289f0825b5f7b66925faeb45553909c2c377d07f88dbce503021"),
    ("seq-aligned", "hvm-check", "csv"): (0, "23ac43b33bdc10a61f20f57cfa5f94f2fe74363443329da33986a95a67901cfc"),
    ("seq-aligned", "hvm-check", "json"): (0, "47ca4a3b4734d038c5935ac4f06378d3f4349f2aa60e5d408348ee3e0d8cbb53"),
    ("seq-aligned", "joint-feasibility", "csv"): (0, "9b7646c97f789bbe80419d26e029de5b41e910ab5305dc66d6fd1e9d8ce1fb66"),
    ("seq-aligned", "joint-feasibility", "json"): (0, "b348b8bd8eecbd86b31a88a640b3d65ae8cd7a1ef1bc41a6aa68e73351ff9ea9"),
    ("eprb", "exact", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "exact", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "sample", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "sample", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "chsh-scan", "csv"): (0, "0bd6c2536524c5f1787484c9ebb5ed1a189e5924b752fcb245a6fab489f937e4"),
    ("eprb", "chsh-scan", "json"): (0, "ff2b8a4038859c0b195e9ac84c52a0adedebaad0bd55f746552abdd6044cb59e"),
    ("eprb", "chsh-max", "csv"): (0, "be29ab959733eddb35efd1d0b958438c3d1d3a409830e4325f2033d59d05ece1"),
    ("eprb", "chsh-max", "json"): (0, "02d94b1adc52d9046f9aad8a31b62f716e8c6d1dfb5085903a81969c84423e38"),
    ("eprb", "hvm-check", "csv"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "hvm-check", "json"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eprb", "joint-feasibility", "csv"): (0, "4329313a2f061280e35c7b39fb0ea9a96d8e76b2b47316d2f4d0c10dbb480933"),
    ("eprb", "joint-feasibility", "json"): (0, "2599e71109aa232d196e9b974755f3adb462ae13520bf92256a8b0e0b227cf30"),
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
#: CSV spans many rendering blocks; 7 degrees does not divide 360, and the
#: 100-degree grid fits in one partial block.
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
    code = main(["chsh-scan", "--config", str(config), "--step", str(step), "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_SCAN_GOLDEN[key]
