"""Workload inputs, generated from the workload seed.

Each workload is a list of operations. One operation is one report: a
subcommand and a config file that names the format and the output path.
A round runs every operation once, in the listed order, and every round of
a run repeats the same operations, so each round does the same work.

This module imports only the standard library: it runs inside the timed
set-up, and importing numpy here would hide numpy's import cost from the
``import eprb_lab`` that set-up measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("scan-csv", "scan-json", "session")

#: Scan grids, in degrees: 30**4 = 810,000 EPRB cells and 100**3 =
#: 1,000,000 sequential cells. The EPRB S depends only on angle
#: differences, so its values repeat far more often than the sequential
#: ones; a rendering trick that relies on repeated values shows its cost on
#: the sequential grid.
SCAN_GRIDS = (("eprb", 12.0), ("sequential", 3.6))

#: Sequential scenarios per session round; every fourth has a = b, which
#: gives the cells with A1 = B1 probability zero.
N_SEQUENTIAL = 12
#: EPRB scenarios per session round; the even ones sit near the
#: Tsirelson angles, so their joint-feasibility verdict is "infeasible".
N_EPRB = 6
#: Draws of the heavy sample reports.
HEAVY_N = 10_000_000
#: Draws of the sample report that the pure-Python generator replays.
REPLAY_N = 2048

_SMALL = ("exact", "hvm-check", "joint-feasibility")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Op:
    """One report: ``eprb-lab <subcommand> --config <path>``.

    ``ref`` names another operation's output that a check needs: the
    replayed sample reads the distribution from the exact JSON report of
    the same scenario.
    """

    name: str
    subcommand: str
    config: dict
    path: Path
    ref: Path | None = None

    @property
    def argv(self) -> list[str]:
        return [self.subcommand, "--config", str(self.path)]

    @property
    def out(self) -> Path:
        return Path(self.config["out"])

    @property
    def format(self) -> str:
        return self.config["format"]


def _angles(rng: random.Random) -> dict[str, float]:
    return {key: round(rng.uniform(0.0, 360.0), 6) for key in ("a", "a_prime", "b", "b_prime")}


def _near_tsirelson(rng: random.Random) -> dict[str, float]:
    r = rng.uniform(0.0, 360.0)
    base = {"a": r, "a_prime": r + 90.0, "b": r - 45.0, "b_prime": r + 45.0}
    return {k: round((v + rng.uniform(-5.0, 5.0)) % 360.0, 6) for k, v in base.items()}


def _scan_specs(fmt: str, rng: random.Random) -> list[tuple]:
    # chsh-scan reads only the mode and the step; the angles are echoed.
    return [
        (f"scan-{mode}", "chsh-scan", {"mode": mode, **_angles(rng), "step": step, "format": fmt}, None)
        for mode, step in SCAN_GRIDS
    ]


def _session_specs(rng: random.Random) -> list[tuple]:
    seq = [{"mode": "sequential", **_angles(rng)} for _ in range(N_SEQUENTIAL)]
    for sc in seq[::4]:
        sc["b"] = sc["a"]
    eprb = [
        {"mode": "eprb", **(_near_tsirelson(rng) if i % 2 == 0 else _angles(rng))}
        for i in range(N_EPRB)
    ]
    specs = []
    for i, sc in enumerate(seq):
        for sub in _SMALL:
            for fmt in _FORMATS:
                specs.append((f"seq{i}-{sub}-{fmt}", sub, {**sc, "format": fmt}, None))
    for i, sc in enumerate(eprb):
        for fmt in _FORMATS:
            specs.append((f"eprb{i}-joint-feasibility-{fmt}", "joint-feasibility", {**sc, "format": fmt}, None))
    specs += [
        ("eprb1-chsh-max-json", "chsh-max", {**eprb[1], "format": "json"}, None),
        ("seq1-chsh-max-csv", "chsh-max", {**seq[1], "format": "csv"}, None),
        ("seq0-sample-csv", "sample", {**seq[0], "n": HEAVY_N, "seed": rng.getrandbits(64), "format": "csv"}, None),
        ("seq1-sample-json", "sample", {**seq[1], "n": HEAVY_N, "seed": rng.getrandbits(64), "format": "json"}, None),
        ("seq2-replay-json", "sample", {**seq[2], "n": REPLAY_N, "seed": rng.getrandbits(64), "format": "json"},
         "seq2-exact-json"),
    ]
    rng.shuffle(specs)
    return specs


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's config files under ``work``; return its round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "session":
        specs = _session_specs(rng)
    else:
        specs = _scan_specs(workload.split("-")[1], rng)
    return [write_op(work, *spec) for spec in specs]


def write_op(work: Path, name: str, subcommand: str, config: dict, ref: str | None = None) -> Op:
    """Write one config file, with its output under ``work/out``."""
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    config = {**config, "out": str(out / f"{name}.{config['format']}")}
    path = work / f"{name}.config.json"
    path.write_text(json.dumps(config) + "\n", encoding="utf-8")
    return Op(name, subcommand, config, path, None if ref is None else out / f"{ref}.json")
