"""Unit tests for the command-line interface."""

from __future__ import annotations

import collections
import contextlib
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eprb_lab
from conftest import angle_rows, counted_forks, force_cpus, open_fds
from eprb_lab import __version__, _shards, cli
from eprb_lab.cli import (
    EXIT_INPUT,
    EXIT_OK,
    Report,
    RunConfig,
    SUBCOMMANDS,
    _fmt,
    _scan_csv_lines,
    main,
    parse_config,
    run,
)
from eprb_lab.errors import ConfigError
from eprb_lab.inequality import ScanReport, chsh_value, scan_grid
from eprb_lab.quantum import (
    Mode,
    Scenario,
    closed_form_correlators,
    grand_joint_quantum,
)
from eprb_lab.sampler import COUNTS_CSV_HEADER, sample

TSIRELSON = 2.0 * math.sqrt(2.0)

BASE_CONFIG = {
    "mode": "sequential",
    "a": 0.0,
    "a_prime": 36.0,
    "b": 60.0,
    "b_prime": 102.0,
}
MAGIC_CONFIG = {
    "mode": "eprb",
    "a": 0.0,
    "a_prime": 90.0,
    "b": 135.0,
    "b_prime": 225.0,
}


def config_text(**overrides) -> str:
    doc = {**BASE_CONFIG, **overrides}
    return json.dumps(doc)


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(config_text(**overrides))
    return str(path)


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(config_text())
        assert config.mode is Mode.SEQUENTIAL
        assert config.a == 0.0
        assert config.a_prime == 36.0
        assert config.b == 60.0
        assert config.b_prime == 102.0
        assert config.step == 10.0
        assert config.n == 1_000_000
        assert config.seed == 0
        assert config.format == "csv"
        assert config.out is None

    def test_scenario_converts_degrees_to_radians(self):
        config = parse_config(config_text())
        sc = config.scenario()
        assert sc.a_prime == pytest.approx(math.radians(36.0), abs=1e-15)
        assert sc.b == pytest.approx(math.radians(60.0), abs=1e-15)

    def test_angle_must_be_number(self):
        with pytest.raises(ConfigError, match="'a'"):
            parse_config(config_text(a="abc"))

    def test_bool_angle_rejected(self):
        with pytest.raises(ConfigError, match="'b'"):
            parse_config(config_text(b=True))

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ConfigError, match="'a_prime'"):
            parse_config(config_text(a_prime=float("nan")))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(config_text(extra=1))

    def test_missing_field_rejected(self):
        doc = dict(BASE_CONFIG)
        del doc["b_prime"]
        with pytest.raises(ConfigError, match="b_prime"):
            parse_config(json.dumps(doc))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(config_text(mode="quantum"))

    @pytest.mark.parametrize("key, sign", [("a", 1), ("n", -1), ("seed", 1)])
    def test_override_past_the_int_text_limit_is_quoted_in_one_line(self, key, sign):
        # Flags and JSON refuse such ints; a library caller's override does not.
        with pytest.raises(ConfigError, match=r"^field '\w+' .* -?1\.00e\+5000$"):
            parse_config(config_text(), {key: sign * 10**5000})

    @pytest.mark.parametrize("step", [0.0, -1.0, 361.0])
    def test_step_range_enforced(self, step):
        with pytest.raises(ConfigError, match="step"):
            parse_config(config_text(step=step))

    def test_full_circle_step_allowed(self):
        assert parse_config(config_text(step=360.0)).step == 360.0

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(config_text(format="yaml"))

    def test_bool_n_rejected(self):
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(config_text(n=True))

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(config_text(n=-5))

    def test_seed_range_enforced(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(config_text(seed=-1))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(config_text(seed=2**64))

    def test_out_must_be_string_or_null(self):
        with pytest.raises(ConfigError, match="out"):
            parse_config(config_text(out=7))
        assert parse_config(config_text(out=None)).out is None

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config("[1, 2, 3]")


class TestNumberFormatting:
    def test_negative_zero_normalized(self):
        assert _fmt(-0.0) == "0"

    @pytest.mark.parametrize("x", [math.pi, 1.0 / 3.0, -2.5e-13, 0.1, 123456.789])
    def test_seventeen_digit_round_trip(self, x):
        assert float(_fmt(x)) == x

    @given(x=st.floats())
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-1.7976931348623157e308)
    def test_format_is_seventeen_significant_digits(self, x):
        assert _fmt(x) == ("0" if x == 0.0 else f"{x:.17g}")


def _distinct_values(n: int) -> list[float]:
    """``n`` distinct floats of full precision, spread over the range of S."""
    return np.linspace(-TSIRELSON, TSIRELSON, n).tolist()


def _ulp_neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _report_of(mode: Mode, values: list[float]) -> ScanReport:
    """A hand-built scan report whose cells cycle through ``values``."""
    k = len(cli._SCAN_COLUMNS[mode])
    size = 1
    while size**k < len(values):
        size += 1
    axis = np.arange(size) * (2.0 * math.pi / size)
    s_values = np.resize(np.array(values, dtype=float), size**k)
    return ScanReport(mode, 2.0 * math.pi / size, axis, s_values, 0.0, (0.0,) * k)


def _number_lines_of(values) -> list[str]:
    """The reference for ``cli._number_lines``: one ``%`` per value."""
    return ["%.17g\n" % (v + 0.0) for v in np.asarray(values, dtype=float).tolist()]


#: Values at the edges of the numpy formatter's fixed-notation range and
#: its exact rounding. The literal 9.99999999999999999e-5 reads as the
#: double nearest 1e-4, written 0.0001, and each of 1 + 2**-17,
#: 1 + 3 * 2**-17, 0.5 + 2**-18 and 0.5 + 3 * 2**-18 lies exactly halfway
#: between two 17-digit decimals.
_NUMBER_EDGES = [
    0.0,
    -0.0,
    5e-324,
    9.99999999999999999e-5,
    *[y for k in range(5) for y in _ulp_neighbours(10.0**-k)],
    *_ulp_neighbours(2.0),
    *_ulp_neighbours(10.0),
    *[s * t for s in (1, -1) for t in (1 + 2**-17, 1 + 3 * 2**-17, 0.5 + 2**-18, 0.5 + 3 * 2**-18)],
]


class TestNumberLines:
    """``_number_lines`` writes each value as ``%.17g`` does, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from(_NUMBER_EDGES) | st.floats(allow_nan=False),
            min_size=0,
            max_size=60,
        ).map(lambda v: v + v[::3])  # unsorted, with repeats
    )
    @example(values=_NUMBER_EDGES)
    @example(values=[-x for x in _NUMBER_EDGES])
    @example(values=[math.inf, -math.inf, math.nan, 1e300, -1e-300])
    def test_equals_percent_format(self, values):
        values = np.array(values, dtype=float)
        assert cli._number_lines(values).tolist() == _number_lines_of(values)

    def test_across_chunk_edges(self):
        # Random bit patterns from 2**-15 to 16, both formatters' ranges
        # mixed, over more than two chunks.
        rng = np.random.default_rng(17)
        low, high = np.uint64(0x3F00_0000_0000_0000), np.uint64(0x4030_0000_0000_0000)
        bits = rng.integers(low, high, 2 * cli._NUMBER_CHUNK + 5, dtype=np.uint64)
        bits |= rng.integers(0, 2, len(bits), dtype=np.uint64) << np.uint64(63)  # random signs
        values = bits.view(np.float64)
        assert cli._number_lines(values).tolist() == _number_lines_of(values)

    @pytest.mark.parametrize("mode, step", [(Mode.SEQUENTIAL, 3.6), (Mode.EPRB, 12.0)])
    def test_percent_formats_only_values_outside_fixed_notation(self, mode, step, monkeypatch):
        # Marking the % format shows which lines it wrote: only zeros,
        # values that %g writes with an exponent, |S| >= 10 and non-finite.
        distinct = np.unique(scan_grid(mode, math.radians(step)).s_values)
        monkeypatch.setattr(cli, "_NUMBER", "%.17g~")
        marked = ["~" in line for line in cli._number_lines(distinct).tolist()]
        want = [
            v == 0.0 or "e" in "%.17g" % v or not abs(v) < 10.0 for v in distinct.tolist()
        ]
        assert marked == want


class TestScanCsvFormat:
    """The scan renderer writes each cell as its per-cell row would."""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(list(Mode)),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    )
    @example(mode=Mode.SEQUENTIAL, values=[-0.0, 0.0, 1.5])
    @example(mode=Mode.EPRB, values=[0.0, -0.0])
    @example(mode=Mode.SEQUENTIAL, values=[-0.0])
    @example(mode=Mode.EPRB, values=[5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    @example(mode=Mode.SEQUENTIAL, values=[*_ulp_neighbours(TSIRELSON), *_ulp_neighbours(0.1)])
    @example(mode=Mode.EPRB, values=[*_ulp_neighbours(1.0), *_ulp_neighbours(-2.0)])
    @example(mode=Mode.SEQUENTIAL, values=_distinct_values(65_535))
    @example(mode=Mode.EPRB, values=_distinct_values(65_536))
    @example(mode=Mode.EPRB, values=_distinct_values(65_537))
    def test_lines_equal_the_per_cell_rows(self, mode, values):
        report = _report_of(mode, values)
        rows = [
            ",".join([*map(_fmt, map(math.degrees, angles)), _fmt(float(s))]) + "\n"
            for angles, s in zip(angle_rows(report), report.s_values)
        ]
        lines = b"".join(_scan_csv_lines(report)).decode("ascii").splitlines(keepends=True)
        assert lines[0] == ",".join(cli._SCAN_COLUMNS[mode]) + ",s\n"
        assert lines[1:] == rows

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(list(Mode)),
        values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=300),
        data=st.data(),
    )
    def test_shard_is_its_slabs_of_the_one_shard_render(self, mode, values, data):
        report = _report_of(mode, values)
        n = len(report.axis)
        lo = data.draw(st.integers(0, n - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, n), label="hi")
        slab = n ** (len(cli._SCAN_COLUMNS[mode]) - 1)
        lines = b"".join(_scan_csv_lines(report)).splitlines(keepends=True)[1:]
        axis_text = [_fmt(math.degrees(v)) for v in report.axis]
        blocks = list(cli._shard_lines(report, axis_text, lo, hi))
        assert len(blocks) == hi - lo  # one block per slab
        assert b"".join(blocks) == b"".join(lines[lo * slab : hi * slab])

    @pytest.mark.parametrize("mode, step", [(Mode.SEQUENTIAL, 3.6), (Mode.EPRB, 12.0)])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_benchmark_grids_take_a_shard_per_cpu(self, mode, step, cpus, monkeypatch):
        force_cpus(monkeypatch, cpus)
        counts = []

        def split(units, min_units, task):
            counts.append(_shards.shard_count(units, min_units))
            yield from ()

        monkeypatch.setattr(cli, "split", split)
        collections.deque(_scan_csv_lines(scan_grid(mode, math.radians(step))), maxlen=0)
        assert counts == [cpus]

    @pytest.mark.parametrize(
        "mode, step, bound",
        [
            (Mode.SEQUENTIAL, 3.6, 6.5),
            (Mode.EPRB, 12.0, 5.5),
            (Mode.SEQUENTIAL, 3.6, 5.3),
            (Mode.EPRB, 12.0, 2.5),
        ],
    )
    def test_renderer_peak_memory(self, mode, step, bound, monkeypatch):
        # The bound is a multiple of the S array: the ceilings met by renders
        # that deduplicated the whole grid's S at once (near 5.1x with
        # np.unique's inverse, then near 2.1x, and 4.51x on the sequential
        # grid's 360,205 distinct S strings). A slab at a time peaks near
        # 0.39x (sequential) and 1.19x (EPRB). One shard, so the whole
        # render runs in this process.
        report = scan_grid(mode, math.radians(step))
        assert _render_peak(report, monkeypatch, cpus=1) <= bound * report.s_values.nbytes

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "mode, step",
        [(Mode.SEQUENTIAL, 3.6), (Mode.SEQUENTIAL, 2.5), (Mode.EPRB, 12.0), (Mode.EPRB, 9.0)],
    )
    def test_render_peak_does_not_grow_with_the_grid(self, mode, step, cpus, monkeypatch):
        # 1.0 to 3.0 million cells under one ceiling: a render holds one
        # slab (10.4 MiB at most, EPRB 9°), not a shard. Deduplicating the
        # whole shard's S peaked at 13.2 to 100.7 MiB over these grids in
        # one shard. With two shards the parent streams the child's half,
        # about 36 MB of lines at sequential 3.6°, in chunks of at most 1 MiB.
        report = scan_grid(mode, math.radians(step))
        with counted_forks(monkeypatch) as forks:
            peak = _render_peak(report, monkeypatch, cpus)
        assert len(forks) == cpus - 1
        assert peak <= 12 * 2**20


def _render_peak(report, monkeypatch, cpus):
    """Peak traced memory of this process over a whole scan CSV render."""
    force_cpus(monkeypatch, cpus)
    tracemalloc.start()
    try:
        # Drop each block once read, as writelines does.
        collections.deque(_scan_csv_lines(report), maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_to_file(tmp_path, subcommand, fmt="json", name="out.txt", **overrides):
    out = tmp_path / name
    config = parse_config(config_text(format=fmt, out=str(out), **overrides))
    report = run(subcommand, config)
    return report, out.read_text()


class TestRunExact:
    def test_payload_matches_library_exactly(self, tmp_path):
        report, _ = run_to_file(tmp_path, "exact")
        scenario = parse_config(config_text()).scenario()
        distribution = grand_joint_quantum(scenario)
        got = [row["probability"] for row in report.payload["distribution"]]
        assert got == list(distribution.probs)
        correlators = closed_form_correlators(scenario)
        assert report.payload["s_value"] == chsh_value(correlators)
        assert report.payload["correlators"] == correlators.as_dict()
        assert report.payload["bound_satisfied"] is True

    def test_csv_cells_round_trip_to_exact_floats(self, tmp_path):
        _, text = run_to_file(tmp_path, "exact", fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "a1,b1,a2,b2,probability"
        assert len(lines) == 17
        scenario = parse_config(config_text()).scenario()
        probs = grand_joint_quantum(scenario).probs
        for line, want in zip(lines[1:], probs):
            assert float(line.split(",")[4]) == want

    def test_aligned_zero_scenario_hits_half(self, tmp_path):
        report, _ = run_to_file(
            tmp_path, "exact", a=0.0, a_prime=0.0, b=0.0, b_prime=0.0
        )
        rows = {
            (r["a1"], r["b1"], r["a2"], r["b2"]): r["probability"]
            for r in report.payload["distribution"]
        }
        assert rows[(1, -1, 1, -1)] == pytest.approx(0.5, abs=1e-12)
        assert rows[(-1, 1, -1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert rows[(1, 1, 1, 1)] == 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_determinism(self, tmp_path, fmt):
        # Identical configuration twice (the JSON report echoes the output
        # path, so the path must match too).
        _, first = run_to_file(tmp_path, "exact", fmt=fmt, name="one.txt")
        _, second = run_to_file(tmp_path, "exact", fmt=fmt, name="one.txt")
        assert first == second

    def test_json_document_structure(self, tmp_path):
        _, text = run_to_file(tmp_path, "exact", fmt="json")
        doc = json.loads(text)
        assert doc["version"] == __version__
        assert doc["subcommand"] == "exact"
        assert doc["config"]["mode"] == "sequential"
        assert doc["config"]["out"] is not None
        assert set(doc["payload"]) == {
            "distribution",
            "pair_marginals",
            "pair_correlators",
            "correlators",
            "s_value",
            "bound_satisfied",
        }


class TestRunSample:
    def test_counts_match_library_sampler(self, tmp_path):
        report, _ = run_to_file(tmp_path, "sample", n=20_000, seed=5)
        scenario = parse_config(config_text()).scenario()
        counts = sample(grand_joint_quantum(scenario), 20_000, 5)
        assert tuple(report.payload["counts"]) == counts.counts
        assert report.payload["n"] == 20_000
        assert report.payload["seed"] == 5

    def test_zero_draws_has_no_estimates(self, tmp_path):
        report, _ = run_to_file(tmp_path, "sample", n=0)
        assert "estimates" not in report.payload
        assert "std_errors" not in report.payload
        assert report.payload["counts"] == [0] * 16

    def test_csv_shape(self, tmp_path):
        _, text = run_to_file(tmp_path, "sample", fmt="csv", n=1000)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 17
        assert lines[1].split(",")[-1] == "1000"


class TestRunChshScan:
    def test_eprb_sixty_degree_grid(self, tmp_path):
        report, _ = run_to_file(
            tmp_path, "chsh-scan", step=60.0, **MAGIC_CONFIG
        )
        assert report.payload["n_cells"] == 6**4
        assert report.payload["mode"] == "eprb"
        assert report.payload["step_deg"] == 60.0
        assert report.payload["bound_satisfied"] is True

    def test_sequential_grid_bounded_by_two(self, tmp_path):
        report, _ = run_to_file(tmp_path, "chsh-scan", step=30.0)
        assert report.payload["n_cells"] == 12**3
        assert report.payload["max_abs_s"] <= 2.0 + 1e-9
        assert len(report.payload["argmax_deg"]) == 3

    def test_csv_lists_every_cell(self, tmp_path):
        _, text = run_to_file(tmp_path, "chsh-scan", fmt="csv", step=90.0)
        lines = text.strip().splitlines()
        assert lines[0] == "theta_ab_deg,theta_aa_prime_deg,theta_bb_prime_deg,s"
        assert len(lines) == 1 + 4**3

    def test_eprb_csv_columns(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "chsh-scan", fmt="csv", step=120.0, **MAGIC_CONFIG
        )
        assert text.splitlines()[0] == "a_deg,a_prime_deg,b_deg,b_prime_deg,s"

    @settings(max_examples=20, deadline=None)
    @given(
        mode=st.sampled_from(["sequential", "eprb"]),
        step=st.floats(min_value=20.0, max_value=360.0),
    )
    def test_csv_equals_the_per_cell_rows(self, mode, step):
        with tempfile.TemporaryDirectory() as tmp:
            _, text = run_to_file(Path(tmp), "chsh-scan", fmt="csv", mode=mode, step=step)
        grid = scan_grid(Mode(mode), math.radians(step))
        rows = [
            ",".join([*map(_fmt, map(math.degrees, angles)), _fmt(float(s))])
            for angles, s in zip(angle_rows(grid), grid.s_values)
        ]
        assert text.splitlines()[1:] == rows


class TestRunChshMax:
    def test_eprb_reaches_quantum_optimum(self, tmp_path):
        report, _ = run_to_file(tmp_path, "chsh-max", **MAGIC_CONFIG)
        assert report.payload["abs_s"] == pytest.approx(TSIRELSON, abs=1e-6)
        assert report.payload["converged"] is True
        assert len(report.payload["optimal_angles_deg"]) == 4

    def test_sequential_reaches_classical_bound(self, tmp_path):
        report, _ = run_to_file(tmp_path, "chsh-max")
        assert report.payload["abs_s"] == pytest.approx(2.0, abs=1e-6)
        assert len(report.payload["optimal_angles_deg"]) == 3

    @pytest.mark.parametrize("mode", ["eprb", "sequential"])
    def test_negative_zero_angle_gives_the_zero_payload(self, tmp_path, mode):
        angles = {"a": 0.0, "a_prime": 90.0, "b": 45.0, "b_prime": 135.0}
        zero, _ = run_to_file(tmp_path, "chsh-max", mode=mode, **angles)
        negative, _ = run_to_file(tmp_path, "chsh-max", mode=mode, **{**angles, "a": -0.0})
        assert negative.config["a"] == -0.0  # the echo keeps the config as given
        assert json.dumps(negative.payload) == json.dumps(zero.payload)


class TestRunHvmCheck:
    def test_sequential_scenario_passes(self, tmp_path):
        report, _ = run_to_file(tmp_path, "hvm-check")
        assert report.payload["passed"] is True
        assert report.payload["factorizability"]["passed"] is True
        assert report.payload["factorizability"]["max_deviation"] == 0.0
        assert report.payload["reconstruction_max_deviation"] <= 1e-12
        assert report.payload["context"]["weights"] == ["a", "b"]

    def test_csv_row(self, tmp_path):
        _, text = run_to_file(tmp_path, "hvm-check", fmt="csv")
        lines = text.strip().splitlines()
        assert lines[1].startswith("true,true,")


class TestRunJointFeasibility:
    def test_sequential_targets_feasible(self, tmp_path):
        report, _ = run_to_file(tmp_path, "joint-feasibility")
        assert report.payload["verdict"] == "feasible"
        assert report.payload["certificate"] is None
        witness = report.payload["witness"]
        assert len(witness) == 16
        assert math.fsum(witness) == pytest.approx(1.0, abs=1e-9)

    def test_max_violation_certified(self, tmp_path):
        report, text = run_to_file(
            tmp_path, "joint-feasibility", fmt="csv", **MAGIC_CONFIG
        )
        assert report.payload["verdict"] == "infeasible"
        assert report.payload["witness"] is None
        cert = report.payload["certificate"]
        assert cert["value"] == pytest.approx(TSIRELSON, abs=1e-9)
        row = text.strip().splitlines()[1].split(",")
        assert row[0] == "infeasible"
        assert sorted(row[1:5]) in (["-1", "1", "1", "1"], ["-1", "-1", "-1", "1"])

    def test_feasible_csv_leaves_certificate_cells_empty(self, tmp_path):
        _, text = run_to_file(tmp_path, "joint-feasibility", fmt="csv")
        row = text.strip().splitlines()[1]
        assert row == "feasible,,,,,"


class TestRunValidation:
    def test_unknown_subcommand_rejected(self):
        config = parse_config(config_text())
        with pytest.raises(ConfigError, match="subcommand"):
            run("mystery", config)

    def test_unwritable_out_rejected(self, tmp_path):
        config = parse_config(
            config_text(out=str(tmp_path / "missing_dir" / "x.csv"))
        )
        with pytest.raises(ConfigError, match="cannot write"):
            run("exact", config)


class TestMain:
    def test_success_returns_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["exact", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("a1,b1,a2,b2,probability")

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["exact", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["exact", "--config", str(path)]) == EXIT_INPUT

    def test_eprb_exact_is_an_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path, **MAGIC_CONFIG)
        assert main(["exact", "--config", path]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_eprb_hvm_check_is_an_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path, **MAGIC_CONFIG)
        assert main(["hvm-check", "--config", path]) == EXIT_INPUT

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = str(tmp_path / "no_such_dir" / "report.csv")
        assert main(["exact", "--config", path, "--out", out]) == EXIT_INPUT

    def test_oversized_grid_is_an_input_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["chsh-scan", "--config", path, "--step", "0.5"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["1e-4", "1e-12", "1e-300", "1e-310"])
    def test_tiny_step_is_refused_before_any_axis(self, tmp_path, capsys, step):
        # 1e-4 degrees gives 3.6 M values per axis (29 MB), 1e-12 degrees
        # more than any memory, 1e-300 a cell count of 1211 digits, and
        # 1e-310 a subnormal step in radians.
        path = write_config(tmp_path, **MAGIC_CONFIG)
        tracemalloc.start()
        try:
            code = main(["chsh-scan", "--config", path, "--step", step])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: step ") and "refusing grids above 20000000" in err
        assert err.count("\n") == 1 and len(err) < 200
        assert f"({float(step):g} deg)" in err
        assert peak < 2**20

    @pytest.mark.parametrize("n", [str(2**30 + 1), str(2**64), "9" * 4000])
    def test_sample_above_the_draw_budget_is_refused_before_any_draw(self, tmp_path, capsys, n):
        path = write_config(tmp_path)
        tracemalloc.start()
        try:
            code = main(["sample", "--config", path, "--n", n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: sample count must be an integer from 0 to 1073741824, got ")
        assert err.count("\n") == 1 and len(err) < 200
        # One block of draws alone would take 8 * 2**16 bytes.
        assert peak < 2**19

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x.json"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            assert tomllib.load(handle)["project"]["version"] == __version__

    def test_flag_overrides_are_echoed(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(
            [
                "sample",
                "--config",
                path,
                "--format",
                "json",
                "--seed",
                "9",
                "--n",
                "5",
                "--step",
                "45",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["format"] == "json"
        assert doc["config"]["seed"] == 9
        assert doc["config"]["n"] == 5
        assert doc["config"]["step"] == 45.0
        assert doc["payload"]["n"] == 5

    def test_override_step_out_of_range(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["chsh-scan", "--config", path, "--step", "0"]) == EXIT_INPUT

    def test_override_negative_seed(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["sample", "--config", path, "--seed", "-3"]) == EXIT_INPUT

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["exact", "--config", path, "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("a1,b1,a2,b2,probability")
        assert capsys.readouterr().out == ""

    def test_every_subcommand_runs_clean(self, tmp_path, capsys):
        path = write_config(tmp_path, n=1000, step=45.0)
        for name in SUBCOMMANDS:
            assert main([name, "--config", path]) == EXIT_OK, name
        capsys.readouterr()


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        path = write_config(tmp_path)
        plain = [["exact", "--config", path], ["sample", "--config", path, "--n", "1000"]]

        def output(argv):
            assert main(argv) == EXIT_OK
            return capsys.readouterr().out

        first = [output(argv) for argv in plain]
        overridden = output(
            ["sample", "--config", path, "--seed", "9", "--n", "5", "--step", "45",
             "--format", "json"]
        )
        assert json.loads(overridden)["config"]["seed"] == 9
        for argv, code in [
            (["sample", "--config", path, "--n", "many"], EXIT_INPUT),
            (["--version"], EXIT_OK),
            (["frobnicate", "--config", path], EXIT_INPUT),
        ]:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == code
        capsys.readouterr()
        assert [output(argv) for argv in plain] == first
        # One build: the top parser and its subparsers, each constructed once.
        assert built == ["eprb-lab", *(f"eprb-lab {name}" for name in SUBCOMMANDS)]


class TestRunConfigEcho:
    def test_echo_serializes_mode_value(self):
        config = RunConfig(
            mode=Mode.EPRB, a=0.0, a_prime=90.0, b=135.0, b_prime=225.0
        )
        doc = config.echo()
        assert doc["mode"] == "eprb"
        assert doc["n"] == 1_000_000


class TestOneConfigPath:
    @pytest.mark.parametrize(
        "flag, value, key, doc_value",
        [
            ("--step", "nan", "step", float("nan")),
            ("--step", "inf", "step", float("inf")),
            ("--step", "0", "step", 0.0),
            ("--seed", "-3", "seed", -3),
            ("--seed", str(2**64), "seed", 2**64),
            ("--n", "-1", "n", -1),
        ],
    )
    def test_flag_errors_match_config_errors(
        self, tmp_path, capsys, flag, value, key, doc_value
    ):
        path = write_config(tmp_path)
        code = main(["exact", "--config", path, "--format", "json", flag, value])
        captured = capsys.readouterr()
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_text(**{key: doc_value}))
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == f"error: {excinfo.value}\n"

    def test_flag_replaces_an_invalid_config_value(self, tmp_path, capsys):
        path = write_config(tmp_path, step=0.0)
        assert main(["exact", "--config", path, "--step", "5"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text, match",
        [
            (config_text().replace('"a": 0.0', '"a": 1' + "0" * 400), "'a' must be a finite number"),
            (config_text().replace('"a": 0.0', '"a": 1' + "0" * 5000), "JSON"),
            ("[" * 100_000 + "]" * 100_000, "JSON"),
        ],
        ids=["beyond-float-range", "too-many-digits", "too-deep"],
    )
    def test_documents_past_number_and_nesting_limits(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_undecodable_config_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"mode": "\xff"}')
        assert main(["exact", "--config", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: cannot read configuration")

    def test_parser_errors_are_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--config", path, "--n", "many"])
        assert excinfo.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--n" in err


class TestOneWritePath:
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_json_report_formats_no_csv_row(self, tmp_path, monkeypatch, subcommand):
        def refuse(x):
            raise AssertionError("a CSV cell was formatted for a JSON report")

        monkeypatch.setattr(cli, "_fmt", refuse)
        _, text = run_to_file(tmp_path, subcommand, fmt="json", n=1000, step=30.0)
        assert json.loads(text)["subcommand"] == subcommand

    def test_closed_stdout_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def writelines(self, lines):
                next(iter(lines))
                raise BrokenPipeError(32, "Broken pipe")

        path = write_config(tmp_path)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["chsh-scan", "--config", path, "--step", "30"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: cannot write standard output: [Errno 32] Broken pipe\n"
        )

    def test_report_json_rejects_nan(self):
        report = Report("0", "exact", {}, {"s_value": float("nan")})
        with pytest.raises(ValueError):
            report.to_json()

    def test_module_entry_point_matches_main(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["exact", "--config", path]) == EXIT_OK
        expected = capsys.readouterr().out
        env = {**os.environ, "PYTHONPATH": str(Path(eprb_lab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "eprb_lab.cli", "exact", "--config", path],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout == expected.encode("utf-8")


def test_module_scan_to_a_pipe_equals_the_out_bytes(tmp_path):
    # EPRB 12 degrees, 810,000 rows: forked shards where two CPUs are free.
    path = write_config(tmp_path, **MAGIC_CONFIG)
    args = ["chsh-scan", "--config", path, "--step", "12"]
    out = tmp_path / "scan.csv"
    assert main([*args, "--out", str(out)]) == EXIT_OK
    env = {**os.environ, "PYTHONPATH": str(Path(eprb_lab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "eprb_lab.cli", *args], stdout=subprocess.PIPE, env=env, timeout=120
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == out.read_bytes()


def child_only(monkeypatch, misbehave):
    """Make ``cli._shard_lines`` call ``misbehave()`` first in forked children only."""
    parent = os.getpid()
    real = cli._shard_lines

    def shard_lines(*args):
        if os.getpid() != parent:
            misbehave()
        return real(*args)

    monkeypatch.setattr(cli, "_shard_lines", shard_lines)


def _raise_error():
    raise RuntimeError("render failed in the child")


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


class BrokenOutput:
    """Standard output that takes ``accepted`` lines, then fails."""

    def __init__(self, accepted, error):
        self.accepted, self.error = accepted, error

    def writelines(self, lines):
        for _ in zip(range(self.accepted), lines):
            pass
        raise self.error


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
class TestShardedScanCsv:
    """A scan CSV of three forced shards, two of them rendered in forked
    children, has the bytes of the one-shard render whatever happens to
    the children, and a failed write leaves no child and no memory file."""

    #: 12**4 = 20,736 cells: 12 slabs of 1,728 cells, in shards of 4 slabs.
    STEP = 30.0

    def scan(self, tmp_path, monkeypatch, cpus=3, fmt="csv"):
        force_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "_MIN_SHARD_CELLS", 1000)
        path = write_config(tmp_path, **{**MAGIC_CONFIG, "format": fmt})
        out = tmp_path / f"scan-{cpus}.{fmt}"
        assert main(["chsh-scan", "--config", path, "--step", str(self.STEP), "--out", str(out)]) == 0
        return out.read_bytes()

    def one_shard(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp, counted_forks(mp) as forks:
            text = self.scan(tmp_path, mp, cpus=1)
        assert forks == []
        return text

    def test_shards_give_the_one_shard_bytes(self, tmp_path, monkeypatch):
        want = self.one_shard(tmp_path)
        fds = open_fds()
        with counted_forks(monkeypatch) as forks:
            assert self.scan(tmp_path, monkeypatch) == want
        assert len(forks) == 2
        assert open_fds() == fds

    def test_stdout_without_a_binary_layer_gets_the_same_text(self, tmp_path, monkeypatch):
        want = self.scan(tmp_path, monkeypatch)
        path = write_config(tmp_path, **MAGIC_CONFIG)
        out = io.StringIO()
        with counted_forks(monkeypatch) as forks, contextlib.redirect_stdout(out):
            assert main(["chsh-scan", "--config", path, "--step", str(self.STEP)]) == EXIT_OK
        assert len(forks) == 2
        assert out.getvalue() == want.decode("ascii")

    @pytest.mark.parametrize("call", ["fork", "memfd_create"])
    def test_failed_fork_is_rendered_in_process(self, tmp_path, monkeypatch, call):
        def fail(*args):
            raise BlockingIOError("no more processes")

        want = self.one_shard(tmp_path)
        fds = open_fds()
        monkeypatch.setattr(os, call, fail)
        assert self.scan(tmp_path, monkeypatch) == want
        assert open_fds() == fds

    @pytest.mark.parametrize("misbehave", [_raise_error, _killed], ids=["raise_error", "killed"])
    def test_failed_child_is_rendered_in_process(self, tmp_path, monkeypatch, misbehave):
        want = self.one_shard(tmp_path)
        child_only(monkeypatch, misbehave)
        fds = open_fds()
        with counted_forks(monkeypatch) as forks:
            assert self.scan(tmp_path, monkeypatch) == want
        assert len(forks) == 2
        assert open_fds() == fds

    @pytest.mark.parametrize(
        "error",
        [OSError(errno.ENOSPC, "No space left on device"), BrokenPipeError(errno.EPIPE, "Broken pipe")],
        ids=["full", "closed"],
    )
    def test_failed_write_kills_and_reaps_every_child(self, tmp_path, monkeypatch, capsys, error):
        # The children would sleep for a minute; the write fails after the
        # header and the parent's first slab, and the run must not wait.
        child_only(monkeypatch, lambda: time.sleep(60))
        force_cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "_MIN_SHARD_CELLS", 1000)
        monkeypatch.setattr(sys, "stdout", BrokenOutput(2, error))
        path = write_config(tmp_path, **MAGIC_CONFIG)
        fds = open_fds()
        begun = time.monotonic()
        with counted_forks(monkeypatch) as forks:
            code = main(["chsh-scan", "--config", path, "--step", str(self.STEP)])
        assert time.monotonic() - begun < 30
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: cannot write standard output: {error}\n"
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_run_ends_its_children_before_it_raises(self, tmp_path, monkeypatch):
        # The raised error holds the frames of the render; the children must
        # be gone while it is still held, not when it is collected.
        child_only(monkeypatch, lambda: time.sleep(60))
        force_cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "_MIN_SHARD_CELLS", 1000)
        monkeypatch.setattr(sys, "stdout", BrokenOutput(2, BrokenPipeError(errno.EPIPE, "Broken pipe")))
        config = parse_config(config_text(**MAGIC_CONFIG, step=self.STEP))
        with pytest.raises(ConfigError) as caught:
            run("chsh-scan", config)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert caught.value.__traceback__ is not None

    @pytest.mark.parametrize(
        "mode, fmt, step", [("eprb", "json", 12.0), ("sequential", "json", 3.6), ("sequential", "csv", 5.0)]
    )
    def test_json_and_small_grids_never_fork(self, tmp_path, monkeypatch, mode, fmt, step):
        # EPRB 12 degrees has 810,000 cells and sequential 3.6 degrees a
        # million; sequential 5 degrees has 373,248, fewer than two shards of
        # _MIN_SHARD_CELLS.
        force_cpus(monkeypatch, 3)
        path = write_config(tmp_path, **{**MAGIC_CONFIG, "mode": mode, "format": fmt})
        with counted_forks(monkeypatch) as forks:
            assert main(["chsh-scan", "--config", path, "--step", str(step), "--out", str(tmp_path / "out")]) == 0
        assert forks == []


_CSV_HEADERS = {
    "exact": "a1,b1,a2,b2,probability",
    "sample": COUNTS_CSV_HEADER,
    "hvm-check": "passed,factorizability_passed,factorizability_max_deviation,"
    "reconstruction_max_deviation",
    "joint-feasibility": "verdict,sign_ab,sign_ab_prime,sign_a_prime_b,"
    "sign_a_prime_b_prime,certificate_value",
}
_BAD_VALUES = [
    float("nan"), float("inf"), float("-inf"), -1, -0.5, 2**64, 2**1100,
    True, False, None, "1", [], {},
]
#: Bad sample counts; those above the draw budget are refused before any
#: draw.
_BAD_COUNTS = [float("nan"), -1, 1.5, True, None, "5", [], 2**30 + 1, 2**64, 2**1100]
_BAD_FLAGS = {
    "--step": ["nan", "inf", "-inf", "0", "-5", "361", "1e400", "x"],
    "--seed": ["-3", str(2**64), "1.5", "true"],
    "--n": ["-1", "nan", "1e3", "true"],
    "--format": ["yaml", ""],
}
_BAD_TEXTS = ["", "{", "[1, 2]", "null", '{"mode": NaN}', "[" * 100_000]

_fuzz_angles = st.floats(-1e6, 1e6) | st.integers(-720, 720)
_fuzz_docs = st.fixed_dictionaries(
    {
        "mode": st.sampled_from(["sequential", "eprb"]),
        "a": _fuzz_angles,
        "a_prime": _fuzz_angles,
        "b": _fuzz_angles,
        "b_prime": _fuzz_angles,
        "n": st.integers(0, 10_000),
    },
    optional={
        "step": st.floats(0.01, 360.0),
        "seed": st.integers(0, 2**64 - 1),
        "format": st.sampled_from(["csv", "json"]),
        "out": st.none(),
    },
)
_fuzz_flags = st.fixed_dictionaries(
    {},
    optional={
        "--step": st.floats(0.01, 360.0).map(repr),
        "--seed": st.integers(0, 2**64 - 1).map(str),
        "--n": st.integers(0, 10_000).map(str),
        "--format": st.sampled_from(["csv", "json"]),
    },
)
#: One thing wrong with an otherwise valid run: a bad config value, an
#: unknown or missing key, a bad flag value, or a document that is not a
#: config object.
_fuzz_faults = st.one_of(
    st.sampled_from(["mode", "a", "a_prime", "b", "b_prime", "step", "seed", "format", "out"])
    .flatmap(lambda key: st.tuples(st.just("doc"), st.just(key), st.sampled_from(_BAD_VALUES))),
    st.tuples(st.just("doc"), st.just("n"), st.sampled_from(_BAD_COUNTS)),
    st.tuples(st.just("doc"), st.just("unknown"), st.integers()),
    st.tuples(st.just("drop"), st.sampled_from(["mode", "a", "b_prime"]), st.none()),
    st.sampled_from(sorted(_BAD_FLAGS))
    .flatmap(lambda flag: st.tuples(st.just("flag"), st.just(flag), st.sampled_from(_BAD_FLAGS[flag]))),
    st.tuples(st.just("text"), st.none(), st.sampled_from(_BAD_TEXTS)),
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestFuzz:
    @given(
        subcommand=st.sampled_from(sorted(_CSV_HEADERS)),
        doc=_fuzz_docs,
        flags=_fuzz_flags,
        faults=st.lists(_fuzz_faults, max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_input_gives_a_report_or_one_line(self, subcommand, doc, flags, faults):
        text = None
        for kind, key, value in faults:
            if kind == "doc":
                doc[key] = value
            elif kind == "drop":
                doc.pop(key, None)
            elif kind == "flag":
                flags[key] = value
            else:
                text = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            Path(path).write_text(json.dumps(doc) if text is None else text)
            argv = [subcommand, "--config", path, *(f"{k}={v}" for k, v in flags.items())]
            out, err = io.StringIO(), io.StringIO()
            # A string "out" is a valid relative path: the report goes there,
            # inside the temporary directory.
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
            finally:
                os.chdir(cwd)
            out, err = out.getvalue(), err.getvalue()
            target = doc.get("out") if text is None else None
            if code == EXIT_OK and isinstance(target, str):
                out = Path(tmp, target).read_text()
        assert code in (EXIT_OK, EXIT_INPUT), err
        assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), err
        assert "Traceback" not in err
        if code == EXIT_INPUT:
            assert out == ""
        elif out.startswith("{"):
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out.splitlines()[0] == _CSV_HEADERS[subcommand]
