"""The reference checks reject corrupted reports, and the traced run rejects
a layer that never fires.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

Each test produces real reports with small configs, corrupts one output in
place, asserts that the checker rejects it for the intended reason, and
restores the clean bytes.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eprb_lab import cli  # noqa: E402

SEQ = {"mode": "sequential", "a": 10.0, "a_prime": 47.5, "b": 100.25, "b_prime": 133.0}
ZERO = {**SEQ, "b": SEQ["a"]}
TSIRELSON = {"mode": "eprb", "a": 0.0, "a_prime": 90.0, "b": 315.0, "b_prime": 45.0}
SPECS = [
    ("exact-csv", "exact", {**SEQ, "format": "csv"}),
    ("exact-json", "exact", {**SEQ, "format": "json"}),
    ("sample-csv", "sample", {**ZERO, "n": 20000, "seed": 7, "format": "csv"}),
    ("replay-json", "sample", {**SEQ, "n": 512, "seed": 2**63 + 5, "format": "json"}, "exact-json"),
    ("max-seq-csv", "chsh-max", {**SEQ, "format": "csv"}),
    ("max-eprb-json", "chsh-max", {**TSIRELSON, "format": "json"}),
    ("hvm-csv", "hvm-check", {**SEQ, "format": "csv"}),
    ("hvm-json", "hvm-check", {**SEQ, "format": "json"}),
    ("feasible-json", "joint-feasibility", {**SEQ, "format": "json"}),
    ("infeasible-csv", "joint-feasibility", {**TSIRELSON, "format": "csv"}),
    ("infeasible-json", "joint-feasibility", {**TSIRELSON, "format": "json"}),
    ("scan-eprb-csv", "chsh-scan", {**TSIRELSON, "step": 30.0, "format": "csv"}),
    ("scan-seq-csv", "chsh-scan", {**SEQ, "step": 10.0, "format": "csv"}),
    ("scan-seq-json", "chsh-scan", {**SEQ, "step": 10.0, "format": "json"}),
]


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    work = tmp_path_factory.mktemp("reports")
    made = {spec[0]: workloads.write_op(work, *spec) for spec in SPECS}
    for op in made.values():
        assert cli.main(op.argv) == 0, op.name
    return made


def test_clean_reports_pass(ops):
    checker = checks.Checker()
    for op in ops.values():
        checker.check(op)
    checker.check(ops["scan-seq-csv"])  # a second round compares the hash


def _sub(pattern: str, repl: str, count: int = 1):
    def mutate(text: str) -> str:
        new, n = re.subn(pattern, repl, text, count=count, flags=re.M)
        assert n, f"pattern {pattern!r} did not match"
        return new

    return mutate


def _json_edit(edit):
    def mutate(text: str) -> str:
        doc = json.loads(text)
        edit(doc["payload"])
        return json.dumps(doc, indent=2) + "\n"

    return mutate


def _move_draw(src: int, dst: int):
    def edit(payload):
        payload["counts"][src] -= 1
        payload["counts"][dst] += 1

    return edit


def _csv_move_draw(text: str) -> str:
    header, row = text.splitlines()
    counts = row.split(",")
    counts[0] = "1"  # A1 = B1 = +1 has probability zero when a = b
    counts[5] = str(int(counts[5]) - 1)
    return f"{header}\n{','.join(counts)}\n"


def _drop_last_row(text: str) -> str:
    return text[: text.rstrip("\n").rfind("\n") + 1]


CORRUPTIONS = [
    ("exact-csv", _sub(r"^(1,1,1,1,)0\.\d", r"\g<1>0.9"), "P"),
    ("exact-json", _json_edit(lambda p: p.update(s_value=p["s_value"] + 1e-9)), "S"),
    ("exact-json", _sub(r'"s_value": [^,]+', '"s_value": NaN'), "not valid JSON"),
    ("sample-csv", _csv_move_draw, "zero-probability cell"),
    # Cells 0 and 15 have the same correlator products, so the estimates hold.
    ("replay-json", _json_edit(_move_draw(0, 15)), "splitmix64 replay"),
    ("max-seq-csv", _sub(r",true$", ",false"), "did not converge"),
    ("max-eprb-json", _json_edit(lambda p: p.update(abs_s=2.0, s_value=2.0)), "max \\|S\\|"),
    ("hvm-csv", _sub(r"^(true,true,[^,]+),[^,\n]+$", r"\g<1>,1e-9"), "reconstruction deviation"),
    ("hvm-json", _json_edit(lambda p: p["weights"].__setitem__(0, p["weights"][0] + 1e-9)), "weight of atom"),
    ("feasible-json", _json_edit(lambda p: p["witness"].__setitem__(0, p["witness"][0] + 1e-6)), "witness"),
    ("infeasible-csv", _sub(r"^infeasible,.*$", "feasible,,,,,"), "CHSH variant reaches"),
    ("infeasible-json", _json_edit(lambda p: p["certificate"]["signs"].reverse()), "certificate"),
    ("scan-eprb-csv", _sub(r",(-?\d\.\d{5})", r",\g<1>9", count=1), "S off the closed form"),
    ("scan-eprb-csv", _drop_last_row, "rows, want"),
    ("scan-seq-csv", _sub(r"^0,0,0,", "0.5,0,0,"), "not the grid"),
    ("scan-seq-json", _json_edit(lambda p: p.update(max_abs_s=p["max_abs_s"] - 1e-6)), "max \\|S\\| over the grid"),
]


@pytest.mark.parametrize("name, mutate, reason", CORRUPTIONS, ids=[f"{c[0]}-{i}" for i, c in enumerate(CORRUPTIONS)])
def test_corrupted_report_is_rejected(ops, name, mutate, reason):
    op = ops[name]
    clean = op.out.read_text(encoding="utf-8")
    op.out.write_text(mutate(clean), encoding="utf-8")
    try:
        with pytest.raises(checks.CheckError, match=reason):
            checks.Checker().check(op)
    finally:
        op.out.write_text(clean, encoding="utf-8")


def test_changed_scan_csv_in_a_later_round_is_rejected(ops):
    op = ops["scan-seq-csv"]
    checker = checks.Checker()
    checker.check(op)
    clean = op.out.read_bytes()
    op.out.write_bytes(clean.replace(b"\n", b"\r\n", 1))
    try:
        with pytest.raises(checks.CheckError, match="differs from the checked round"):
            checker.check(op)
    finally:
        op.out.write_bytes(clean)


def test_dropped_span_fails_the_traced_run(ops):
    op = ops["scan-seq-json"]
    tracer = spans.Tracer()
    tracer.install()
    # A refactor that calls around the wrapper: cli goes back to the original.
    wrapped = cli.scan_grid
    cli.scan_grid = wrapped.__wrapped__
    try:
        assert cli.main(op.argv) == 0
    finally:
        cli.scan_grid = wrapped
        tracer.uninstall()
    with pytest.raises(spans.MissingLayerError, match="never called: inequality.scan_grid"):
        tracer.require(run._WRAPPED, run.REQUIRED["scan-json"])
    with pytest.raises(spans.MissingLayerError, match="no public function to wrap"):
        tracer.require({"inequality.renamed_scan"}, ())


def test_traced_spans_nest_and_count_work(ops):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(ops["scan-seq-json"].argv) == 0
    finally:
        tracer.uninstall()
    assert cli.scan_grid.__module__ == "eprb_lab.inequality" and not hasattr(cli.scan_grid, "__wrapped__")
    tracer.require(run._WRAPPED, run.REQUIRED["scan-json"])
    names = [s[0] for s in tracer.spans]
    scan = tracer.spans[names.index("inequality.scan_grid")]
    assert tracer.spans[scan[3]][0] == "cli.run"
    assert tracer.work["inequality.scan_cells"] == 36**3
    totals = tracer.totals()
    assert totals["cli.run"]["self_s"] <= totals["cli.run"]["busy_s"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(n, u) for n, u, _, _ in run.PER_LAYER]
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "run_s", "report_s", "peak_rss_mb"}
