"""Every report checked against the benchmark's independent reference.

``perfbench/checks.py`` recomputes each report from the physics and the
README contract without importing the package. Here Hypothesis draws
configs over all six subcommands and both formats, with edge angles (0,
+-90, just below 360, multi-turn values, b = a), sample counts from 0 to
2*10^4 and coarse scan steps, and runs each through ``cli.main``:

- a run that exits 0 must pass ``Checker.check``; a sequential sample
  also replays its tally from the exact report of the same config;
- a run that exits 2 must write one line to stderr, and only for a case
  in ``REFUSED``.

The checker divides by ``n`` for a JSON sample's estimates, so an
``n = 0`` JSON sample is checked here instead: every count is 0, and the
report has no estimates.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from eprb_lab.cli import EXIT_INPUT, EXIT_OK, SUBCOMMANDS, main  # noqa: E402

#: (mode, subcommand) pairs the program refuses with exit 2: the EPRB
#: limit has no grand joint to report, sample or reconstruct.
REFUSED = {("eprb", "exact"), ("eprb", "sample"), ("eprb", "hvm-check")}

EDGE_ANGLES = (0.0, 90.0, -90.0, 360.0 - 1e-6, 720.5, -1080.25, 3600.0)
angles = st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(-1000.0, 1000.0))
#: At most 18**4 EPRB rows, which the checker parses in well under a second.
steps = st.one_of(st.sampled_from((20.0, 45.0, 100.0, 120.0)), st.floats(20.0, 120.0))


@st.composite
def configs(draw, subcommand: str, fmt: str) -> dict:
    config = {"mode": draw(st.sampled_from(("sequential", "eprb")))}
    config.update({name: draw(angles) for name in ("a", "a_prime", "b", "b_prime")})
    if draw(st.booleans()):
        config["b"] = config["a"]
    if subcommand == "chsh-scan":
        config["step"] = draw(steps)
    if subcommand == "sample":
        config["n"] = draw(st.one_of(st.just(0), st.integers(1, 20_000)))
        config["seed"] = draw(st.integers(0, 2**64 - 1))
    return {**config, "format": fmt}


def _run(op) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(op.argv)
    return code, stderr.getvalue()


def _check_empty_sample(op) -> None:
    payload = json.loads(op.out.read_text(encoding="utf-8"))["payload"]
    assert payload["counts"] == [0] * 16 and payload["n"] == 0
    assert "estimates" not in payload and "std_errors" not in payload


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_report_passes_the_reference_check(subcommand, fmt, tmp_path_factory):
    @given(configs(subcommand, fmt))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(config):
        work = tmp_path_factory.mktemp(subcommand)
        ref = None
        if subcommand == "sample" and config["mode"] == "sequential" and config["n"] > 0:
            exact = workloads.write_op(work, "exact", "exact", {**config, "format": "json"})
            assert _run(exact) == (EXIT_OK, "")
            ref = "exact"
        op = workloads.write_op(work, "report", subcommand, config, ref)
        code, stderr = _run(op)
        if (config["mode"], subcommand) in REFUSED:
            assert code == EXIT_INPUT and not op.out.exists()
            assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        elif subcommand == "sample" and config["n"] == 0 and fmt == "json":
            assert (code, stderr) == (EXIT_OK, "")
            _check_empty_sample(op)
        else:
            assert (code, stderr) == (EXIT_OK, "")
            checks.Checker().check(op)

    check()
