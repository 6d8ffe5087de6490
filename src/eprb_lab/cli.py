"""Command-line interface: deterministic reports over the library.

Subcommands
-----------
- ``exact``: grand joint distribution, pair marginals, correlators, and
  the CHSH value of a sequential scenario.
- ``sample``: Monte Carlo tally of a sequential scenario plus empirical
  correlators.
- ``chsh-scan``: exhaustive grid evaluation of S for the config's mode.
- ``chsh-max``: the exact maximum of |S| for the config's mode, in closed
  form from the configured angles.
- ``hvm-check``: build the contextual model for a sequential scenario,
  verify factorizability, and compare its induced distribution against
  the exact one.
- ``joint-feasibility``: decide whether one joint distribution matches
  the scenario's four pairwise distributions.

Configuration is a JSON object file (``--config``); scalar fields can be
overridden by flags. Keys: ``mode`` ("sequential" or "eprb") and the four
analyzer angles ``a``, ``a_prime``, ``b``, ``b_prime`` in degrees are
required; ``step`` (grid step in degrees, default 10), ``n`` (sample
count, default 1000000), ``seed`` (default 0), ``format`` ("csv" or
"json", default "csv"), and ``out`` (output path, default stdout) are
optional. Unknown keys are rejected. The flags that were given replace
their keys in the document before it is checked, so a flag meets the same
rules and messages as the config key it overrides.

Angles are degrees at this boundary and radians everywhere inside the
library. Reports contain no timestamps or machine identifiers: a given
artifact version, subcommand, and configuration produce byte-identical
output. CSV numbers carry 17 significant digits, as ``%.17g`` writes them;
a scan's S column is computed exactly in numpy where 1e-4 <= |S| < 10,
and by ``%`` otherwise (``_number_lines``). JSON reports are strict
JSON: they never contain NaN or infinities. Reports are ASCII bytes; CSV
is rendered only when it is written, a line (for ``chsh-scan``, a slab) at
a time, so a scan's render holds one slab whatever the grid's size
(``_shard_lines``). A large ``chsh-scan`` CSV is rendered by shards in
children, for wall time (``_scan_csv_lines``).

Run as ``eprb-lab`` or as ``python -m eprb_lab.cli``.

Exit status: 0 success; 2 input error (bad flags, malformed config,
unwritable output, wrong mode for the subcommand), with a one-line
message; 3 sequential-mode bound violation (a defect signal, see
``chsh-scan``); 1 internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Generator, Iterable, Iterator

import numpy as np

from . import __version__
from ._shards import split
from .errors import BoundViolationError, ConfigError, EprbLabError, integer, real
from .hvm import (
    Verdict,
    build_contextual_model,
    check_factorizability,
    induced_distribution,
    noncontextual_feasibility,
    pair_targets_from_scenario,
)
from .inequality import (
    ANGLE_NAMES,
    ScanReport,
    chsh_report,
    maximize_chsh,
    scan_grid,
)
from .quantum import (
    CROSS_PAIRS,
    SETTINGS,
    Mode,
    OutcomeQuadruple,
    Scenario,
    closed_form_correlators,
    correlator_pair,
    grand_joint_quantum,
    marginal_pair,
)
from .sampler import COUNTS_CSV_HEADER, empirical_correlators, sample

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_BOUND_VIOLATION = 3

@dataclass(frozen=True)
class RunConfig:
    """One run's settings; angles and step are degrees."""

    mode: Mode
    a: float
    a_prime: float
    b: float
    b_prime: float
    step: float = 10.0
    n: int = 1_000_000
    seed: int = 0
    format: str = "csv"
    out: str | None = None

    def scenario(self) -> Scenario:
        angles = {name: math.radians(getattr(self, name)) for name in SETTINGS}
        return Scenario(**angles, mode=self.mode)

    def echo(self) -> dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["mode"] = self.mode.value
        return doc


_FIELDS = dataclasses.fields(RunConfig)
_REQUIRED_KEYS = tuple(f.name for f in _FIELDS if f.default is dataclasses.MISSING)
_DEFAULTS: dict[str, Any] = {
    f.name: f.default for f in _FIELDS if f.default is not dataclasses.MISSING
}


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Parse the JSON configuration document.

    ``overrides`` (the command-line flags that were given) replace their
    keys in the document before any check.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    doc.update(overrides or {})
    allowed = set(_REQUIRED_KEYS) | set(_DEFAULTS)
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown configuration key: {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ConfigError(f"missing configuration field: {key!r}")

    mode_raw = doc["mode"]
    try:
        mode = Mode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"field 'mode' must be 'sequential' or 'eprb', got {mode_raw!r}"
        ) from None

    merged = {**_DEFAULTS, **doc}
    step = real(merged["step"], "field 'step'", ConfigError)
    if step <= 0.0 or step > 360.0:
        raise ConfigError(f"field 'step' must be in (0, 360] degrees, got {step!r}")
    fmt = merged["format"]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"field 'format' must be 'csv' or 'json', got {fmt!r}")
    out = merged["out"]
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"field 'out' must be a string path or null, got {out!r}")

    return RunConfig(
        mode=mode,
        **{key: real(doc[key], f"field {key!r}", ConfigError) for key in SETTINGS},
        step=step,
        n=integer(merged["n"], "field 'n'", ConfigError),
        seed=integer(merged["seed"], "field 'seed'", ConfigError, high=2**64 - 1),
        format=fmt,
        out=out,
    )


@dataclass(frozen=True)
class Report:
    """A subcommand's result: payload plus full configuration echo."""

    version: str
    subcommand: str
    config: dict[str, Any]
    payload: dict[str, Any]

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "subcommand": self.subcommand,
            "config": self.config,
            "payload": self.payload,
        }
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


#: The one number format of CSV cells: 17 significant digits round-trip a float.
_NUMBER = "%.17g"


def _fmt(x: float) -> str:
    return _NUMBER % (x + 0.0)  # adding 0.0 turns -0.0 into 0.0


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value) if isinstance(value, float) else str(value)


def _csv_lines(header: str, rows: Iterable[Iterable[str]]) -> Generator[bytes, None, None]:
    """CSV lines as ASCII bytes; a row is formatted only when its line is read."""
    yield (header + "\n").encode("ascii")
    for cells in rows:
        yield (",".join(cells) + "\n").encode("ascii")


#: A payload builder returns the JSON payload and the CSV lines, unread.
_Payload = tuple[dict[str, Any], Generator[bytes, None, None]]


def _payload_exact(config: RunConfig) -> _Payload:
    scenario = config.scenario()
    distribution = grand_joint_quantum(scenario)
    pairs = {
        ",".join(pair): marginal_pair(distribution, pair) for pair in CROSS_PAIRS.values()
    }
    correlators = closed_form_correlators(scenario)
    report = chsh_report(correlators)
    payload = {
        "distribution": [{**q._asdict(), "probability": p} for q, p in distribution.items()],
        "pair_marginals": {k: list(v.probs) for k, v in pairs.items()},
        "pair_correlators": {k: correlator_pair(v) for k, v in pairs.items()},
        "correlators": correlators.as_dict(),
        "s_value": report.s_value,
        "bound_satisfied": report.bound_satisfied,
    }
    rows = (map(_cell, (*q, p)) for q, p in distribution.items())
    return payload, _csv_lines(",".join((*OutcomeQuadruple._fields, "probability")), rows)


def _payload_sample(config: RunConfig) -> _Payload:
    scenario = config.scenario()
    distribution = grand_joint_quantum(scenario)
    counts = sample(distribution, config.n, config.seed)
    payload: dict[str, Any] = {
        "counts": list(counts.counts),
        "n": counts.n,
        "seed": counts.seed,
    }
    if counts.n > 0:
        estimated = empirical_correlators(counts)
        payload["estimates"] = estimated.estimates.as_dict()
        payload["std_errors"] = dict(zip(payload["estimates"], estimated.std_errors))
    return payload, _csv_lines(COUNTS_CSV_HEADER, [map(_cell, (*counts.counts, counts.n))])


_SCAN_COLUMNS = {mode: tuple(f"{n}_deg" for n in names) for mode, names in ANGLE_NAMES.items()}


#: Values per chunk of ``_number_lines``; larger chunks raise the renderer's
#: peak memory (``test_renderer_peak_memory``) more than they save time.
_NUMBER_CHUNK = 1 << 13


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half of 26 bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _number_tables() -> tuple[np.ndarray, ...]:
    """The tables of ``_number_chunk``, built on first use.

    - ``pow10``: 10**k for k from 0 to 22, all exact (5**22 < 2**53), then
      its two ``_halves`` for Dekker's exact product;
    - ``prefix``: what ``%g`` writes before the first significant digit,
      by exponent -4 to 0, in bytes 1-5 of an 8-byte word;
    - ``groups``: four digits as 4 bytes, ``%04d`` of g at g, and with its
      trailing zeros turned to NUL at 10000 + g.

    A process that formats no scan S builds none of them. Built at
    import, they raised the peak memory of every run of the program, scan
    or not, by up to 1.3 MiB.
    """
    pow10 = 10.0 ** np.arange(23)
    prefix = np.array(
        [b"\0" + p.ljust(7, b"\0") for p in (b"0.000", b"0.00", b"0.0", b"0.", b"")]
    ).view(np.uint64)
    powers = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = np.arange(10_000, dtype=np.int16)[:, None] // powers % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    text = (digits + ord("0")).astype(np.uint8)
    groups = np.concatenate([text, np.where(trailing, 0, text).astype(np.uint8)])
    return (pow10, *_halves(pow10), prefix, groups.view(np.uint32).ravel())


def _rounded(a: np.ndarray, a_hi: np.ndarray, a_lo: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``a * 10**k`` rounded half to even, as int64; exact where it is >= 2**53.

    Dekker's two-product gives ``a * 10**k == p + err`` exactly with
    ``p = fl(a * 10**k)``. From 2**53 up, ``p`` is an even integer, so the
    rounded product is ``p + rint(err)`` (``rint`` rounds ties to even).
    """
    pow10, pow10_hi, pow10_lo, _, _ = _number_tables()
    c_hi, c_lo = pow10_hi[k], pow10_lo[k]
    p = a * pow10[k]
    err = ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _number_chunk(x: np.ndarray) -> list[str]:
    """``_fmt(v) + "\\n"`` for each value of ``x``.

    For 1e-4 <= |v| < 10 after rounding, ``%.17g`` writes fixed notation:
    the 17 digits of N = round(|v| * 10**(16 - E)), E the decimal exponent
    of the rounded value, with trailing zeros and a bare point dropped.
    N is computed exactly (``_rounded``): E is first taken from ``log10``,
    which can be one off near a power of ten, and where N then falls
    outside [10**16, 10**17) it is computed once more with E moved by one.
    That also carries a value that rounds up to the next power of ten.

    Each value is laid out in a 32-byte row, NUL where no character goes:
    sign, ``prefix``, first digit, point, four digit ``groups``, newline.
    Every other value (zero, |v| < 1e-4 after rounding, |v| >= 10,
    non-finite) goes through ``%``, and its line fills its row. Dropping
    the NULs leaves the lines.
    """
    a = np.abs(x)
    # Below 9e-5 every value rounds under 1e-4. The guess of E is then -5 to
    # 1, and with its one correction 16 - E stays within the powers of 10.
    fixed = (a >= 9e-5) & (a < 10.0)
    a = np.where(fixed, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    a_hi, a_lo = _halves(a)
    n = _rounded(a, a_hi, a_lo, 16 - e)
    low, high = n < 10**16, n >= 10**17
    e += high.astype(np.int64) - low
    redo = np.flatnonzero(low | high)
    n[redo] = _rounded(a[redo], a_hi[redo], a_lo[redo], 16 - e[redo])
    fixed &= (e >= -4) & (e <= 0)

    hi, lo = np.divmod(n, 10**8)
    first, hi = np.divmod(hi, 10**8)
    groups = (*np.divmod(hi, 10**4), *np.divmod(lo, 10**4))
    rows = np.zeros((len(x), 32), dtype=np.uint8)
    _, _, _, prefix, group_text = _number_tables()
    rows.view(np.uint64)[:, 0] = prefix.take(e + 4, mode="clip")
    rows[:, 0] = np.where(x < 0.0, ord("-"), 0)
    rows[:, 6] = first + ord("0")
    digits = rows.view(np.uint32)[:, 2:6]  # bytes 8-23
    zeros_after = np.ones(len(x), dtype=bool)  # all digits after group i are 0
    for i in (3, 2, 1, 0):
        digits[:, i] = group_text[groups[i] + 10_000 * zeros_after]
        zeros_after &= groups[i] == 0
    rows[:, 7] = np.where((e == 0) & ~zeros_after, ord("."), 0)
    rows[:, 24] = ord("\n")

    other = (x[~fixed] + 0.0).tolist()  # adding 0.0 as in _fmt
    if other:
        text = ((_NUMBER + "\n") * len(other)) % tuple(other)
        rows.view("S32")[~fixed, 0] = text.splitlines(keepends=True)
    return rows[rows != 0].tobytes().decode("ascii").splitlines(keepends=True)


def _number_lines(values: np.ndarray) -> np.ndarray:
    """``_fmt(x) + "\\n"`` for each value, as an object array.

    The text is made ``_NUMBER_CHUNK`` values at a time (``_number_chunk``),
    in numpy where |x| is from 1e-4 to 10 and by ``%`` otherwise, so the
    buffers and strings of only one chunk live at a time.
    """
    lines = np.empty(len(values), dtype=object)
    for i in range(0, len(values), _NUMBER_CHUNK):
        lines[i : i + _NUMBER_CHUNK] = _number_chunk(values[i : i + _NUMBER_CHUNK])
    return lines


#: Fewest cells worth a render shard in a child process: rendering them
#: takes 0.03 s (EPRB) to 0.06 s (sequential), against about 2 ms to fork
#: and reap a child and 16-19 ms to copy its 19 MB of lines to an output file.
_MIN_SHARD_CELLS = 1 << 18


def _shard_lines(report: ScanReport, axis_text: list[str], lo: int, hi: int) -> Iterator[bytes]:
    """The CSV rows of slabs ``lo`` to ``hi - 1``, a slab of ASCII lines at a time.

    A slab is the cells that share one value of the first angle, in cell
    order, and is the render's unit of work: only one slab's buffers live
    at a time. The text of its other angles, the tail, is the same in every
    slab and is joined once; each axis value is formatted once, in
    ``axis_text``. A slab's distinct S values (``np.unique``) are formatted
    once each (``_number_lines``), and its S column is gathered from them
    by index. A line joins the strings of its cell; the bytes equal those
    of the per-cell row ``_fmt(math.degrees(angle))``, ..., ``_fmt(float(s))``.
    """
    k = len(_SCAN_COLUMNS[report.mode])
    slab = len(axis_text) ** (k - 1)
    parts = [""] * (3 * slab)  # per line: head, tail, S
    parts[1::3] = [",".join(tail) + "," for tail in itertools.product(axis_text, repeat=k - 1)]
    for i in range(lo, hi):
        s_values = report.s_values[i * slab : (i + 1) * slab]
        distinct, inverse = np.unique(s_values, return_inverse=True)
        parts[0::3] = [axis_text[i] + ","] * slab
        parts[2::3] = _number_lines(distinct)[inverse].tolist()
        yield "".join(parts).encode("ascii")


def _scan_csv_lines(report: ScanReport) -> Generator[bytes, None, None]:
    """The header, then a scan's CSV rows a slab at a time, as ASCII bytes.

    Once the header is read, the slabs are rendered (``_shard_lines``) in
    contiguous shards (``_shards.split``) of at least ``_MIN_SHARD_CELLS``
    cells. Shard 0, and any shard whose child fails, is rendered here as it
    is read; a child's output goes to the reader in the chunks read from it.
    """
    columns = _SCAN_COLUMNS[report.mode]
    yield (",".join(columns) + ",s\n").encode("ascii")
    axis_text = [_fmt(math.degrees(v)) for v in report.axis]

    def task(lo: int, hi: int, sink: BinaryIO) -> None:
        sink.writelines(_shard_lines(report, axis_text, lo, hi))

    min_slabs = math.ceil(_MIN_SHARD_CELLS / len(axis_text) ** (len(columns) - 1))
    with contextlib.closing(split(len(axis_text), min_slabs, task)) as shards:
        for lo, hi, output in shards:
            yield from output or _shard_lines(report, axis_text, lo, hi)


def _payload_chsh_scan(config: RunConfig) -> _Payload:
    report = scan_grid(config.mode, math.radians(config.step))
    payload = {
        "mode": config.mode.value,
        "step_deg": config.step,
        "n_cells": report.n_cells,
        "max_abs_s": report.max_abs_s,
        "argmax_deg": [math.degrees(v) for v in report.argmax_angles],
        "bound_satisfied": True,
    }
    return payload, _scan_csv_lines(report)


def _payload_chsh_max(config: RunConfig) -> _Payload:
    scenario = config.scenario()
    init = [getattr(scenario, name) for name in ANGLE_NAMES[config.mode]]
    report = maximize_chsh(config.mode, init_angles=init)
    angles_deg = [math.degrees(v) for v in report.angles]
    payload = {
        "mode": config.mode.value,
        "optimal_angles_deg": angles_deg,
        "s_value": report.s_value,
        "abs_s": report.abs_s,
        "iterations": report.iterations,
        "grad_norm": report.grad_norm,
        "converged": report.converged,
    }
    tail = ("s_value", "abs_s", "iterations", "grad_norm", "converged")
    header = ",".join((*_SCAN_COLUMNS[config.mode], *tail))
    row = (*angles_deg, *(payload[key] for key in tail))
    return payload, _csv_lines(header, [map(_cell, row)])


def _payload_hvm_check(config: RunConfig) -> _Payload:
    scenario = config.scenario()
    model = build_contextual_model(scenario)
    fact = check_factorizability(model)
    exact = grand_joint_quantum(scenario)
    induced = induced_distribution(model)
    reconstruction_dev = max(
        abs(p - q) for p, q in zip(induced.probs, exact.probs)
    )
    passed = fact.passed and reconstruction_dev <= 1e-12
    payload = {
        "atom_ids": list(model.atom_ids),
        "weights": list(model.table("weights")),
        "context": model.context.as_dict(),
        "factorizability": dataclasses.asdict(fact),
        "reconstruction_max_deviation": reconstruction_dev,
        "passed": passed,
    }
    header = (
        "passed,factorizability_passed,factorizability_max_deviation,"
        "reconstruction_max_deviation"
    )
    row = (passed, fact.passed, fact.max_deviation, reconstruction_dev)
    return payload, _csv_lines(header, [map(_cell, row)])


def _payload_joint_feasibility(config: RunConfig) -> _Payload:
    scenario = config.scenario()
    targets = pair_targets_from_scenario(scenario)
    result = noncontextual_feasibility(targets)
    payload: dict[str, Any] = {
        "verdict": result.verdict.value,
        "target_correlators": targets.correlators().as_dict(),
    }
    if result.verdict is Verdict.FEASIBLE:
        payload["witness"] = list(result.joint.probs)
        payload["certificate"] = None
        row = (result.verdict.value, "", "", "", "", "")
    else:
        payload["witness"] = None
        payload["certificate"] = {
            "signs": list(result.certificate.signs),
            "value": result.certificate.value,
        }
        row = (result.verdict.value, *result.certificate.signs, result.certificate.value)
    header = ",".join(("verdict", *(f"sign_{pair}" for pair in CROSS_PAIRS), "certificate_value"))
    return payload, _csv_lines(header, [map(_cell, row)])


_PAYLOAD_BUILDERS: dict[str, Callable[[RunConfig], _Payload]] = {
    "exact": _payload_exact,
    "sample": _payload_sample,
    "chsh-scan": _payload_chsh_scan,
    "chsh-max": _payload_chsh_max,
    "hvm-check": _payload_hvm_check,
    "joint-feasibility": _payload_joint_feasibility,
}

SUBCOMMANDS = tuple(_PAYLOAD_BUILDERS)


def run(subcommand: str, config: RunConfig) -> Report:
    """Execute a subcommand, write its report, and return it.

    The JSON report and the CSV lines are the two outputs; only the one
    asked for is rendered, and CSV goes to the output as it is formatted.
    """
    if subcommand not in _PAYLOAD_BUILDERS:
        raise ConfigError(f"unknown subcommand: {subcommand!r}")
    payload, csv_lines = _PAYLOAD_BUILDERS[subcommand](config)
    report = Report(
        version=__version__,
        subcommand=subcommand,
        config=config.echo(),
        payload=payload,
    )
    lines = [report.to_json().encode("ascii")] if config.format == "json" else csv_lines
    # Closing the CSV lines ends a scan's render children, also when a write fails.
    with contextlib.closing(csv_lines):
        try:
            if config.out is not None:
                with open(config.out, "wb") as handle:
                    handle.writelines(lines)
            elif hasattr(sys.stdout, "buffer"):  # written after what its text layer holds
                sys.stdout.flush()
                sys.stdout.buffer.writelines(lines)
                sys.stdout.buffer.flush()
            else:  # a text-only stream, such as io.StringIO
                sys.stdout.writelines(line.decode("ascii") for line in lines)
        except OSError as exc:  # also a reader that closed the pipe early
            target = "standard output" if config.out is None else f"output path {config.out!r}"
            raise ConfigError(f"cannot write {target}: {exc}") from exc
    return report


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        """Exit 2 with a one-line message, like every other input error."""
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves no state in it."""
    parser = _Parser(
        prog="eprb-lab",
        description="Exact statistics, CHSH scans, and hidden-variable "
        "feasibility for a two-time EPRB experiment.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=f"run the {name} computation")
        sub.add_argument("--config", required=True, help="path to the JSON configuration")
        sub.add_argument("--out", help="output path (default: stdout)")
        sub.add_argument("--format", choices=("csv", "json"), help="output format")
        sub.add_argument("--seed", type=int, help="override the sampling seed")
        sub.add_argument("--step", type=float, help="override the grid step (degrees)")
        sub.add_argument("--n", type=int, help="override the sample count")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {args.config!r}: {exc}") from exc
    # Every optional config key has a flag of the same name.
    overrides = {key: getattr(args, key) for key in _DEFAULTS if getattr(args, key) is not None}
    return parse_config(text, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        run(args.subcommand, config)
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    except EprbLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal failure: anything unforeseen
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
