"""Reference checks for every report the benchmark asks for.

Nothing here imports eprb_lab: each expected value is computed from the
physics or from the README contract, apart from the program.

- ``exact``: the product formula for the 16 probabilities,
  (1 - a1*b1*cos(a-b))/4 * (1 + a1*a2*cos(a-a'))/2 * (1 + b1*b2*cos(b-b'))/2.
- ``chsh-scan``: the grid, and S on every row from the EPRB and the
  sequential closed forms; the JSON maximum from an independent grid.
  Later rounds of a run must reproduce the checked CSV byte for byte.
- ``chsh-max``: Tsirelson's bound 2*sqrt(2) (Lett. Math. Phys. 4, 93,
  1980) in EPRB mode and 2 in sequential mode.
- ``sample``: counts within 5 sigma of n*p (exact Poisson tails at the
  same rate where fewer than 25 draws make the variance), no draw in a
  zero cell, and one small tally replayed bit for bit by a pure-Python
  splitmix64.
- ``hvm-check``: the atom weights, and deviations of at most 1e-12.
- ``joint-feasibility``: Fine's eight CHSH inequalities (PRL 48, 291,
  1982) for the verdict, the certificate and the witness marginals.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)
#: Tolerance for a value the program computes in closed form.
TOL = 1e-12
#: Tolerance for a bound, an optimum or an LP solution.
LOOSE = 1e-9
#: One tail of a 5-sigma normal deviation, about 2.9e-7.
FIVE_SIGMA_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
#: Rows of a scan CSV parsed at a time, which keeps the check's memory small.
CHUNK_ROWS = 100_000

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
#: Outcomes (a1, b1, a2, b2), +1 before -1, the last one fastest.
QUADRUPLES = tuple(itertools.product((1, -1), repeat=4))
#: Quadruple slots of the four cross pairs, in correlator order:
#: (A1, B1), (A1, B2), (A2, B1), (A2, B2).
PAIRS = (("A1,B1", 0, 1), ("A1,B2", 0, 3), ("A2,B1", 2, 1), ("A2,B2", 2, 3))
CORRELATOR_KEYS = ("e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime")
#: Fine's eight CHSH sign variants: the sign patterns with product -1.
CHSH_VARIANTS = tuple(s for s in itertools.product((1, -1), repeat=4) if math.prod(s) == -1)
SCAN_COLUMNS = {
    "sequential": ("theta_ab_deg", "theta_aa_prime_deg", "theta_bb_prime_deg"),
    "eprb": ("a_deg", "a_prime_deg", "b_deg", "b_prime_deg"),
}
BOUNDS = {"sequential": 2.0, "eprb": TSIRELSON}
_CHSH_MAX_TAIL = ("s_value", "abs_s", "iterations", "grad_norm", "converged")


class CheckError(Exception):
    """A report that disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _reject_constant(name: str):
    raise CheckError(f"report holds {name}, which is not valid JSON")


def _angles(config: dict) -> tuple[float, float, float, float]:
    return tuple(math.radians(config[k]) for k in ("a", "a_prime", "b", "b_prime"))


def _sequential_correlators(c_ab: float, c_aa: float, c_bb: float) -> tuple[float, ...]:
    # E[A2 | A1] = A1*cos(a-a') and E[B2 | B1] = B1*cos(b-b').
    return (-c_ab, -c_ab * c_bb, -c_ab * c_aa, -c_ab * c_aa * c_bb)


def correlators(config: dict) -> tuple[float, ...]:
    """(e_ab, e_ab', e_a'b, e_a'b') of the configured scenario."""
    a, ap, b, bp = _angles(config)
    if config["mode"] == "sequential":
        return _sequential_correlators(math.cos(a - b), math.cos(a - ap), math.cos(b - bp))
    return (-math.cos(a - b), -math.cos(a - bp), -math.cos(ap - b), -math.cos(ap - bp))


def chsh(e) -> float:
    return e[0] + e[1] - e[2] + e[3]


def exact_probabilities(config: dict) -> list[float]:
    a, ap, b, bp = _angles(config)
    c_ab, c_aa, c_bb = math.cos(a - b), math.cos(a - ap), math.cos(b - bp)
    return [
        (1 - a1 * b1 * c_ab) / 4 * (1 + a1 * a2 * c_aa) / 2 * (1 + b1 * b2 * c_bb) / 2
        for a1, b1, a2, b2 in QUADRUPLES
    ]


def pair_probabilities(config: dict) -> dict[str, list[float]]:
    """The four cross-pair distributions over SIGN_PAIRS."""
    if config["mode"] == "sequential":
        probs = exact_probabilities(config)
        return {
            label: [
                math.fsum(p for q, p in zip(QUADRUPLES, probs) if (q[i], q[j]) == pair)
                for pair in SIGN_PAIRS
            ]
            for label, i, j in PAIRS
        }
    return {
        label: [(1 + s1 * s2 * e) / 4 for s1, s2 in SIGN_PAIRS]
        for (label, _, _), e in zip(PAIRS, correlators(config))
    }


def splitmix_tally(probs, seed: int, n: int) -> list[int]:
    """The README sampler contract in plain Python integers."""
    mask = 2**64 - 1
    cdf = list(itertools.accumulate(probs))
    counts = [0] * 16
    for i in range(n):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        counts[min(bisect.bisect_right(cdf, (z >> 11) * 2.0**-53), 15)] += 1
    return counts


def _plausible_count(c: int, n: int, p: float) -> bool:
    """Whether a Binomial(n, p) count ``c`` lies within 5 sigma of n*p.

    Where the variance is below 25 the normal approximation fails: a cell
    expecting 0.2 draws would fail on 3, which happens once in 1,600
    cells. There the exact Poisson tails decide, at the 5-sigma rate.
    """
    if p > 0.5:
        c, p = n - c, 1.0 - p
    variance = n * p * (1.0 - p)
    if variance >= 25.0:
        return abs(c - n * p) <= 5.0 * math.sqrt(variance)
    if c > 200:  # the mean is below 50 here
        return False
    lam = n * p
    terms = [math.exp(-lam)]
    for k in range(1, c + 1):
        terms.append(terms[-1] * lam / k)
    below = math.fsum(terms)  # P(X <= c)
    above = 1.0 - math.fsum(terms[:-1])  # P(X >= c)
    return min(below, above) >= FIVE_SIGMA_TAIL


def _bool(cell: str) -> bool:
    _require(cell in ("true", "false"), f"not a CSV boolean: {cell!r}")
    return cell == "true"


def _csv(text: str, header: str, rows: int) -> list[list[str]]:
    lines = text.split("\n")
    _require(lines[-1] == "", "CSV does not end with a newline")
    _require(lines[0] == header, f"CSV header {lines[0]!r}, want {header!r}")
    _require(len(lines) == rows + 2, f"CSV has {len(lines) - 2} rows, want {rows}")
    return [line.split(",") for line in lines[1:-1]]


def _json(text: str, op) -> dict:
    doc = json.loads(text, parse_constant=_reject_constant)
    _require(doc["subcommand"] == op.subcommand, f"subcommand {doc['subcommand']!r}")
    for key, value in op.config.items():
        _require(doc["config"][key] == value, f"config echo {key}={doc['config'][key]!r}")
    return doc["payload"]


def _check_exact(op, text: str) -> None:
    want = exact_probabilities(op.config)
    if op.format == "csv":
        for row, q, p in zip(_csv(text, "a1,b1,a2,b2,probability", 16), QUADRUPLES, want):
            _require(tuple(int(c) for c in row[:4]) == q, f"row order {row}")
            _close(float(row[4]), p, TOL, f"P{q}")
        return
    payload = _json(text, op)
    _require(len(payload["distribution"]) == 16, "distribution does not have 16 cells")
    for cell, q, p in zip(payload["distribution"], QUADRUPLES, want):
        _require((cell["a1"], cell["b1"], cell["a2"], cell["b2"]) == q, f"cell order {cell}")
        _close(cell["probability"], p, TOL, f"P{q}")
    for label, probs in pair_probabilities(op.config).items():
        for got, p in zip(payload["pair_marginals"][label], probs):
            _close(got, p, TOL, f"marginal {label}")
    e = correlators(op.config)
    for key, value in zip(CORRELATOR_KEYS, e):
        _close(payload["correlators"][key], value, TOL, key)
    _close(payload["s_value"], chsh(e), TOL, "S")
    _require(payload["bound_satisfied"] is True, "bound_satisfied is not true")


def _check_sample(op, text: str) -> None:
    n = op.config["n"]
    if op.format == "csv":
        labels = ["".join("+" if s == 1 else "-" for s in q) for q in QUADRUPLES]
        (row,) = _csv(text, ",".join(labels + ["n"]), 1)
        counts = [int(c) for c in row[:16]]
        _require(len(row) == 17 and int(row[16]) == n, f"n cell {row[16:]}")
    else:
        payload = _json(text, op)
        counts = payload["counts"]
        _require(payload["n"] == n and payload["seed"] == op.config["seed"], "n or seed echo")
        for key, (_, i, j) in zip(CORRELATOR_KEYS, PAIRS):
            e = sum(c * q[i] * q[j] for c, q in zip(counts, QUADRUPLES)) / n
            _close(payload["estimates"][key], e, TOL, f"estimate {key}")
            _close(payload["std_errors"][key], math.sqrt(max(0.0, 1.0 - e * e) / n), TOL, f"std error {key}")
    _require(len(counts) == 16 and sum(counts) == n, f"counts sum to {sum(counts)}, want {n}")
    for q, c, p in zip(QUADRUPLES, counts, exact_probabilities(op.config)):
        if p == 0.0:
            _require(c == 0, f"{c} draws in the zero-probability cell {q}")
        else:
            _require(_plausible_count(c, n, p), f"cell {q}: {c} draws, n*p = {n * p:.3g}")
    if op.ref is not None:
        exact = json.loads(op.ref.read_text(encoding="utf-8"))["payload"]["distribution"]
        probs = [cell["probability"] for cell in exact]
        replay = splitmix_tally(probs, op.config["seed"], n)
        _require(counts == replay, f"tally {counts} differs from the splitmix64 replay {replay}")


def _check_chsh_max(op, text: str) -> None:
    mode = op.config["mode"]
    if op.format == "csv":
        header = ",".join(SCAN_COLUMNS[mode] + _CHSH_MAX_TAIL)
        (row,) = _csv(text, header, 1)
        k = len(SCAN_COLUMNS[mode])
        angles = [float(c) for c in row[:k]]
        s, abs_s, _, grad_norm = (float(c) for c in row[k : k + 4])
        converged = _bool(row[k + 4])
    else:
        payload = _json(text, op)
        _require(payload["mode"] == mode, f"mode {payload['mode']!r}")
        angles = payload["optimal_angles_deg"]
        s, abs_s = payload["s_value"], payload["abs_s"]
        grad_norm, converged = payload["grad_norm"], payload["converged"]
    _require(converged is True, "optimiser did not converge")
    _require(grad_norm <= LOOSE, f"gradient norm {grad_norm!r}")
    _close(abs_s, BOUNDS[mode], LOOSE, "max |S|")
    _close(abs(s), abs_s, 0.0, "|s_value|")
    x = [math.radians(v) for v in angles]
    if mode == "sequential":
        e = _sequential_correlators(*(math.cos(v) for v in x))
    else:
        e = correlators({"mode": mode, **dict(zip(("a", "a_prime", "b", "b_prime"), angles))})
    _close(chsh(e), s, LOOSE, "S at the reported angles")


def _check_hvm(op, text: str) -> None:
    if op.format == "csv":
        header = "passed,factorizability_passed,factorizability_max_deviation,reconstruction_max_deviation"
        (row,) = _csv(text, header, 1)
        passed, fact_passed = _bool(row[0]), _bool(row[1])
        fact_dev, recon_dev = float(row[2]), float(row[3])
    else:
        payload = _json(text, op)
        passed, recon_dev = payload["passed"], payload["reconstruction_max_deviation"]
        fact_passed = payload["factorizability"]["passed"]
        fact_dev = payload["factorizability"]["max_deviation"]
        a, _, b, _ = _angles(op.config)
        c_ab = math.cos(a - b)
        _require(payload["atom_ids"] == ["++", "+-", "-+", "--"], "atom ids")
        for w, (alpha, beta) in zip(payload["weights"], SIGN_PAIRS):
            _close(w, (1 - alpha * beta * c_ab) / 4, TOL, f"weight of atom {alpha:+d}{beta:+d}")
    _require(passed is True and fact_passed is True, "model check did not pass")
    _require(0.0 <= fact_dev <= TOL, f"factorizability deviation {fact_dev!r}")
    _require(0.0 <= recon_dev <= TOL, f"reconstruction deviation {recon_dev!r}")


def _check_feasibility(op, text: str) -> None:
    e = correlators(op.config)
    values = {signs: math.fsum(s * v for s, v in zip(signs, e)) for signs in CHSH_VARIANTS}
    top = max(values.values())
    if op.format == "csv":
        header = "verdict,sign_ab,sign_ab_prime,sign_a_prime_b,sign_a_prime_b_prime,certificate_value"
        (row,) = _csv(text, header, 1)
        _require(len(row) == 6, f"row {row}")
        verdict = row[0]
        if verdict == "feasible":
            _require(row[1:] == [""] * 5, f"feasible row with a certificate: {row}")
            certificate = None
        else:
            certificate = {"signs": [int(c) for c in row[1:5]], "value": float(row[5])}
    else:
        payload = _json(text, op)
        verdict, certificate = payload["verdict"], payload["certificate"]
        for key, value in zip(CORRELATOR_KEYS, e):
            _close(payload["target_correlators"][key], value, TOL, f"target {key}")
        witness = payload["witness"]
        _require((witness is None) == (verdict == "infeasible"), "witness does not match the verdict")
        if witness is not None:
            _require(len(witness) == 16 and min(witness) >= -TOL, "witness is not a distribution")
            _close(math.fsum(witness), 1.0, LOOSE, "witness total")
            for (label, i, j), target in zip(PAIRS, pair_probabilities(op.config).values()):
                for pair, p in zip(SIGN_PAIRS, target):
                    got = math.fsum(w for q, w in zip(QUADRUPLES, witness) if (q[i], q[j]) == pair)
                    _close(got, p, LOOSE, f"witness marginal {label} {pair}")
    # Fine: a joint exists iff all eight CHSH variants stay within 2.
    if top > 2.0 + LOOSE:
        _require(verdict == "infeasible", f"verdict {verdict!r}, but a CHSH variant reaches {top!r}")
    elif top < 2.0 - LOOSE:
        _require(verdict == "feasible", f"verdict {verdict!r}, but every CHSH variant is at most {top!r}")
    if verdict == "infeasible":
        signs = tuple(certificate["signs"])
        _require(signs in values, f"certificate signs {signs} are not a CHSH variant")
        _close(certificate["value"], values[signs], TOL, "certificate value")
        _close(certificate["value"], top, TOL, "certificate is the largest variant")
        _require(certificate["value"] > 2.0, "certificate does not exceed 2")
    else:
        _require(verdict == "feasible" and certificate is None, f"verdict {verdict!r}")


def grid_axis(step: float) -> np.ndarray:
    """Multiples of ``step`` (degrees) in [0, 360)."""
    ratio = 360.0 / step
    m = round(ratio) if abs(ratio - round(ratio)) < 1e-9 else math.ceil(ratio)
    return step * np.arange(m)


def scan_s(mode: str, columns_deg) -> np.ndarray:
    """S from the grid columns, in degrees, by the mode's closed form."""
    x = [np.radians(c) for c in columns_deg]
    if mode == "sequential":
        e = _sequential_correlators(*(np.cos(v) for v in x))
    else:
        a, ap, b, bp = x
        e = (-np.cos(a - b), -np.cos(a - bp), -np.cos(ap - b), -np.cos(ap - bp))
    return chsh(e)


def grid_max(mode: str, step: float) -> float:
    axis = grid_axis(step)
    k = len(SCAN_COLUMNS[mode])
    cols = [axis.reshape([-1 if i == j else 1 for i in range(k)]) for j in range(k)]
    return float(np.abs(scan_s(mode, cols)).max())


class Checker:
    """Checks reports; remembers what a scan CSV must hash to."""

    def __init__(self) -> None:
        self._scan_hash: dict[str, str] = {}
        self._grid_max: dict[tuple[str, float], float] = {}

    def check(self, op) -> None:
        """Raise CheckError unless ``op``'s output matches its reference."""
        try:
            if op.subcommand == "chsh-scan" and op.format == "csv":
                self._check_scan_csv(op)
                return
            text = op.out.read_text(encoding="utf-8")
            if op.subcommand == "chsh-scan":
                self._check_scan_json(op, text)
            else:
                _CHECKS[op.subcommand](op, text)
        except CheckError as exc:
            raise CheckError(f"{op.name}: {exc}") from None
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise CheckError(f"{op.name}: malformed report: {exc!r}") from None

    def _check_scan_json(self, op, text: str) -> None:
        mode, step = op.config["mode"], op.config["step"]
        key = (mode, step)
        if key not in self._grid_max:
            self._grid_max[key] = grid_max(mode, step)
        want = self._grid_max[key]
        payload = _json(text, op)
        k = len(SCAN_COLUMNS[mode])
        _require(payload["mode"] == mode and payload["step_deg"] == step, "mode or step echo")
        _require(payload["n_cells"] == len(grid_axis(step)) ** k, f"n_cells {payload['n_cells']}")
        _close(payload["max_abs_s"], want, TOL, "max |S| over the grid")
        _require(want <= BOUNDS[mode] + LOOSE, f"grid maximum {want!r} above the {mode} bound")
        argmax = [np.array([v]) for v in payload["argmax_deg"]]
        _require(len(argmax) == k, "argmax has the wrong length")
        _close(abs(float(scan_s(mode, argmax)[0])), want, LOOSE, "|S| at the argmax")
        _require(payload["bound_satisfied"] is True, "bound_satisfied is not true")

    def _check_scan_csv(self, op) -> None:
        digest = hashlib.sha256()
        if op.name in self._scan_hash:
            with open(op.out, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 22), b""):
                    digest.update(block)
            _require(digest.hexdigest() == self._scan_hash[op.name], "CSV differs from the checked round")
            return
        mode, step = op.config["mode"], op.config["step"]
        axis = grid_axis(step)
        columns = SCAN_COLUMNS[mode]
        shape = (len(axis),) * len(columns)
        cells = math.prod(shape)
        bound = BOUNDS[mode] + LOOSE
        rows = 0
        with open(op.out, "rb") as handle:
            header = handle.readline()
            digest.update(header)
            _require(header == (",".join(columns) + ",s\n").encode(), f"header {header!r}")
            while True:
                lines = list(itertools.islice(handle, CHUNK_ROWS))
                if not lines:
                    break
                for line in lines:
                    digest.update(line)
                _require(lines[-1].endswith(b"\n"), "CSV does not end with a newline")
                _require(rows + len(lines) <= cells, f"more than {cells} rows")
                table = np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2)
                _require(table.shape[1] == len(columns) + 1, f"rows have {table.shape[1]} cells")
                index = np.unravel_index(np.arange(rows, rows + len(lines)), shape)
                for j, idx in enumerate(index):
                    bad = np.flatnonzero(np.abs(table[:, j] - axis[idx]) > LOOSE)
                    _require(bad.size == 0, f"row {rows + 1 + (bad[0] if bad.size else 0)}: not the grid")
                s = table[:, -1]
                bad = np.flatnonzero(np.abs(s - scan_s(mode, table[:, :-1].T)) > TOL)
                _require(bad.size == 0, f"row {rows + 1 + (bad[0] if bad.size else 0)}: S off the closed form")
                _require(float(np.abs(s).max()) <= bound, f"|S| above the {mode} bound")
                rows += len(lines)
        _require(rows == cells, f"{rows} rows, want {cells}")
        self._scan_hash[op.name] = digest.hexdigest()


_CHECKS = {
    "exact": _check_exact,
    "sample": _check_sample,
    "chsh-max": _check_chsh_max,
    "hvm-check": _check_hvm,
    "joint-feasibility": _check_feasibility,
}
