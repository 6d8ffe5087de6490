"""eprb-lab benchmark: one workload in one process, one client in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload session --seed 1 --seconds 25 --trace 0

The process builds its inputs from ``--seed``, then runs rounds of reports
through ``eprb_lab.cli.main`` until ``--seconds`` have passed. Every
round repeats the same reports, and every output is checked against an
independent reference after the round, outside the timing. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Reference figures that are not
metrics (CPU time, a tail percentile, the set-up samples) go to standard
error. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORK = HERE / "_work"

#: Set-up runs in fresh processes as well, spread over the run: two before
#: the first round, one after each round, and enough at the end to make
#: SETUP_PROBES. Set-up time is their median together with the benchmark
#: process's own set-up, so one busy moment on a shared machine does not
#: decide it.
SETUP_PROBES = 8

_SCAN_LAYERS = {"cli.main", "cli.parse_config", "cli.run", "inequality.scan_grid"}
#: Layer functions each workload must reach; the traced run fails without them.
REQUIRED = {
    "scan-csv": _SCAN_LAYERS,
    "scan-json": _SCAN_LAYERS | {"cli.to_json"},
    "session": {
        "cli.main",
        "cli.parse_config",
        "cli.run",
        "cli.to_json",
        "inequality.maximize_chsh",
        "sampler.sample",
        "sampler.empirical_correlators",
        "quantum.grand_joint_quantum",
        "quantum.marginal_pair",
        "quantum.closed_form_correlators",
        "hvm.build_contextual_model",
        "hvm.check_factorizability",
        "hvm.induced_distribution",
        "hvm.pair_targets_from_scenario",
        "hvm.noncontextual_feasibility",
        "linfeas.solve_equality_feasibility",
    },
}

#: Per-layer metrics: (name, unit, span, field). A per-round figure is the
#: traced rounds' total divided by their number; rss_rise_mb is the largest
#: rise seen. ``field`` None marks the metrics computed in per_layer().
PER_LAYER = [
    ("cli.run.self_s", "s", "cli.run", "self_s"),
    ("cli.run.rss_rise_mb", "MiB", "cli.run", "rss_rise_mb"),
    ("cli.out_mb", "MiB", None, None),
    ("cli.parse_config.busy_s", "s", "cli.parse_config", "busy_s"),
    ("cli.to_json.busy_s", "s", "cli.to_json", "busy_s"),
    ("inequality.scan_grid.calls", "count", "inequality.scan_grid", "calls"),
    ("inequality.scan_grid.busy_s", "s", "inequality.scan_grid", "busy_s"),
    ("inequality.scan_grid.rss_rise_mb", "MiB", "inequality.scan_grid", "rss_rise_mb"),
    ("inequality.scan_cells", "count", None, None),
    ("inequality.scan_cells_per_s", "1/s", None, None),
    ("inequality.maximize_chsh.calls", "count", "inequality.maximize_chsh", "calls"),
    ("inequality.maximize_chsh.busy_s", "s", "inequality.maximize_chsh", "busy_s"),
    ("inequality.max_iterations", "count", None, None),
    ("sampler.sample.calls", "count", "sampler.sample", "calls"),
    ("sampler.sample.busy_s", "s", "sampler.sample", "busy_s"),
    ("sampler.sample.rss_rise_mb", "MiB", "sampler.sample", "rss_rise_mb"),
    ("sampler.draws", "count", None, None),
    ("sampler.draws_per_s", "1/s", None, None),
    ("sampler.empirical_correlators.busy_s", "s", "sampler.empirical_correlators", "busy_s"),
    ("quantum.grand_joint_quantum.calls", "count", "quantum.grand_joint_quantum", "calls"),
    ("quantum.grand_joint_quantum.busy_s", "s", "quantum.grand_joint_quantum", "busy_s"),
    ("quantum.marginal_pair.calls", "count", "quantum.marginal_pair", "calls"),
    ("quantum.marginal_pair.busy_s", "s", "quantum.marginal_pair", "busy_s"),
    ("quantum.closed_form_correlators.calls", "count", "quantum.closed_form_correlators", "calls"),
    ("quantum.closed_form_correlators.busy_s", "s", "quantum.closed_form_correlators", "busy_s"),
    ("hvm.build_contextual_model.busy_s", "s", "hvm.build_contextual_model", "busy_s"),
    ("hvm.check_factorizability.busy_s", "s", "hvm.check_factorizability", "busy_s"),
    ("hvm.induced_distribution.busy_s", "s", "hvm.induced_distribution", "busy_s"),
    ("hvm.pair_targets_from_scenario.busy_s", "s", "hvm.pair_targets_from_scenario", "busy_s"),
    ("hvm.noncontextual_feasibility.self_s", "s", "hvm.noncontextual_feasibility", "self_s"),
    ("linfeas.solve_equality_feasibility.calls", "count", "linfeas.solve_equality_feasibility", "calls"),
    ("linfeas.solve_equality_feasibility.busy_s", "s", "linfeas.solve_equality_feasibility", "busy_s"),
    ("linfeas.pivots", "count", None, None),
    ("trace_overhead_s", "s", None, None),
]
_WRAPPED = {span for _, _, span, _ in PER_LAYER if span} | set().union(*REQUIRED.values())


def setup(workload: str, seed: int, work: Path):
    """The timed set-up: import eprb_lab and write the workload's configs."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from eprb_lab import cli

    ops = workloads.build(workload, seed, work)
    return cli, ops, time.perf_counter() - start


def probe_setup(args, work: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(work)]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_round(cli, ops, tracer):
    """Run every report once; return its wall time, CPU time, report times
    and exit codes."""
    if tracer is not None:
        tracer.install()
    times, codes = [], []
    cpu = time.process_time()
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        codes.append(cli.main(op.argv))
        times.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.uninstall()
    return wall, cpu, times, codes


def tail(samples: list[float]) -> tuple[str, float, int]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = ("p50", statistics.median(samples))
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if n * (1.0 - q) >= 10:
            best = (label, sorted(samples)[min(n - 1, int(q * n))])
    return best[0], best[1], n


def per_layer(tracer, traced: list, untraced: list, out_bytes: int) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    rounds = len(traced)
    work = tracer.work

    def field(span: str, name: str) -> float:
        return totals.get(span, {}).get(name, 0.0)

    def rate(count: float, span: str) -> float:
        busy = field(span, "busy_s")
        return count / busy if busy > 0.0 else 0.0

    computed = {
        "cli.out_mb": out_bytes / 2**20 / rounds,
        "inequality.scan_cells": work["inequality.scan_cells"] / rounds,
        "inequality.scan_cells_per_s": rate(work["inequality.scan_cells"], "inequality.scan_grid"),
        "inequality.max_iterations": work["inequality.max_iterations"] / rounds,
        "sampler.draws": work["sampler.draws"] / rounds,
        "sampler.draws_per_s": rate(work["sampler.draws"], "sampler.sample"),
        "linfeas.pivots": work["linfeas.pivots"] / rounds,
        "trace_overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    metrics = {}
    for name, unit, span, name_field in PER_LAYER:
        if name_field is None:
            value = computed[name]
        elif name_field == "rss_rise_mb":
            value = field(span, name_field)
        else:
            value = field(span, name_field) / rounds
        metrics[name] = (value, unit)
    return metrics


def bench(args, work: Path) -> int:
    setups: list[float] = []

    def probe() -> None:
        setups.append(probe_setup(args, work / f"probe{len(setups)}"))

    probe()
    probe()
    cli, ops, own_setup = setup(args.workload, args.seed, work / "run")

    import checks  # imported after the timed set-up: it loads numpy
    import spans

    checker = checks.Checker()
    tracer = spans.Tracer() if args.trace else None
    rounds, failures = [], []
    attempted = failed = out_bytes = 0
    start = time.perf_counter()
    while True:
        # In a traced run, even rounds are traced and odd ones are not; the
        # first round is traced, so its spans see the first rise of the peak
        # resident set.
        traced = tracer is not None and len(rounds) % 2 == 0
        wall, cpu, times, codes = run_round(cli, ops, tracer if traced else None)
        attempted += len(ops)
        failed += sum(code != 0 for code in codes)
        for op, code in zip(ops, codes):
            if code != 0:
                continue
            if traced:
                out_bytes += op.out.stat().st_size
            try:
                checker.check(op)
            except checks.CheckError as exc:
                failures.append(str(exc))
            if op.subcommand == "chsh-scan":
                op.out.unlink()
        rounds.append((traced, wall, cpu, times))
        probe()
        enough = len(rounds) >= (2 if tracer else 1)
        if failures or (enough and time.perf_counter() - start >= args.seconds):
            break
    while len(setups) < SETUP_PROBES:
        probe()
    setups.append(own_setup)

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    if failures:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    plain = [r for r in rounds if not r[0]]
    report_times = [t for r in plain for t in r[3]]
    label, value, samples = tail(report_times)
    reference = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "reports_per_round": len(ops),
        "cpu_s_per_round": statistics.median(r[2] for r in plain),
        f"report_{label}_s": value,
        "report_samples": samples,
        "setup_samples_s": setups,
    }
    if tracer is not None:
        try:
            tracer.require(_WRAPPED, REQUIRED[args.workload])
        except spans.MissingLayerError as exc:
            print(f"error: traced run is missing a layer: {exc}", file=sys.stderr)
            return 3
        traced_walls = [r[1] for r in rounds if r[0]]
        plain_walls = [r[1] for r in plain]
        metrics = per_layer(tracer, traced_walls, plain_walls, out_bytes)
        reference["trace_file"] = str(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
        tracer.dump(Path(reference["trace_file"]), {"workload": args.workload, "seed": args.seed})
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(r[1] for r in plain), "s"),
            "report_s": (statistics.median(report_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps({"reference": reference}), file=sys.stderr)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "eprb_lab" / "__init__.py").is_file():
        print(f"error: no eprb_lab package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.setup_probe:
        work = Path(args.setup_probe)
        print(json.dumps({"setup_s": setup(args.workload, args.seed, work)[2]}))
        return 0
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
