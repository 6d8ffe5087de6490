"""Spans around eprb_lab's layers, recorded from outside the program.

:meth:`Tracer.install` wraps every public function of the layer modules,
and ``cli.Report.to_json``, wherever an eprb_lab module holds a reference
to it: ``cli`` imports ``scan_grid`` by name, so ``cli.scan_grid`` is
replaced as well as ``inequality.scan_grid``. :meth:`Tracer.uninstall`
puts the originals back, so untraced rounds run the program unchanged.

A span is ``[name, start, end, parent]``, with ``parent`` the index of
the enclosing span or -1. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "eprb_lab"
#: The modules whose public functions are layers. ``errors`` does no work.
LAYERS = ("cli", "inequality", "quantum", "sampler", "hvm", "linfeas")
#: Spans that also record the rise of the process's peak resident set.
MEMORY_SPANS = frozenset({"cli.run", "inequality.scan_grid", "sampler.sample"})

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mib() -> float:
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MIB


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _count_work(work: Counter, name: str, result) -> None:
    """Exact work counts, read from what a layer returns."""
    if name == "inequality.scan_grid":
        work["inequality.scan_cells"] += result.n_cells
    elif name == "inequality.maximize_chsh":
        work["inequality.max_iterations"] += result.iterations
    elif name == "sampler.sample":
        work["sampler.draws"] += result.n
    elif name == "linfeas.solve_equality_feasibility":
        work["linfeas.pivots"] += result.iterations


class MissingLayerError(RuntimeError):
    """A layer the workload must reach was never wrapped, or never ran."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: span index -> rise of the process's peak resident set, in MiB
        self.memory: dict[int, float] = {}
        self.work: Counter = Counter()
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, memory, work = self.spans, self._stack, self.memory, self.work
        track = name in MEMORY_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            if track:
                rss, peak = _rss_mib(), _peak_mib()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if track:
                # ru_maxrss only grows, so a span that stays below an earlier
                # peak cannot be measured; it gets no entry.
                new_peak = _peak_mib()
                if new_peak > peak:
                    memory[index] = new_peak - rss
            _count_work(work, name, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
                self.wrapped.add(f"{layer}.{attr}")
        report = sys.modules[f"{PACKAGE}.cli"].Report
        self._patch(report, "to_json", self._wrap("cli.to_json", report.to_json))
        self.wrapped.add("cli.to_json")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def require(self, wrapped, fired) -> None:
        """Fail unless every name in ``wrapped`` was found and wrapped, and
        every name in ``fired`` ran at least once."""
        missing = sorted(set(wrapped) - self.wrapped)
        if missing:
            raise MissingLayerError(f"no public function to wrap for {', '.join(missing)}")
        silent = sorted(set(fired) - {span[0] for span in self.spans})
        if silent:
            raise MissingLayerError(f"wrapped but never called: {', '.join(silent)}")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time, self time and the largest rise
        of the peak resident set. Busy time counts a span only when no
        enclosing span has the same name; self time subtracts the direct
        children of each span."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rss_rise_mb": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row["busy_s"] += end - start
            if index in self.memory:
                row["rss_rise_mb"] = max(row["rss_rise_mb"], self.memory[index])
        return out

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**meta, "fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
