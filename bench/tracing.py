"""Spans around asymlab's layers, recorded from outside the program.

``Tracer.install`` replaces the module attributes that ``asymlab.mc`` looks
up (and ``TestStatistic.reject`` and ``instances.tangent_bases``) with timed
wrappers; ``uninstall`` puts the originals back.  Nothing under ``src/``
changes.  Spans are kept in memory as ``[name, parent, rep, start_ns,
end_ns]`` and written out by ``write``; ``layer_totals`` turns them into
self times.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from collections import Counter

now_ns = time.perf_counter_ns  # CLOCK_MONOTONIC on Linux: comparable across processes

# (module, attribute, span name) of every wrapped call site.
MC_CALLS = (
    ("asymlab.mc", "replication_seed", "dist.seed"),
    ("asymlab.mc", "draw_indices", "dist.draw"),
    ("asymlab.mc", "path_distribution", "paths.local_dist"),
    ("asymlab.mc", "estimate_gmm", "gmm.estimate"),
    ("asymlab.mc", "j_statistic", "gmm.j"),
    ("asymlab.mc", "ivdataset_from_rows", "iv.reduce"),
    ("asymlab.mc", "estimate_ols", "iv.ols"),
    ("asymlab.mc", "estimate_2sls", "iv.tsls"),
    ("asymlab.mc", "dwh_statistic", "iv.dwh"),
    ("asymlab.mc", "_summarize", "mc.summarize"),
    ("asymlab.instances", "tangent_bases", "instances.tangent_bases"),
)
ESTIMATOR_SPANS = frozenset({"gmm.estimate", "gmm.j", "iv.ols", "iv.tsls", "iv.dwh"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rep = 0  # replication the open spans belong to; 0 outside the loop
        self.gn_iterations: list[int] = []
        self.not_converged = 0
        self.exceptions: Counter = Counter()
        self.negative_spectrum_warnings = 0
        self._saved: list[tuple] = []

    # --- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.rep, now_ns(), 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = now_ns()
        self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished top-level span measured by the caller."""
        self.spans.append([name, -1, 0, start_ns, end_ns])

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "dist.seed":
                tracer.rep += 1  # the r-th seed call of a run starts replication r
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name in ESTIMATOR_SPANS:
                    tracer.exceptions[type(exc).__name__] += 1
                raise
            finally:
                tracer.close(idx)
            if name == "gmm.estimate":
                tracer.gn_iterations.append(result.iterations)
                tracer.not_converged += not result.converged
            elif name == "mc.summarize":
                tracer.rep = 0
            return result

        return traced

    def sink(self, fh):
        """A file-like object whose writes are spans named ``mc.sink``."""
        tracer = self

        class TracedSink:
            def write(self, text):
                idx = tracer.open("mc.sink")
                try:
                    return fh.write(text)
                finally:
                    tracer.close(idx)

        return TracedSink()

    # --- patching ----------------------------------------------------------------

    def install(self) -> None:
        from asymlab.chi2 import TestStatistic
        from asymlab.errors import NegativeSpectrumWarning

        for module_name, attr, name in MC_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue  # the program no longer calls it; its time shows in mc.self_us
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        self._saved.append((TestStatistic, "reject", TestStatistic.reject))
        TestStatistic.reject = self.wrap("chi2.reject", TestStatistic.reject)

        # every NegativeSpectrumWarning is counted; the default filter would
        # show only the first one per call site
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.filterwarnings("always", category=NegativeSpectrumWarning)
        shown = warnings.showwarning

        def count(message, category, *args, **kwargs):
            if issubclass(category, NegativeSpectrumWarning):
                self.negative_spectrum_warnings += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = count

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._warnings.__exit__(None, None, None)

    # --- output ------------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\trep\tname\tstart_ns\tend_ns\n")
            for idx, (name, parent, rep, start, end) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{rep}\t{name}\t{start}\t{end}\n")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which never overlap because the program is sequential.
    """
    child = [0] * len(spans)
    for name, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for idx, (name, _, _, start, end) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - child[idx]) / 1e9
    return totals


def replication_latencies_us(spans: list[list]) -> list[float]:
    """Per-replication latency from consecutive seed calls of each ``mc.run``.

    Replication r lasts from its seed call to the next one; the last ends
    where the run's summary starts, or where the run ends.
    """
    seeds: dict[int, list[int]] = {}
    close: dict[int, int] = {}
    for idx, (name, parent, _, start, end) in enumerate(spans):
        if name == "mc.run":
            seeds[idx], close[idx] = [], end
        elif name == "dist.seed" and parent in seeds:
            seeds[parent].append(start)
        elif name == "mc.summarize" and parent in seeds:
            close[parent] = start
    out: list[float] = []
    for run, starts in seeds.items():
        marks = starts + [close[run]]
        out.extend((b - a) / 1e3 for a, b in zip(marks, marks[1:]))
    return out
