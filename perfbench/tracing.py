"""Span tracing from outside the library.

A ``Tracer`` wraps the public functions of the ``mixedhk`` layer modules.
Every name bound to a wrapped function is patched, in every ``mixedhk``
module namespace that holds it: ``step`` is imported by name into
``simulate`` and ``squared_distances`` into ``profile`` and ``monitors``, so
each of those bindings must point at the wrapper. Calls between functions of
one module go through module globals, so patching the global catches them.

Each call records a span (name, start, end, parent, operation id) in memory.
Counts that would need a wrapper on a per-pair helper are derived instead
from argument shapes, so ``opinions_equal`` is deliberately left unwrapped.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from mixedhk.trajio import _sidecar

# Modules of src/mixedhk that the benchmark treats as layers. ``matching``
# (no caller in src), ``scenarios`` (fixed-size assertion code),
# ``trajectory`` and ``errors`` (data only) are left out.
LAYERS = ("config", "dynamics", "simulate", "profile", "monitors", "trajio",
          "batch", "spectral", "cli")

# One check calls this per pair and per step (more than 300k calls); its cost
# stays inside its caller's self time.
UNWRAPPED = {"profile.opinions_equal"}

HULL_TOL = 1e-12  # tolerance of monitors.hull_containment_violations


def _sidecar_size(path: Path) -> int:
    side = _sidecar(path)
    return side.stat().st_size if side.exists() else 0


def _count_squared_distances(counts, args, kwargs, result):
    n, d = args[0].shape
    counts["dynamics.pairs_evaluated"] += n * n
    counts["dynamics.bytes_computed"] += n * n * d * 8


def _count_merge(counts, args, kwargs, result):
    states = args[0]
    n = states[0].shape[0]
    counts["profile.merge_pairs_compared"] += (len(states) - 1) * n * (n - 1) // 2
    counts["profile.merge_events"] += len(result)


def _count_hull(counts, args, kwargs, result):
    counts["profile.hull_distance.over_tol"] += result > HULL_TOL


def _count_write(counts, args, kwargs, result):
    path = Path(result)
    counts["trajio.bytes_written"] += path.stat().st_size + _sidecar_size(path)


def _count_read(counts, args, kwargs, result):
    path = Path(args[0])
    counts["trajio.bytes_read"] += path.stat().st_size + _sidecar_size(path)


def _count_batch(counts, args, kwargs, result):
    counts["batch.runs"] += result["runs"]
    counts["batch.steps_total"] += sum(r["steps"] for r in result["per_run"])
    counts["batch.steady_runs"] += result["stop_reasons"]["steady"]


# Counters derived from a wrapped call's arguments and result, keyed by span name.
COUNTERS = {
    "dynamics.squared_distances": _count_squared_distances,
    "profile.detect_merge_events": _count_merge,
    "profile.hull_distance": _count_hull,
    "trajio.write_trajectory": _count_write,
    "trajio.read_trajectory": _count_read,
    "batch.batch_run": _count_batch,
}


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Records spans and counters for calls into the wrapped layers."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # op -> name -> count
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts[self.op], args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every binding of every layer function in the mixedhk modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib

        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mixedhk.{layer}")
            for fname, fn in public_functions(module).items():
                span_name = f"{layer}.{fname}"
                if span_name not in UNWRAPPED:
                    originals[id(fn)] = (fn, self._wrap(span_name, fn))
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "mixedhk" or name.startswith("mixedhk."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path: Path):
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result never double-counts.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans: list, ops: set) -> dict:
    """Per span name: call count and self seconds over the operations ``ops``."""
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, self_s in zip(spans, self_times(spans)):
        if span[4] in ops:
            totals[span[0]]["calls"] += 1
            totals[span[0]]["self_s"] += self_s
    return totals


def root_time(spans: list, op) -> float:
    """Seconds covered by the top-level spans of one operation."""
    return sum(s[2] - s[1] for s in spans if s[4] == op and s[3] < 0)
