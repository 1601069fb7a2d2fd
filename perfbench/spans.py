"""Call spans around stgo_kit's public functions, kept in memory.

Each wrapped call records one span: name, start, end (perf_counter_ns) and the
index of the span that was open when it started.  Spans live in flat arrays
(about 22 bytes each) so a traced run of a few million calls stays small; they
are written out once, when the run ends.

A wrapper only sees calls made through the name it replaces, and modules that
did ``from .wigner import gaunt_string`` hold their own binding.  So
``Tracer.install`` replaces every binding of each target function in every
loaded ``stgo_kit`` module, including values of module-level dicts (the verify
suite table), and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Records spans of the target functions while installed."""

    def __init__(self, targets, keep_returns=(), clock=time.perf_counter_ns):
        """targets: {span name: (module, attribute)}; keep_returns: span names
        whose calls are kept as (args, kwargs, return value) for later checks."""
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.returns: dict[str, list] = {n: [] for n in keep_returns}
        self._stack = [-1]
        self._clock = clock
        self._bindings = []  # (container, key, original, wrapper)
        originals = {}
        for span_name, (module, attr) in targets.items():
            fn = getattr(importlib.import_module(module), attr)
            originals[id(fn)] = (fn, self.wrap(span_name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("stgo_kit"):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in originals:
                    fn, wrapper = originals[id(value)]
                    self._bindings.append((mod, key, fn, wrapper))
                elif type(value) is dict:
                    for k, v in value.items():
                        if id(v) in originals:
                            fn, wrapper = originals[id(v)]
                            self._bindings.append((value, k, fn, wrapper))

    def _span_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def wrap(self, span_name: str, fn):
        """Return fn wrapped so that each call records a span named span_name."""
        nid = self._span_id(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, self._clock
        kept = self.returns.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append((args, kwargs, out))
            return out

        return traced

    def install(self):
        for container, key, _, wrapper in self._bindings:
            _assign(container, key, wrapper)

    def uninstall(self):
        for container, key, fn, _ in self._bindings:
            _assign(container, key, fn)

    def arrays(self) -> dict:
        """Spans as numpy arrays: name (index into names), parent (-1 at the root), start, end."""
        # Copies: a live view would stop the arrays from growing.
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _assign(container, key, value):
    if type(container) is dict:
        container[key] = value
    else:
        setattr(container, key, value)


def self_ns(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus the durations of its direct children.

    Calls on one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations add up to the time they cover.
    """
    dur = (end - start).astype(np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def per_name(tracer: Tracer) -> dict:
    """{span name: (calls, self seconds, inclusive seconds)} over all recorded spans."""
    a = tracer.arrays()
    k = len(tracer.names)
    calls = np.bincount(a["name"], minlength=k)
    selfs = np.bincount(a["name"], weights=self_ns(a["parent"], a["start"], a["end"]), minlength=k)
    incl = np.bincount(a["name"], weights=(a["end"] - a["start"]).astype(np.float64), minlength=k)
    return {n: (int(calls[i]), selfs[i] * 1e-9, incl[i] * 1e-9) for i, n in enumerate(tracer.names)}


def cache_hits(tracer: Tracer, outer: str, inner: str) -> tuple[int, int]:
    """(spans named outer with no direct child named inner, spans named outer).

    gaunt_string calls wigner3j_string itself, and only on a cache miss, so a
    Gaunt lookup hit its cache when no wigner3j_string span is its child.
    """
    a = tracer.arrays()
    if outer not in tracer.names:
        return 0, 0
    is_outer = a["name"] == tracer.names.index(outer)
    total = int(is_outer.sum())
    if inner not in tracer.names:
        return total, total
    parents = np.unique(a["parent"][a["name"] == tracer.names.index(inner)])
    return total - int(is_outer[parents[parents >= 0]].sum()), total
