"""Spans and call counts around evainject's public functions.

The tracer wraps functions from the benchmark's side: it replaces module
attributes and class methods with wrappers for the length of a traced run
and puts the originals back afterwards.  Spans are kept in flat arrays
(name, start, end, parent) and written out when the run ends.  A span's
self time is its duration minus the part of its interval that its child
spans cover.  Functions called millions of times (field arithmetic) are
only counted: a span per call would cost more than the call.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array

# (layer, qualified name, "span" or "count"); layers are evainject modules.
TARGETS = [
    ("cli", "main", "span"),
    ("cli", "parse_poly", "span"),
    ("cli", "build_parser", "span"),
    ("cli", "build_report", "span"),
    ("engine", "permutation_check", "span"),
    ("engine", "verify_witness", "span"),
    ("engine", "search_rational_collisions", "span"),
    ("engine", "search_tuple_collisions", "span"),
    ("engine", "rational_grid", "span"),
    ("engine", "brute_force_zero_fiber", "span"),
    ("engine", "brute_force_matrix", "span"),
    ("engine", "search_matrix_collisions", "span"),
    ("polynomials.core", "UniPoly.__mul__", "span"),
    ("polynomials.core", "UniPoly.__divmod__", "span"),
    ("polynomials.core", "UniPoly.powmod", "span"),
    ("polynomials.core", "UniPoly.eval", "span"),
    ("polynomials.core", "MultiPoly.eval", "span"),
    ("polynomials.factor", "factor_profile", "span"),
    ("polynomials.factor", "factor_finite", "span"),
    ("polynomials.factor", "factor_rationals", "span"),
    ("polynomials.sturm", "is_strictly_monotone", "span"),
    ("polynomials.sturm", "sturm_real_roots", "span"),
    ("matrices", "Matrix.__mul__", "span"),
    ("matrices", "mat_poly_eval", "span"),
    ("matrices", "Matrix.__hash__", "span"),
    ("fields", "FieldElement.__init__", "count"),
    ("fields", "FieldElement.__add__", "count"),
    ("fields", "FieldElement.__mul__", "count"),
    ("fields", "FieldSpec.__eq__", "count"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    # -- recording --------------------------------------------------------
    def _open(self, nid: int) -> int:
        self.calls[nid] += 1
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the harness itself."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name: str, fn):
        nid, opened, close = self.name_id(name), self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _counted(self, name: str, fn):
        nid, calls = self.name_id(name), self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every target wherever evainject holds a reference to it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "evainject" or key.startswith("evainject.")]
        for layer, qual, mode in TARGETS:
            name = f"{layer}.{qual}"
            self.name_id(name)
            make = self._spanned if mode == "span" else self._counted
            module = importlib.import_module(f"evainject.{layer}")
            owner, _, attr = qual.rpartition(".")
            if owner:
                # The method as defined on the class and on every subclass
                # that overrides it, under every name it is bound to
                # (FieldElement.__radd__ is __add__).
                todo = [getattr(module, owner)]
                while todo:
                    cls = todo.pop()
                    todo.extend(cls.__subclasses__())
                    original = cls.__dict__.get(attr)
                    if original is None:
                        continue
                    wrapper = make(name, original)
                    for key, value in list(cls.__dict__.items()):
                        if value is original:
                            self._patch(cls, key, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                              else getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- analysis ---------------------------------------------------------
    def self_times_ns(self) -> array:
        """Per span: duration minus the union of its children's intervals
        clipped to it.  Children of one parent are recorded in start order."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        covered = array("q", bytes(8 * len(start)))
        mark = array("q", start)        # how far each parent is covered so far
        for i in range(len(start)):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], mark[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                mark[p] = hi
        return array("q", (end[i] - start[i] - covered[i] for i in range(len(start))))

    def tree_problems(self) -> list[str]:
        """Malformations: open spans, negative self time, children outside parents."""
        problems = []
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i, own in enumerate(self.self_times_ns()):
            if end[i] < start[i]:
                problems.append(f"span {i} ends before it starts")
            if own < 0:
                problems.append(f"span {i} has negative self time")
            p = parent[i]
            if p >= 0 and not (p < i and start[p] <= start[i] and end[i] <= end[p]):
                problems.append(f"span {i} lies outside its parent {p}")
        return problems

    def per_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self milliseconds)."""
        own = [0] * len(self.names)
        for nid, t in zip(self.span_name, self.self_times_ns()):
            own[nid] += t
        return {name: (self.calls[i], own[i] / 1e6) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """A JSON header line, then the name, parent, start and end arrays."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": ["name:i", "parent:i", "start_ns:q", "end_ns:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
