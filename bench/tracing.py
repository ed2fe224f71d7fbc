"""Spans and counts around the library's public functions, from outside it.

`Tracer.install` replaces every public module-level function of `srcy` by
a wrapper at each module that binds it, under any name (the package
re-exports names, and `verify`, `cli` and `families` bind theirs by
`from ... import`), plus `Poly.__mul__` and `Poly.__add__` on the class.
Calls made through a module global or an attribute are then seen; calls
through a reference taken before `install` are not.

Each call adds its duration minus the time of its traced children to the
self time of its name.  Spans (id, name, start, end, parent id) are kept in
memory and written out by `write_spans`; the polynomial operators are too
frequent for a span each, so they are only counted and timed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "srcy"
# name given to Poly operators -> the attributes that implement them
POLY_OPERATORS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__")}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn, span=True):
        stack = self._stack
        calls = self.calls
        self_time = self.self_time
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id]  # time spent in traced children, span id
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time[name] += duration - frame[0]
                calls[name] += 1
                if parent is not None:
                    parent[0] += duration
                if span:
                    spans.append((frame[1], name, start, end, parent[1] if parent else None))

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        if not modules:
            raise RuntimeError("package %s is not imported" % PACKAGE)
        wrappers = {}
        for module in modules:
            for value in vars(module).values():
                if (inspect.isfunction(value) and value.__name__.isidentifier()
                        and not value.__name__.startswith("_")
                        and value.__module__.startswith(PACKAGE + ".")
                        and id(value) not in wrappers):
                    name = "%s.%s" % (value.__module__.split(".", 1)[1], value.__name__)
                    wrappers[id(value)] = self.wrap(name, value)
        for module in modules:  # every binding, private aliases included
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        poly = sys.modules[PACKAGE + ".polynomial"].Poly
        for short, attrs in POLY_OPERATORS.items():
            traced = {}
            for attr in attrs:
                original = vars(poly).get(attr)
                if original is None:
                    continue
                if id(original) not in traced:
                    traced[id(original)] = self.wrap("polynomial." + short, original, span=False)
                self._undo.append((poly, attr, original))
                setattr(poly, attr, traced[id(original)])
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_self_time(self):
        """Self time per module (the part of a name before the first dot)."""
        out = defaultdict(float)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def write_spans(self, path, label):
        with gzip.open(path, "at") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([label, span_id, name, start, end, parent]) + "\n")
