"""In-memory span recorder that wraps a layer's public functions from outside.

Nothing under ``src/`` is edited: a traced name is replaced, for the
duration of the traced passes, by a wrapper assigned at the module
attribute in every namespace that imported it (``masym.cli`` imports
``solve_system_fd`` from ``masym.gridsolve``, so both attributes are
replaced).  Spans stay in memory until the benchmark writes its record.

A span is a dict with ``id``, ``parent`` (id or None), ``op`` (the op id
the span belongs to), ``name``, ``via`` (the namespace whose attribute
was called), ``start`` and ``end`` (seconds since the recorder was
made), ``attrs`` (counts taken from the result) and ``leaf`` (calls,
points and seconds of hot leaf callables aggregated into the innermost
open span instead of getting spans of their own).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Recorder:
    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _open(self, name, via):
        span = {"id": len(self.spans) + 1,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "op": self.op, "name": name, "via": via,
                "start": time.perf_counter() - self.epoch, "end": None,
                "attrs": {}, "leaf": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter() - self.epoch
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id, name):
        """The root span of one op; every span opened inside belongs to it."""
        self.op = op_id
        span = self._open(name, "bench")
        try:
            yield span
        finally:
            self._close(span)
            self.op = None

    def wrap(self, name, fn, via, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # called by the benchmark itself, not by an op
                return fn(*args, **kwargs)
            span = self._open(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"].update(attrs(result))
            return result

        return wrapper

    def leaf(self, name, fn, points):
        """Wrap a hot callable: calls, points and seconds add to the open span."""

        def wrapper(x):
            t0 = time.perf_counter()
            try:
                return fn(x)
            finally:
                t1 = time.perf_counter()
                if self._stack:
                    agg = self._stack[-1]["leaf"].setdefault(
                        name, {"calls": 0, "points": 0, "s": 0.0})
                    agg["calls"] += 1
                    agg["points"] += points(x)
                    agg["s"] += t1 - t0

        return wrapper

    def install(self, targets, modules):
        """Replace each target function in every module that holds it.

        ``targets`` is a list of (span name, module name, attribute,
        attrs hook or None); ``modules`` are the namespaces searched for
        the original object.
        """
        for name, modname, attr, hook in targets:
            original = getattr(sys.modules[modname], attr)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(name, original, mod.__name__, hook))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
