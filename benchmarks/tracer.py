"""In-memory span tracer that wraps the package's functions from outside.

Spans nest: a span's self time is its duration minus the durations of the
spans opened directly inside it, so the self times of every span under a
root add up to the root's duration.  Durations are kept per span name, so
per-call medians come from every call, not a sample.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array


class SpanStats:
    __slots__ = ("durations_ns", "self_ns")

    def __init__(self):
        self.durations_ns = array("q")
        self.self_ns = 0

    @property
    def calls(self):
        return len(self.durations_ns)

    def median_ns(self):
        return statistics.median(self.durations_ns)


class Tracer:
    """Records nested spans while ``enabled``; passes calls through otherwise."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.enabled = False
        self.stats = {}
        self.counters = {}
        self._stack = []  # child-time accumulators of the open spans
        self._undo = []

    def _record(self, name, t0, child_ns):
        d = self.clock() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += d
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.durations_ns.append(d)
        st.self_ns += d - child_ns

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        child = [0]
        self._stack.append(child)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(name, t0, child[0])

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result)`` runs once the span closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def count(self, name, n):
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- installing wrappers where the package looks the names up --------

    def patch_function(self, module, attr, name, after=None):
        """Wrap ``module.attr`` in every package module that binds it.

        The package imports with ``from .x import f``, so the same function
        object sits in several module namespaces; each binding is replaced.
        """
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, after)
        prefix = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))
        return wrapped

    def patch_method(self, cls, attr, name):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig))
        self._undo.append((cls, attr, orig))

    def patch_value(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
