"""In-memory span tracer that measures library layers from outside.

The tracer changes no source file of the library.  It replaces
functions at the module attribute a caller looks them up under
(``patch``) and wraps callables the benchmark builds itself (``wrap``).
Every call becomes a span with a name, start, end and parent; a layer's
self time is its span's duration minus the durations of its direct
children.  Root spans are the benchmark's own ``bench.*`` spans, one per
operation, and counters added while a root span is open are filed under
that operation.
"""

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._stack = []
        self._patches = []
        # root span index -> counter name -> value
        self.op_counters = defaultdict(lambda: defaultdict(float))

    # -- recording ---------------------------------------------------------

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, key, value=1.0):
        """Add to a counter of the operation whose root span is open."""
        if not self._stack:
            raise RuntimeError(f"counter {key!r} outside any operation span")
        self.op_counters[self._stack[0]][key] += value

    def wrap(self, fn, name, before=None, after=None):
        """A callable that records a span around every call of ``fn``.

        ``before(args, kwargs)`` runs first, inside a ``trace.bookkeeping``
        span so its cost stays out of the layer being measured;
        ``after(result)`` records counters from the return value.
        """
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            if before is not None:
                b = open_("trace.bookkeeping")
                try:
                    before(args, kwargs)
                finally:
                    close(b)
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, before, after))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        if self._stack:
            raise RuntimeError("analysis while spans are still open")
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        roots = np.arange(len(dur))
        for i in np.nonzero(has_parent)[0]:
            roots[i] = roots[parents[i]]
        return parents, dur, dur - child, roots

    def dump(self, path, extra):
        """Write every span and the caller's summary as gzipped JSON."""
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        spans = [
            [code[n], p, round(s, 9), round(e, 9)]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({**extra, "span_names": table, "spans": spans}, fh)
