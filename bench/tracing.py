"""In-memory spans recorded around the package's public functions.

The tracer replaces a function at the module attribute where a caller
looks it up (its import site) with a wrapper that records one span per
call: name, start, end, the enclosing span and the operation it belongs
to.  Spans stay in memory and are written out when the run ends.  A site
whose module or attribute no longer exists is skipped and listed in
``missing``, so a function a later change deletes drops its span instead
of failing the run.
"""

import functools
import importlib
import json
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent=None, op=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs


class Tracer:
    """Records spans; ``install`` wraps import sites, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[self._stack[0]].op if self._stack else idx
        span = Span(name, 0.0, 0.0, parent, op)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Call ``fn(*args)`` inside a root span named ``op``."""
        span = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, fn, name, annotate=None):
        """Return ``fn`` wrapped so each call records a span.

        ``annotate(args, kwargs, result)`` may return a dict of counts that
        is stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, sites):
        """Wrap every ``(module, attribute, span name, annotate)`` site."""
        for module_name, attr, name, annotate in sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                site = f"{module_name}.{attr}"
                if site not in self.missing:
                    self.missing.append(site)
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, annotate))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                          "parent": s.parent, "op": s.op, "attrs": s.attrs}
                fh.write(json.dumps(record) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def per_op_totals(spans):
    """Per operation, per span name: self time, call count and summed attrs.

    Returns ``{op id: {name: {"self_s": ..., "calls": ..., <attr>: ...}}}``.
    """
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(s.op, {}).setdefault(s.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in (s.attrs or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
