"""Spans and call counters recorded from outside the package.

A `Tracer` wraps public functions of the installed ``hypermodes`` modules
with `perf_counter` spans (name, start, end, parent span id) and call
counters. Every module-level reference to a wrapped function is rebound,
found by identity across the ``hypermodes.*`` modules, so a name imported
into another module (``cli.run`` is ``solver.run``) is traced as well.
`uninstall` restores every reference. Nothing here is imported by the
package; an untraced run executes the package unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# span record fields
SID, NAME, START, END, PARENT = range(5)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hypermodes"
                                  or name.startswith("hypermodes."))]


class Tracer:
    """In-memory spans, call counters and gauges for one traced operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn, gauge=None):
        """`fn` with a span named `name`; `gauge(*args, **kwargs)`, when
        given, sets the gauge `name` from the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(tracer.spans), name, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(rec)
            tracer.calls[name] += 1
            if gauge is not None:
                try:
                    tracer.gauges[name] = gauge(*args, **kwargs)
                except (TypeError, AttributeError, IndexError):
                    tracer.gauges[name] = None  # the signature changed
            tracer._stack.append(rec[SID])
            tracer._open[name] += 1
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1

        return traced

    def count_inside(self, name: str, fn, inside: str):
        """`fn` counted under `name` when called inside an open `inside`
        span; no span is recorded."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._open[inside]:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _lookup(self, name, module, attr):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return None, None
        return mod, fn

    def install_function(self, name: str, module: str, attr: str, gauge=None):
        """Trace `module.attr` and every package-level reference to it."""
        _, fn = self._lookup(name, module, attr)
        if fn is not None:
            self._rebind(fn, self.wrap(name, fn, gauge))

    def install_method(self, name: str, module: str, cls: str, attr: str):
        _, klass = self._lookup(name, module, cls)
        fn = klass.__dict__.get(attr) if klass is not None else None
        if fn is None:
            if klass is not None:
                self.absent.append(name)
            return
        setattr(klass, attr, self.wrap(name, fn))
        self._undo.append(lambda: setattr(klass, attr, fn))

    def install_counter(self, name: str, module: str, attr: str, inside: str):
        """Count calls of `module.attr` (any module) made inside `inside`."""
        mod, fn = self._lookup(name, module, attr)
        if fn is not None:
            setattr(mod, attr, self.count_inside(name, fn, inside))
            self._undo.append(lambda: setattr(mod, attr, fn))

    def _rebind(self, fn, wrapped):
        for mod in _package_modules():
            space = vars(mod)
            for key, val in list(space.items()):
                if val is fn:
                    space[key] = wrapped
                    self._undo.append(
                        lambda s=space, k=key: s.__setitem__(k, fn))
                elif isinstance(val, dict):
                    # registries: apps.PRESETS maps names to (params, preset)
                    for k, v in list(val.items()):
                        if isinstance(v, tuple) and any(x is fn for x in v):
                            val[k] = tuple(wrapped if x is fn else x for x in v)
                            self._undo.append(
                                lambda d=val, k=k, v=v: d.__setitem__(k, v))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


# --- analysis ----------------------------------------------------------------


def durations(spans, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_self(spans) -> Counter:
    """Self time summed by layer, the span name's first component."""
    out = Counter()
    for s, t in zip(spans, self_times(spans)):
        out[s[NAME].split(".", 1)[0]] += t
    return out


def inclusive(spans, member) -> float:
    """Time inside spans for which `member(name)` holds, each instant
    counted once: spans nested in another member span are skipped."""
    covered = [False] * len(spans)
    total = 0.0
    for s in spans:
        p = s[PARENT]
        under = p >= 0 and (covered[p] or member(spans[p][NAME]))
        covered[s[SID]] = under
        if member(s[NAME]) and not under:
            total += s[END] - s[START]
    return total


def root_time(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
