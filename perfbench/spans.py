"""In-memory spans recorded at the module boundaries of casimir_lens.

A caller finds a function through the globals of its own module, so
``from .engine import casimir_force`` in ``cli`` is a second binding that a
patch of ``engine.casimir_force`` alone would never see.  The tracer
therefore replaces every binding of the traced function object in every
module of the package, and puts the originals back on exit.

Each call through a patched binding appends one span (name, start, end,
parent, work) to a list kept in memory; self time is computed afterwards
from the spans.  A layer that a workload must cross but that recorded no
call means some caller reaches the function by a route the patch missed,
and ``require_calls`` turns that into an error instead of a silent zero.
"""

import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


class TraceError(RuntimeError):
    """A boundary could not be patched or recorded no calls where it must."""


@dataclass(frozen=True)
class Boundary:
    """One traced function: the layer name its spans carry and where it lives.

    ``work`` maps the function's result to a count of work items (nodes,
    elements, terms); None records no count.
    """

    name: str
    module: str
    attr: str
    work: Optional[Callable[[object], int]] = None


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 work: int = 0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.work = work


@dataclass
class LayerStats:
    calls: int = 0
    work: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def self_times(spans: list) -> list:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so no instant is subtracted twice.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, edge = 0.0, span.start
        for lo, hi in sorted((spans[k].start, min(spans[k].end, span.end))
                             for k in kids):
            if hi > edge:
                covered += hi - max(lo, edge)
                edge = hi
        out.append(span.end - span.start - covered)
    return out


def layer_stats(spans: list) -> dict:
    """Calls, summed work, self and total seconds per layer name."""
    stats: dict = {}
    for span, own in zip(spans, self_times(spans)):
        st = stats.setdefault(span.name, LayerStats())
        st.calls += 1
        st.work += span.work
        st.self_s += own
        st.total_s += span.end - span.start
    return stats


def child_calls(spans: list, parent_name: str, child_name: str) -> int:
    """Number of `child_name` spans whose direct parent is a `parent_name` span."""
    return sum(1 for s in spans
               if s.name == child_name and s.parent >= 0
               and spans[s.parent].name == parent_name)


def require_calls(stats: dict, names, context: str) -> None:
    """Raise TraceError if any layer in `names` recorded zero calls."""
    missing = [n for n in names if stats.get(n, LayerStats()).calls == 0]
    if missing:
        raise TraceError(
            f"{context}: no calls recorded at {', '.join(missing)}; a caller "
            "reaches these functions through a binding the tracer did not "
            "patch, or the function moved")


class Tracer:
    """Context manager that patches every binding of each boundary function.

    Traced code must run on one thread: the parent of a span is the span
    open on the tracer's single stack.
    """

    def __init__(self, boundaries, package: str = "casimir_lens"):
        self.boundaries = list(boundaries)
        self.package = package
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, boundary: Boundary):
        spans, stack = self.spans, self._stack
        name, work = boundary.name, boundary.work
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), math.nan, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if work is not None:
                span.work = int(work(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        targets = []
        for b in self.boundaries:
            try:
                targets.append((getattr(importlib.import_module(b.module), b.attr), b))
            except (ImportError, AttributeError) as exc:
                raise TraceError(f"cannot trace {b.name}: {exc}") from None
        prefix = self.package + "."
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == self.package
                                           or name.startswith(prefix))]
        for fn, b in targets:
            wrapper = self._wrap(fn, b)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
