"""In-memory span recorder used by the traced benchmark runs.

A span records its name, start, end and parent.  Spans are kept in a list
and written out once, at the end of a run.  A span's self time is its
duration minus the time its child spans cover; the pass runs on one thread,
so children never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent])

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects spans of one traced pass (or several, one root each)."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_cover[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), cover in zip(self.spans, child_cover):
            out[name] += (end - start) - cover
        return dict(out)

    def check_nesting(self) -> None:
        """Raise if a span is still open or lies outside its parent."""
        if self.stack:
            raise RuntimeError(f"span {self.spans[self.stack[-1]][0]!r} left open")
        for name, start, end, parent in self.spans:
            if end < start:
                raise RuntimeError(f"span {name!r} ends before it starts")
            if parent is not None:
                _pname, pstart, pend, _ = self.spans[parent]
                if start < pstart or end > pend:
                    raise RuntimeError(f"span {name!r} lies outside its parent")

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


class NullTracer:
    """Same interface, records nothing: used by the untraced runs."""

    def span(self, name: str):
        return nullcontext()


@contextmanager
def instrumented(tracer: Tracer, patches):
    """Wrap module functions in spans for the duration of a traced pass.

    ``patches`` holds ``(module, attribute, span name, hook)`` tuples.  The
    wrapper runs the original inside a span; a generator result is drained
    inside the span so the span covers the work, not just its creation.
    ``hook(result, args, kwargs)``, when given, runs after the span closes
    and feeds the benchmark's counters.
    """
    saved = []
    try:
        for module, attr, name, hook in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _wrap(tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
            if hasattr(result, "__next__"):
                result = list(result)
        if hook is not None:
            hook(result, args, kwargs)
        return result

    return wrapper
