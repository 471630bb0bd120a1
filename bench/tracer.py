"""Outside-in span tracing of the package's public functions.

The tracer rebinds chosen functions to timing wrappers, so the package
itself is not changed.  Each call records one span: name, start, end,
parent span, and ``ru_maxrss`` at span end.  A span's *busy* time is the
time spent inside the call; for a generator it is the sum of the intervals
spent inside its ``next`` calls, which is where a generator does its work.
A span's *self* time is its busy time minus the busy time of the spans that
ran while it was the innermost one.

Two scopes decide which calls are seen:

* ``package``: the name is rebound in every module of the package that
  holds it, the defining module included, so calls between and within
  modules are traced.  Used for coarse functions only.
* ``caller``: the name is rebound only in the top-level package namespace,
  which no module of the package calls through; only the benchmark's own
  calls are traced.  Used for functions the package calls in hot loops.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import resource
import sys
import time

clock = time.perf_counter

# (module, function, scope); the span name is "<module>.<function>".
TRACED = (
    ("words", "enumerate_words", "package"),
    ("rsjdt", "all_cells", "package"),
    ("rsjdt", "rs_tableau", "caller"),
    ("rsjdt", "project_tableau", "package"),
    ("tableau", "enumerate_tableaux", "package"),
    ("orders", "chain_poset", "package"),
    ("orders", "duflo_poset", "package"),
    ("orders", "chain_profile", "package"),
    ("orders", "chain_leq", "caller"),
    ("orders", "hasse_reduce", "package"),
    ("orders", "poset_to_json", "package"),
    ("twocol", "canonical_word", "package"),
    ("twocol", "fast_leq", "package"),
    ("twocol", "cover", "package"),
    ("verify", "run_suite", "package"),
    ("textio", "parse_tableau", "package"),
    ("textio", "parse_word", "package"),
    ("textio", "format_tableau", "package"),
    ("textio", "format_word", "package"),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "child", "rss_kb", "items")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = clock()
        self.end = 0.0
        self.busy = 0.0
        self.child = 0.0
        self.rss_kb = 0
        self.items = 0

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "busy": self.busy,
                "self": self.self_time, "rss_kb": self.rss_kb, "items": self.items}


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> float:
        self.stack.append(span)
        return clock()

    def leave(self, span: Span, started: float) -> None:
        elapsed = clock() - started
        self.stack.pop()
        span.busy += elapsed
        if self.stack:
            self.stack[-1].child += elapsed

    @staticmethod
    def close(span: Span) -> None:
        span.end = clock()
        span.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        span = self.open(name)
        started = self.enter(span)
        try:
            yield span
        finally:
            self.leave(span, started)
            self.close(span)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = self.open(name)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        started = self.enter(span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.leave(span, started)
                        span.items += 1
                        yield item
                finally:
                    inner.close()
                    self.close(span)
            return traced_gen

        # Written out rather than through ``span``: a generator-based
        # context manager costs more on calls made tens of thousands of times.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            started = self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(span, started)
                self.close(span)
        return traced

    def install(self, package) -> None:
        """Rebind every function in ``TRACED`` to a traced wrapper."""
        prefix = package.__name__ + "."
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(prefix)]
        for module_name, fn_name, scope in TRACED:
            original = getattr(sys.modules[prefix + module_name], fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            targets = modules if scope == "package" else [package]
            for module in targets:
                if getattr(module, fn_name, None) is original:
                    self._restore.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._restore):
            setattr(module, fn_name, original)
        self._restore.clear()


def calibrate(calls: int = 20000) -> tuple[float, float]:
    """Seconds the wrappers add to one traced call and to one generator
    item, measured on a no-op function and a generator of ``calls`` items."""
    def noop():
        return None

    def items():
        yield from range(calls)

    def cost(run) -> float:
        started = clock()
        run()
        return clock() - started

    tracer = Tracer()
    traced, traced_items = tracer.wrap("noop", noop), tracer.wrap("items", items)
    with tracer.span("root"):
        per_call = cost(lambda: [traced() for _ in range(calls)])
        per_item = cost(lambda: list(traced_items()))
    bare_call = cost(lambda: [noop() for _ in range(calls)])
    bare_item = cost(lambda: list(items()))
    return (max(per_call - bare_call, 0.0) / calls,
            max(per_item - bare_item, 0.0) / calls)
