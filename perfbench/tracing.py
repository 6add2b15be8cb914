"""Span tracing of designgap from outside the package.

``Tracer.install`` replaces every public function of each designgap module
with a timing wrapper, by assigning the module attribute.  Calls inside the
package look functions up as module globals or as ``module.function``, so
they reach the wrappers too.  Private helpers are not wrapped: they are
called from their own module, whose span their time joins, and some of them
run once per graph edge, where a wrapper would swamp the work it measures.
Per-sample closures that a module hands to ``rng`` (for example the ``shallow_one`` closures that
``experiments`` passes to ``rng.sample_vectors``) are wrapped when they are
passed in, so their bodies are billed to the module that defined them and
``rng``'s self time is its own chunk loop and stream set-up.

Spans are kept in memory as ``(span_id, parent_id, name, start_s, end_s)``;
self time is span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("pauli", "cgraph", "densesim", "groups", "moments", "bounds", "experiments", "rng", "cli")


def _sampler_key(args, kwargs):
    G = args[0] if args else kwargs.get("G")
    return f"{G.kind}.n{G.n}"


class Tracer:
    """Wraps designgap functions and aggregates their spans."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.by_key_calls: dict[str, int] = defaultdict(int)
        self.by_key_s: dict[str, float] = defaultdict(float)
        self.distinct_inputs: dict[str, set] = defaultdict(set)
        self.census_vertices = 0
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 1

    def install(self, package) -> None:
        """Wrap the public functions of every designgap module."""
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                setattr(module, attr, self._wrap(f"{short}.{attr}", obj))

    def _wrap_closure(self, fn):
        if inspect.isfunction(fn) and fn.__module__.startswith("designgap."):
            short = fn.__module__.rsplit(".", 1)[-1]
            return self._wrap(f"{short}.{fn.__qualname__}", fn)
        return fn

    def _wrap(self, name: str, fn):
        sampler = name in ("groups.sample_haar", "groups.sample_shallow")
        distinct = name == "pauli.to_dense"
        census = name == "cgraph.census"
        takes_closures = name.startswith("rng.")
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if takes_closures:
                args = tuple(self._wrap_closure(a) for a in args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                spans.append((span_id, parent, name, start, end))
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if sampler:
                    key = f"{name}.{_sampler_key(args, kwargs)}"
                    self.by_key_calls[key] += 1
                    self.by_key_s[key] += elapsed
                if distinct:
                    self.distinct_inputs[name].add((args, tuple(sorted(kwargs.items()))))
            if census:
                self.census_vertices += sum(c.size for c in result)
            return result

        return wrapper

    def module_self_s(self, short: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == short)
