"""Spans around the public functions of each `necs` module, installed from
the benchmark's side (the library itself carries no tracing).

A span covers one call of a wrapped function; for a generator function it
covers each `next()` separately, so the time is charged to the stream while
it produces items and not when the generator object is created.  Spans
nest: the span open when another starts is its parent.  A span's self time
is its duration minus the time covered by its child spans, and each layer
metric sums the self time of its spans, so every second of a command lands
in exactly one layer.  Spans are folded into per-name totals as they close,
which keeps memory flat on streams of hundreds of thousands of items.

A wrapped function that calls itself (directly or through another binding)
while its own span is innermost runs unwrapped inside that span, so deep
recursion does not pay for a span per level.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

_now = time.perf_counter

#: (module, attribute, span name, kind); kind is "call", "gen" (timed per
#: next()), "count" (calls counted, no span) or "cache" (see wrap_cached).
#: Every module namespace that binds the same function object is patched.
TARGETS = (
    ("series", "revert", "series.revert", "call"),
    ("series", "compose", "series.compose", "call"),
    ("series", "mul", "series.mul", "count"),
    ("counting", "count_size_gcd", "counting.size_gcd", "cache"),
    ("counting", "count_size_gcd_lcm", "counting.size_gcd_lcm", "call"),
    ("asymptotics", "find_tau", "asymptotics.roots", "call"),
    ("asymptotics", "find_alpha", "asymptotics.roots", "call"),
    ("asymptotics", "find_beta", "asymptotics.roots", "call"),
    ("asymptotics", "constants", "asymptotics.roots", "call"),
    ("asymptotics", "identity_checks", "asymptotics.identities", "call"),
    ("asymptotics", "ratio_check", "asymptotics.ratio", "call"),
    ("asymptotics", "gcd_ratio_check", "asymptotics.ratio", "call"),
    ("polybasis", "backward_difference_check", "polybasis.diffs", "call"),
    ("enumeration", "enumerate_necs", "enumeration.necs", "gen"),
    ("enumeration", "enumerate_shift_classes", "enumeration.shift", "gen"),
    ("enumeration", "shift_class_count", "enumeration.shift", "call"),
    ("enumeration", "enumerate_ecs", "enumeration.ecs", "gen"),
    ("enumeration", "count_ecs", "enumeration.ecs", "call"),
    ("congruence", "is_exact", "congruence.is_exact", "call"),
    ("congruence", "naturality_witness", "congruence.witness", "call"),
    ("congruence", "is_natural", "congruence.witness", "call"),
    ("congruence", "parse_system_text", "congruence.parse", "call"),
    ("congruence", "parse_system_json", "congruence.parse", "call"),
    ("congruence", "format_system_text", "congruence.format", "call"),
    ("congruence", "format_system_json", "congruence.format", "call"),
    ("trees", "enumerate_trees", "trees.enumerate", "gen"),
    ("trees", "format_tree", "trees.format", "call"),
)

#: spans whose individual durations are kept, for per-call percentiles
KEEP_DURATIONS = ("congruence.is_exact",)

CACHE_HIT = "counting.cache_hit"
SYSTEM_BUILD = "congruence.system_build"


class Tracer:
    """Span stack plus per-name totals: self time, calls, items yielded."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child_seconds]
        self.reset()

    def reset(self) -> None:
        """Forget all totals (between passes; no span may be open)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = {name: [] for name in KEEP_DURATIONS}

    def innermost(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def open(self, name: str) -> tuple[int, float]:
        depth = len(self.stack)
        self.stack.append([name, 0.0])
        return depth, _now()

    def close(self, name: str, token: tuple[int, float]) -> None:
        """Close the span opened with `token`.  Spans above it that never
        closed (a RecursionError can strike inside a wrapper) are dropped."""
        depth, start = token
        duration = _now() - start
        child = self.stack[depth][1]
        del self.stack[depth:]
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if name in self.durations:
            self.durations[name].append(duration)
        if self.stack:
            self.stack[-1][1] += duration

    def span(self, name: str, fn, *args, **kwargs):
        token = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, token)

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.innermost() == name:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def wrap_gen(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.innermost() == name:
                return fn(*args, **kwargs)
            return self._timed_iter(name, fn(*args, **kwargs))

        return wrapper

    def _timed_iter(self, name: str, gen):
        while True:
            token = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(name, token)
            self.items[name] += 1
            yield item

    def wrap_count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_cached(self, name: str, fn):
        """count_size_gcd, charged to CACHE_HIT when its cache file existed at
        call time (the table is read back instead of computed), else to name."""
        plain = self.wrap_call(name, fn)

        @functools.wraps(fn)
        def wrapper(max_size, cache_path=None):
            if cache_path and os.path.exists(cache_path):
                return self.span(CACHE_HIT, fn, max_size, cache_path)
            return plain(max_size, cache_path)

        return wrapper

    def wrap_init(self, init):
        @functools.wraps(init)
        def wrapper(obj, classes):
            return self.span(SYSTEM_BUILD, init, obj, classes)

        return wrapper


class Installed:
    """The wrappers installed into the `necs` modules; `remove()` puts every
    original binding back."""

    def __init__(self, tracer: Tracer):
        self.undo: list[tuple[object, str, object]] = []
        modules = {
            name: importlib.import_module(f"necs.{name}")
            for name in ("series", "counting", "asymptotics", "polybasis",
                         "enumeration", "congruence", "trees", "cli")
        }
        namespaces = list(modules.values()) + [importlib.import_module("necs")]
        for module_name, attr, span_name, kind in TARGETS:
            original = getattr(modules[module_name], attr)
            if kind == "cache":
                wrapped = tracer.wrap_cached(span_name, original)
            elif kind == "gen":
                wrapped = tracer.wrap_gen(span_name, original)
            elif kind == "count":
                wrapped = tracer.wrap_count(span_name, original)
            else:
                wrapped = tracer.wrap_call(span_name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self.undo.append((ns, key, value))
                        setattr(ns, key, wrapped)
        system_class = modules["congruence"].CoveringSystem
        self.undo.append((system_class, "__init__", system_class.__init__))
        system_class.__init__ = tracer.wrap_init(system_class.__init__)

    def remove(self) -> None:
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo.clear()
