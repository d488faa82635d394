"""Span recording for the traced run.

Wrappers are installed from outside on the attributes the library calls
through (module globals such as ``pifinite.spaces.p_loop_decomposition`` and
methods on ``FiniteGroup``), so no library code changes.  Every module
attribute that is the original function object gets the wrapper, which keeps
the trace right when a later change moves an import.  Spans stay in memory
until the run ends.

A span is ``(name, start, end, parent, op)``; ``parent`` indexes the span
list and ``op`` is the id of the benchmark op that caused it.  Self time is a
span's duration minus the durations of its direct children (calls nest, so
children never overlap).  Only spans inside an op count towards the totals.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = ("pifinite", "pifinite.groups", "pifinite.spaces", "pifinite.parser",
           "pifinite.heights", "pifinite.quadforms", "pifinite.cli")

# span name -> (defining module, function name)
FUNCTIONS = {
    "groups.direct_product": ("pifinite.groups", "direct_product"),
    "groups.wreath_cyclic": ("pifinite.groups", "wreath_cyclic"),
    "groups.p_loop_decomposition": ("pifinite.groups", "p_loop_decomposition"),
    "groups.count_commuting_p_tuples": ("pifinite.groups", "count_commuting_p_tuples"),
    "spaces.height_cardinality": ("pifinite.spaces", "height_cardinality"),
    "spaces.p_adic_loop": ("pifinite.spaces", "p_adic_loop"),
    "spaces.normal_form": ("pifinite.spaces", "normal_form"),
    "parser.parse_space": ("pifinite.parser", "parse_space"),
    "parser.parse_group": ("pifinite.parser", "parse_group"),
    "heights.height_profile": ("pifinite.heights", "height_profile"),
    "heights.delta_iter": ("pifinite.heights", "delta_iter"),
    "heights.beta_element": ("pifinite.heights", "beta_element"),
    "heights.alpha_splitter": ("pifinite.heights", "alpha_splitter"),
    "heights.verify_wreath_identity": ("pifinite.heights", "verify_wreath_identity"),
    "quadforms.count_null_square_two_forms": ("pifinite.quadforms",
                                              "count_null_square_two_forms"),
}
METHODS = {
    "groups.subgroup": "subgroup",
    "groups.centralizer_subgroup": "centralizer_subgroup",
    "groups.conjugacy_classes": "conjugacy_classes",
}

clock = time.perf_counter   # CLOCK_MONOTONIC on Linux, so comparable across processes
OUT_DIR = ".perfbench_runs"   # results and span files, relative to the checkout root


def height_cache_counts():
    """(hits, misses) of the library's height cache, or None once it is gone."""
    spaces = importlib.import_module("pifinite.spaces")
    cached = getattr(spaces, "_height_cardinality", None)
    if not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return info.hits, info.misses


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []            # frames: [span index, child time]
        self.op = None
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._saved: list = []
        self._cache_at_install = None

    # -- recording ------------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([name, clock(), None, parent, self.op])
        self.stack.append([len(self.spans) - 1, 0.0])

    def leave(self) -> None:
        end = clock()
        index, child = self.stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        if self.stack:
            self.stack[-1][1] += duration
        if span[4] is not None:
            self.self_s[span[0]] += duration - child
            self.calls[span[0]] += 1

    def call(self, span_name, fn, /, *args, **kwargs):
        self.enter(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    # -- installation ---------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap_function(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
                if extra is not None and self.op is not None:
                    extra(result)
                return result
            finally:
                self.leave()
        return wrapper

    def install(self) -> None:
        groups = importlib.import_module("pifinite.groups")
        self.absent = []
        self._cache_at_install = height_cache_counts()
        for name, (modname, attr) in FUNCTIONS.items():
            fn = getattr(importlib.import_module(modname), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            extra = None
            if name == "quadforms.count_null_square_two_forms":
                def extra(report):
                    self.counts["quadforms.forms_enumerated"] += report.total_forms
            self._replace(fn, self._wrap_function(name, fn, extra))

        build = getattr(groups, "build_group", None)
        if build is not None:
            @functools.wraps(build)
            def build_group(descriptor, *args, **kwargs):
                kind = type(descriptor).__name__.lower()
                return self.call(f"groups.build_group.{kind}", build, descriptor, *args, **kwargs)
            self._replace(build, build_group)

        cls = groups.FiniteGroup
        init = cls.__init__

        @functools.wraps(init)
        def __init__(group, *args, **kwargs):
            validate = kwargs.get("validate", True)
            name = "groups.FiniteGroup.validated" if validate else "groups.FiniteGroup.unvalidated"
            self.call(name, init, group, *args, **kwargs)
            if self.op is not None:
                self.counts["groups.tables_built"] += 1
                self.counts["groups.tables_validated"] += bool(validate)
                self.counts["groups.table_cells"] += group.order ** 2
        self._saved.append((cls, "__init__", init))
        cls.__init__ = __init__

        for name, attr in METHODS.items():
            method = getattr(cls, attr, None)
            if method is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap_function(name, method)
            if attr == "centralizer_subgroup":
                wrapped = self._count_reuse(wrapped)
            self._saved.append((cls, attr, method))
            setattr(cls, attr, wrapped)

    def _count_reuse(self, wrapped):
        @functools.wraps(wrapped)
        def centralizer_subgroup(*args, **kwargs):
            before = self.calls["groups.subgroup"]
            result = wrapped(*args, **kwargs)
            if self.op is not None and self.calls["groups.subgroup"] == before:
                self.counts["groups.centralizer.reused"] += 1
            return result
        return centralizer_subgroup

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []
        now = height_cache_counts()
        if now is None or self._cache_at_install is None:
            self.absent = sorted(set(self.absent) | {"spaces.height_cache"})
        else:
            self.counts["spaces.height_cache.hits"] += now[0] - self._cache_at_install[0]
            self.counts["spaces.height_cache.misses"] += now[1] - self._cache_at_install[1]

    # -- merging a child process's spans ---------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "self_s": dict(self.self_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "absent": self.absent}

    def merge(self, data: dict, parent: int) -> None:
        """Adopt a child process's spans under the span at index ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, _ in data["spans"]:
            self.spans.append([name, start, end, parent if up is None else up + offset,
                               self.spans[parent][4]])
        child_time = sum(s[2] - s[1] for s in data["spans"] if s[3] is None)
        self.self_s[self.spans[parent][0]] -= child_time
        for key, value in data["self_s"].items():
            self.self_s[key] += value
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        self.absent = sorted(set(self.absent) | set(data["absent"]))
