"""Outside-in span recording around the library's public functions.

The library has no tracing of its own, so spans are recorded by wrapping
functions from here: each wrapper replaces the module attribute and every
alias a ``from ... import`` left in another ``elorantd`` module, so calls
made through either name are seen.  ``Tracer.uninstall`` puts the
originals back.  A target that no longer exists is recorded as absent and
skipped.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: module, attribute path, and span name."""

    module: str
    attr: str  # "func" or "Class.method"
    name: str
    on_result: object = None  # callable(tracer, args, kwargs, result)


@dataclass
class Tracer:
    run_id: str = "run"
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def call(self, name: str, fn, args, kwargs, on_result=None):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id, name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(self, args, kwargs, result)
        return result

    def install(self, targets) -> None:
        for target in targets:
            self._wrap(target)

    def _wrap(self, target: Target) -> None:
        try:
            owner = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target.name)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(target.name, original, args, kwargs, target.on_result)

        self._rebind(owner, attr, wrapper)
        if not path:  # module-level function: rebind its import aliases too
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("elorantd"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, alias, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def begin_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._stack = []


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _outermost(spans: list[Span], key) -> list[bool]:
    """Per span: no ancestor has the same key (so its time is not counted twice)."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        ancestor = by_id.get(s.parent)
        while ancestor is not None and key(ancestor) != key(s):
            ancestor = by_id.get(ancestor.parent)
        out.append(ancestor is None)
    return out


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """busy_s (outermost spans of the layer), calls and self_s per layer."""
    out: dict[str, dict[str, float]] = {}
    rows = zip(spans, self_times(spans), _outermost(spans, lambda s: s.layer))
    for s, own, outermost in rows:
        row = out.setdefault(s.layer, {"busy_s": 0.0, "calls": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        if outermost:
            row["busy_s"] += s.duration
    return out


def function_summary(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """(seconds of outermost calls, call count) per span name."""
    out: dict[str, tuple[float, int]] = {}
    for s, outermost in zip(spans, _outermost(spans, lambda s: s.name)):
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + (s.duration if outermost else 0.0), calls + 1)
    return out


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent is None)
