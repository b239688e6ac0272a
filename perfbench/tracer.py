"""In-memory span tracing for the traced benchmark run.

The tracer wraps public functions of each ``repro`` layer from the outside
(the program itself is not edited) and records one span per call: name,
start, end, parent and thread. A span's parent is the innermost span still
open on the same thread, so the spans of one thread nest, and a span's
self time is its duration minus the time its children cover.

Functions are patched where their caller looks them up: a module that did
``from .el2n import prune_dataset`` is patched on that module, not on
``repro.core.el2n``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    thread: int = 0
    child_time: float = 0.0
    #: a span nested (at any depth) in one of the same name; its time is
    #: already inside that outer span's busy time
    nested: bool = False
    count: int = 0        # work units the call reported (rows, candidates)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0     # wall time inside outermost spans of the name
    self_s: float = 0.0     # wall time inside the name, minus its children
    count: int = 0          # summed work units


class Tracer:
    """Records spans around patched functions; ``install``/``remove``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        nested = False
        walk = parent
        while walk is not None:
            if walk.name == name:
                nested = True
                break
            walk = walk.parent
        span = Span(name=name, start=time.perf_counter(), parent=parent,
                    thread=threading.get_ident(), nested=nested)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching ------------------------------------------------------
    def wrap(self, target: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Patch ``module:attr`` or ``module:Class.method`` with a span.

        ``count(args, kwargs, result)`` may return the call's work units.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        self.wrap_object(owner, parts[-1], name, count)

    def wrap_object(self, owner, attr: str, name: str,
                    count: Optional[Callable] = None) -> None:
        """Patch ``owner.attr`` (a module or class attribute) with a span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.count = int(count(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, targets: Sequence[Tuple]) -> "Tracer":
        for target in targets:
            self.wrap(*target)
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------
    def window(self, start: float, end: float) -> List[Span]:
        """Spans that began inside ``[start, end]``."""
        return [s for s in self.spans if start <= s.start <= end]


def _noop() -> None:
    return None


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a wrapped no-op."""
    probe = type("Probe", (), {"call": staticmethod(_noop)})
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(calls):
        probe.call()
    bare = time.perf_counter() - start
    tracer.wrap_object(probe, "call", "probe")
    start = time.perf_counter()
    for _ in range(calls):
        probe.call()
    traced = time.perf_counter() - start
    tracer.remove()
    return max(traced - bare, 0.0) / calls


def layer_stats(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Per-name calls, busy, self time and work units."""
    table: Dict[str, LayerStats] = {}
    for span in spans:
        row = table.setdefault(span.name, LayerStats())
        row.calls += 1
        row.self_s += span.self_time
        row.count += span.count
        if not span.nested:
            row.busy_s += span.duration
    return table


def render_table(stats: Dict[str, LayerStats], wall: float) -> str:
    """Plain-text per-layer table, heaviest self time first."""
    lines = [f"{'span':34s} {'calls':>8s} {'busy_s':>9s} {'self_s':>9s} "
             f"{'self%':>6s}"]
    for name, row in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        share = 100.0 * row.self_s / wall if wall > 0 else 0.0
        lines.append(f"{name:34s} {row.calls:8d} {row.busy_s:9.4f} "
                     f"{row.self_s:9.4f} {share:6.1f}")
    return "\n".join(lines)


def spans_payload(spans: Sequence[Span]) -> dict:
    """Compact JSON form: one row per span, parents as row indexes."""
    index = {id(span): i for i, span in enumerate(spans)}
    names: Dict[str, int] = {}
    rows = []
    for span in spans:
        parent = index.get(id(span.parent), -1) if span.parent else -1
        name_id = names.setdefault(span.name, len(names))
        rows.append([name_id, round(span.start, 7), round(span.end, 7),
                     parent, span.thread])
    return {"names": list(names), "columns":
            ["name", "start", "end", "parent", "thread"], "spans": rows}
