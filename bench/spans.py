"""In-memory span recorder used by the traced benchmark run.

Spans are opened by the benchmark around its own calls into the package's
public functions; nothing inside the package is wrapped.  A span records its
name, start and end (perf_counter seconds), the id of the enclosing span and
the id of the operation (grid scan, pair, CLI invocation) it belongs to.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans when enabled; a disabled tracer only runs the calls."""

    def __init__(self, enabled: bool, clock):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    def new_op(self) -> int:
        """Start a new operation; spans opened from now on carry its id."""
        self._op = self._next_op
        self._next_op += 1
        return self._op

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the block; yields the Span (None when disabled)
        so the block can add attributes it learns."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, self.clock(), 0.0, parent, self._op, attrs)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        with self.span(name, **(attrs or {})):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of that interval
    covered by its direct children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_key(span: Span) -> tuple[str, str]:
    """(name, suffix) of a span, the suffix naming its kind and n attributes."""
    suffix = ""
    if "kind" in span.attrs:
        suffix += f".{span.attrs['kind']}"
    if "n" in span.attrs:
        suffix += f".n{span.attrs['n']}"
    return span.name, suffix


def per_call_self_seconds(spans: list[Span], key=layer_key) -> dict:
    """Mean self seconds per call and call count of the spans, grouped by key."""
    selfs = self_times(spans)
    total: dict = {}
    calls: dict = {}
    for s in spans:
        k = key(s)
        total[k] = total.get(k, 0.0) + selfs[s.id]
        calls[k] = calls.get(k, 0) + 1
    return {k: (total[k] / calls[k], calls[k]) for k in total}
