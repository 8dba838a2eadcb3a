"""In-memory span tracer that instruments the program from outside.

The tracer never edits the program: :meth:`Tracer.wrap` substitutes an
attribute (a method on a class, or a function on the module where the
caller looks it up) with a timing wrapper, and :meth:`Tracer.uninstall`
puts every original back.  Spans carry a name, monotonic start/end, the
enclosing span on the same thread, and a request id; they stay in memory
and are written to JSONL once the run is over.

A layer's *self time* is its span's duration minus the time covered by
its same-thread child spans (children nest strictly on one thread).  The
compiler's own per-pass timings (``CompiledProgram.pass_events``) are
folded in as synthetic children of the compile span, so pass and mapping
time is carved out of ``core.compile`` rather than double counted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    """One timed call into a layer."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "thread",
                 "request", "child_s")

    def __init__(self, span_id: int, name: str, parent: "Span | None",
                 request: str | None) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent.span_id if parent is not None else None
        self.thread = threading.get_ident()
        self.request = request
        self.start = time.perf_counter()
        self.end = self.start
        #: seconds covered by same-thread children (spans and pass events)
        self.child_s = 0.0

    def as_dict(self) -> dict:
        """The JSONL record of this span."""
        return {"id": self.span_id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "request": self.request,
                "start": self.start, "end": self.end}


class Tracer:
    """Collects spans from wrapped entry points; not active until installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: synthetic child time and event count by layer name (compiler
        #: pass events)
        self.event_s: dict[str, float] = defaultdict(float)
        self.event_n: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: str | None) -> None:
        """Tag spans opened on this thread with ``request`` from now on."""
        self._local.request = request

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the enclosed block as a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = getattr(self._local, "request", None)
        span = Span(next(self._ids), name, parent, request)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start
            self.spans.append(span)

    # ------------------------------------------------------------------
    # attribute substitution
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None,
             request_of=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``after(span, result)`` runs inside the span once the call
        returned; the compile wrapper uses it to fold pass events in.
        ``request_of(*args)`` names the request the call serves; spans
        opened beneath it on the same thread inherit that id.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if request_of is not None:
                self.set_request(request_of(*args))
            try:
                with self.span(name) as span:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(span, result)
                    return result
            finally:
                if request_of is not None:
                    self.set_request(None)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_cached_property(self, owner: type, attr: str, name: str) -> None:
        """Time the first (computing) access of a ``cached_property``."""
        prop = owner.__dict__[attr]
        original = prop.func

        @functools.wraps(original)
        def wrapper(instance):
            with self.span(name):
                return original(instance)

        self._patches.append((prop, "func", original))
        prop.func = wrapper

    def uninstall(self) -> None:
        """Restore every substituted attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def add_events(self, span: Span, events) -> None:
        """Fold compiler pass events into ``span`` as synthetic children.

        A compile served from the process compile cache hands back the
        original compile's events; their summed time then exceeds the
        span itself, and they are skipped instead of counted twice.
        """
        elapsed = time.perf_counter() - span.start
        total = sum(event.wall_s for event in events)
        if total > elapsed:
            return
        for event in events:
            self.event_s[event_layer(event.name)] += event.wall_s
            self.event_n[event_layer(event.name)] += 1
        span.child_s += total

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def self_time(self) -> dict[str, float]:
        """Self seconds per span name, plus pass-event layers."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += max(0.0, span.end - span.start - span.child_s)
        for name, seconds in self.event_s.items():
            out[name] += seconds
        return out

    def calls(self) -> dict[str, int]:
        """Spans (or pass events) recorded per layer name."""
        out: dict[str, int] = defaultdict(int, self.event_n)
        for span in self.spans:
            out[span.name] += 1
        return out

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans (any thread)."""
        intervals = sorted((max(s.start, start), min(s.end, end))
                           for s in self.spans
                           if s.parent is None and s.end > start
                           and s.start < end)
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / (end - start) if end > start else 0.0

    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object per line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.as_dict()) + "\n")


def event_layer(pass_name: str) -> str:
    """The per-layer name a compiler pass event is charged to."""
    if pass_name.startswith("map-"):
        return "mapping.map"
    if pass_name.startswith("ladder:"):
        return "core.ladder"
    return f"core.pass.{pass_name}"
