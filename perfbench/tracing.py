"""In-memory span tracer, wrapping helpers and the Chrome trace writer.

Spans are recorded from outside the program: :meth:`Tracer.patch`
replaces a public entry point (a class method, a module function or a
bound method on one object) with a wrapper that records ``(name, start,
end, parent, thread)``.  The parent is the innermost open span on the
same thread.  Spans stay in memory until :func:`write_chrome_trace`
dumps them as Chrome trace-event JSON (stdlib ``json`` only), which
opens in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans and named counters; thread-safe."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # One list per span: [name, start, end, parent index, thread id].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, self.clock(), None, parent, threading.get_ident()])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack().pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording a span ``name``; ``after(result, args,
        kwargs)`` runs inside the span once ``fn`` returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                self.end(idx)

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with its traced wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def closed_spans(self) -> list[list]:
        return [s for s in self.spans if s[2] is not None]


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its child
    spans cover (the union of their intervals, clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] is not None and s[2] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_name, start, end, _parent, _tid) in enumerate(spans):
        if end is None:
            out.append(0.0)
            continue
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``busy`` and ``self`` time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        if s[2] is None:
            continue
        t = out.setdefault(s[0], {"calls": 0, "busy": 0.0, "self": 0.0})
        t["calls"] += 1
        t["busy"] += s[2] - s[1]
        t["self"] += own
    return out


def write_chrome_trace(path: str, spans: list[list], origin: float) -> None:
    """Write closed spans as Chrome trace-event JSON (complete events,
    microseconds since ``origin``, one track per thread)."""
    pid = os.getpid()
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"id": i, "parent": parent},
        }
        for i, (name, start, end, parent, tid) in enumerate(spans)
        if end is not None
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
