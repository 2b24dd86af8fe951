"""Span recording and call proxies for the traced benchmark run.

The traced run instruments the program from outside: a proxy around an
emission oracle, a biaser, a scoring session or a language model records one
span per method call and forwards the call unchanged.  A span holds its name,
start, end, parent span and request id.  Spans stay in parallel arrays in
memory until the run ends; a span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from functools import partial
from time import perf_counter


class Tracer:
    """Collects nested spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.requests: list[str] = [""]
        self._request = 0
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_request(self, request: str) -> None:
        """Tag the spans opened from now on with ``request``."""
        self.requests.append(request)
        self._request = len(self.requests) - 1

    def call(self, name_id: int, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``names[name_id]``."""
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.end)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        return span_totals(self.names, self.name, self.parent, self.start, self.end)

    def write(self, path) -> None:
        """Write every span as ``id name start end parent request`` TSV lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id\tname\tstart\tend\tparent\trequest\n")
            for i in range(len(self.end)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t"
                    f"{self.requests[self.request[i]]}\n"
                )


def span_totals(names, name, parent, start, end) -> dict[str, tuple[int, float, float]]:
    """Aggregate spans by name into (calls, total seconds, self seconds).

    Spans are given as parallel sequences indexed by span id; ``parent`` is
    the id of the enclosing span or -1.  Self time subtracts the durations of
    direct children only, so nested layers are not subtracted twice.
    """
    n = len(end)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    for i in range(n):
        k = name[i]
        dur = end[i] - start[i]
        calls[k] += 1
        total[k] += dur
        own[k] += dur - child[i]
    return {nm: (calls[k], total[k], own[k]) for k, nm in enumerate(names)}


class Proxy:
    """Forwards every attribute of ``inner``; method calls become spans.

    Only the methods are wrapped: plain attributes pass through untouched, so
    the program sees the same values it would without the proxy.
    """

    __slots__ = ("inner", "tracer", "step_id")

    def __init__(self, inner, tracer: Tracer, step: str):
        self.inner = inner
        self.tracer = tracer
        self.step_id = tracer.name_id(step)

    def __getattr__(self, attr):
        value = getattr(self.inner, attr)
        if callable(value):
            return partial(self.tracer.call, self.step_id, value)
        return value


class SessionProxy(Proxy):
    """A biasing session: ``clone`` is a ``<layer>.clone`` span and returns a
    proxy; every other method is a ``<layer>.step`` span."""

    __slots__ = ("layer", "clone_id")

    def __init__(self, inner, tracer: Tracer, layer: str):
        super().__init__(inner, tracer, f"{layer}.step")
        self.layer = layer
        self.clone_id = tracer.name_id(f"{layer}.clone")

    def clone(self):
        copy = self.tracer.call(self.clone_id, self.inner.clone)
        return SessionProxy(copy, self.tracer, self.layer)


class BiaserProxy(SessionProxy):
    """A biaser: the sessions ``open_session`` returns are proxied too."""

    __slots__ = ()

    def open_session(self):
        session = self.tracer.call(self.step_id, self.inner.open_session)
        return SessionProxy(session, self.tracer, self.layer)


class OracleProxy(Proxy):
    """An emission oracle: ``score`` is a ``decode.oracle`` span, and every
    token it scores is counted as one decode candidate."""

    __slots__ = ()

    def __init__(self, inner, tracer: Tracer):
        super().__init__(inner, tracer, "decode.oracle")

    def score(self, utt_id, history):
        scores = self.tracer.call(self.step_id, self.inner.score, utt_id, history)
        self.tracer.counts["decode.candidates"] += len(scores)
        return scores
