"""In-memory spans around calls into the solver's modules.

`Tracer.installed()` replaces module attributes with wrappers for as long
as the context is open, so the library itself carries no tracing code.
Each wrapper appends one span (name, start, end, parent, operation id);
an optional hook then reads counts off the call's arguments and result,
inside a `trace.counters` span of its own so its cost never lands in a
layer's self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                counters = self._open("trace.counters")
                try:
                    hook(self.counts, args, result)
                finally:
                    self._close(counters)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """targets: (owner, attribute, span name, hook or None) tuples."""
        saved = []
        try:
            for owner, attr, name, hook in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, call count."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for s, self_time in zip(self.spans, self.self_times()):
            total[s[NAME]] += s[END] - s[START]
            own[s[NAME]] += self_time
            calls[s[NAME]] += 1
        return total, own, calls

    def outside(self, outer: set, inner: str) -> float:
        """Summed duration of the outermost spans named in `outer`, minus
        the `inner` spans anywhere below them (`inner` spans never nest)."""
        under_outer = [False] * len(self.spans)
        spent = 0.0
        for i, s in enumerate(self.spans):
            below = s[PARENT] is not None and under_outer[s[PARENT]]
            if not below and s[NAME] in outer:
                spent += s[END] - s[START]
                below = True
            elif below and s[NAME] == inner:
                spent -= s[END] - s[START]
            under_outer[i] = below
        return spent

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for i, (s, self_time) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "self": self_time,
                }) + "\n")
