"""In-memory spans around calls into the program's public functions.

A span is [name, parent, start, end], where parent is the index of the span
that was open when it began (-1 at the top).  Spans stay in memory until the
run ends.  `Tracer.patch` swaps a function on a module or class for a
wrapper that records a span per call, and `restore` puts the originals back,
so the program itself is never edited.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf()
        self._stack.pop()

    def patch(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


class Summary:
    """Per-name totals over a span list: call count, total time and self
    time, the part of a span's interval that no child span covers."""

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(spans):
            self.count[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]

    def mean_us(self, name: str) -> float:
        return 1e6 * self.total[name] / self.count[name]
