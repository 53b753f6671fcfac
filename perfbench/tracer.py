"""Span tracing from outside the program.

The tracer replaces public names with timing wrappers at the place where the
caller looks them up (a module attribute, or a method on its class), keeps
spans in memory while the workload runs, and puts every original back on
exit.  Nothing in `src/` is edited.

A span is (name, start, end, parent, run id); its layer is the part of the
name before the first dot.  A call that arrives while a span of the same name
is open (for example `propagate` calling `propagate_batched`) joins that span
instead of opening a new one.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._plan: list[tuple] = []

    # -- installation --------------------------------------------------------

    def span(self, owner, attr: str, name: str, count=None, count_name=None, on_result=None):
        """Time calls of owner.attr as spans called `name`.

        After each call, count(args, kwargs) is added to the counter
        count_name, and on_result(return value) gives a (counter, increment)
        pair to add.
        """
        self._plan.append(("span", owner, attr, name, count, count_name, on_result))

    def counter(self, owner, attr: str, count_name: str):
        """Count calls of owner.attr without opening a span."""
        self._plan.append(("count", owner, attr, count_name))

    def __enter__(self):
        for item in self._plan:
            owner, attr = item[1], item[2]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if item[0] == "span":
                wrapper = self._span_wrapper(original, *item[3:])
            else:
                wrapper = self._count_wrapper(original, item[3])
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _span_wrapper(self, original, name, count, count_name, on_result):
        spans, stack, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                value = original(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if count is not None:
                counts[count_name] += count(args, kwargs)
            if on_result is not None:
                key, inc = on_result(value)
                counts[key] += inc
            return value

        traced.__wrapped__ = original
        return traced

    def _count_wrapper(self, original, count_name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[count_name] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # -- the root span and results -------------------------------------------

    @contextmanager
    def root(self, name: str = "bench.run"):
        """The span that covers the timed region."""
        record = [name, time.perf_counter(), 0.0, -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, float]:
        """Per-name totals, per-layer self time and the raw counters."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
            out[f"{name.split('.', 1)[0]}.layer_self_s"] += own
        out.update(self.counts)
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")
