"""In-memory span recorder that wraps library functions from the outside.

The library itself carries no instrumentation.  While a traced region runs,
`Tracer.patched` replaces module attributes (the names one hashquant module
uses to call another) with wrappers that record a span per call, and puts
the originals back afterwards.  Spans stay in memory until `write` dumps
them as JSON lines at the end of the run.

A span is [name, trace, parent, start_ns, end_ns, count]: `parent` is the
position of the enclosing span (-1 at the top), every top-level span opens
a new trace id that its descendants share, and `count` is an optional
integer measured at the same boundary.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

NAME, TRACE, PARENT, START, END, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trace = 0

    def _open(self, name: str) -> list:
        if self._stack:
            parent = self._stack[-1]
            trace = self.spans[parent][TRACE]
        else:
            parent = -1
            self._trace += 1
            trace = self._trace
        record = [name, trace, parent, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn, name: str, count=None):
        """`fn` with a span per call; `count(args, result)` fills the span's count."""

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[COUNT] = count(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (module, attribute, span name, count) for the block's duration."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [record[END] - record[START] for record in self.spans]
        for record in self.spans:
            if record[PARENT] >= 0:
                own[record[PARENT]] -= record[END] - record[START]
        return own

    def select(self, name: str, parent: str | None = None) -> list[int]:
        """Positions of spans called `name`, optionally only under a `parent` span."""
        return [
            pos
            for pos, record in enumerate(self.spans)
            if record[NAME] == name
            and (parent is None or (record[PARENT] >= 0 and self.spans[record[PARENT]][NAME] == parent))
        ]

    def durations_ns(self, positions) -> list[int]:
        return [self.spans[pos][END] - self.spans[pos][START] for pos in positions]

    def median_us(self, name: str, parent: str | None = None, own: list[int] | None = None) -> float:
        """Median duration (or self time, when `own` is given) of the selected spans."""
        positions = self.select(name, parent)
        values = [own[pos] for pos in positions] if own is not None else self.durations_ns(positions)
        return statistics.median(values) / 1e3

    def per_trace_sum(self, positions, values) -> dict[int, float]:
        totals: dict[int, float] = {}
        for pos, value in zip(positions, values):
            trace = self.spans[pos][TRACE]
            totals[trace] = totals.get(trace, 0) + value
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(("name", "trace", "parent", "start_ns", "end_ns", "count"), record))))
                fh.write("\n")
