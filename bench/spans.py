"""In-memory spans around calls into the program's layers, and their self times."""

from __future__ import annotations

import contextlib
import time
from collections import Counter


class Spans:
    """Records spans as [name, start_ns, end_ns, parent index, run id]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.records = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, self.run_id]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()


class NoSpans:
    """Stands in for Spans when tracing is off."""

    _off = contextlib.nullcontext()

    def span(self, name):
        return self._off


def self_times(records, duration=lambda start, end: end - start):
    """Span name -> summed self time: each span's duration minus the
    durations of its child spans. ``duration`` maps an interval to a time,
    so that it can be scaled."""
    own = [duration(start, end) for _, start, end, _, _ in records]
    for _, start, end, parent, _ in records:
        if parent is not None:
            own[parent] -= duration(start, end)
    totals = Counter()
    for record, t in zip(records, own):
        totals[record[0]] += t
    return dict(totals)
