"""In-memory spans and counts recorded around calls into the library.

A span is (name, start, end, parent, run id).  Spans are recorded only
by the benchmark's own code, around each call it makes into a layer of
`fatcomplex`; nothing inside the library is instrumented.  Spans stay
in memory and are handed back when the repetition ends.
"""

import statistics
import time
from collections import Counter
from contextlib import nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one method call each."""

    enabled = False

    def span(self, name):
        return _NULL

    def count(self, name, n=1):
        pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.record[1] = time.monotonic()

    def __exit__(self, *exc):
        self.record[2] = time.monotonic()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Tracing on: every span is kept as [name, start, end, parent, run_id],
    where parent is the index of the enclosing span or None."""

    enabled = True

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, None, None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name, n=1):
        self.counts[name] += n


def self_times(spans):
    """Per span: its duration minus the time its child spans cover.

    Children of one span never overlap (the benchmark is single-threaded),
    so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def tail(values):
    """The highest percentile with at least ten values beyond it, or the
    median when there are too few values for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered) if ordered else 0.0
    return ordered[n - 11]


def summarize(spans):
    """{name: {"calls", "busy_s", "durations"}} from a list of spans."""
    out = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["busy_s"] += own
        entry["durations"].append(end - start)
    return out
