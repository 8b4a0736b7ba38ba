"""Spans and counters recorded around calls into the library, plus the
summary statistics the benchmark reports.

A span has a name, a start, an end, the span that caused it and the
identifier of the operation it belongs to. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# Percentiles tried for the tail, highest first; the tail is the highest
# one with at least ten samples beyond it.
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


class Tracer:
    def __init__(self):
        self.spans = []  # closed spans: id, name, start, end, parent, op
        self.counts = []  # name, value, op
        self._open = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: bool = False):
        """Time the enclosed block. ``op=True`` starts a new operation;
        otherwise the span joins the operation of the enclosing span."""
        parent = self._open[-1] if self._open else None
        record = {
            "id": self._next_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": self._next_id if op or parent is None else parent["op"],
        }
        self._next_id += 1
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def count(self, name: str, value):
        self.counts.append({"name": name, "value": value,
                            "op": self._open[-1]["op"] if self._open else None})

    def durations_ms(self, name: str) -> list:
        return [1e3 * (s["end"] - s["start"]) for s in self.spans if s["name"] == name]

    def counted(self, name: str) -> list:
        return [c["value"] for c in self.counts if c["name"] == name]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": s}, sort_keys=True) + "\n")
            for c in self.counts:
                fh.write(json.dumps({"count": c}, sort_keys=True) + "\n")


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """(percentile, value) of the highest ladder percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    n = len(values)
    for pct in _TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            ordered = sorted(values)
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return pct, float(ordered[rank])
    return None
