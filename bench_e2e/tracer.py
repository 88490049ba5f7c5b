"""Benchmark-side spans.

Spans are recorded by the benchmark's own files around calls into each
layer's public functions — there is no tracing inside the program.  They
stay in memory and are written out once, when the traced pass ends.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class Tracer:
    """An in-memory list of ``[name, start, end, parent, request_id]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> int:
        """Record a finished span; returns its id."""
        self.spans.append([name, start, end, parent, request_id])
        return len(self.spans) - 1

    def open(self, name: str, request_id: Optional[int] = None) -> int:
        """Start a span that later spans name as their ``parent``."""
        return self.add(name, time.perf_counter(), 0.0, None, request_id)

    def close(self, span_id: int) -> None:
        self.spans[span_id][2] = time.perf_counter()

    def call(self, name: str, parent: Optional[int], fn, *args):
        """``fn(*args)`` under a span (recorded even when it raises).
        Only the two clock reads sit inside the timed region."""
        request_id = self.spans[parent][4] if parent is not None else None
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.add(name, start, time.perf_counter(), parent, request_id)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str) -> None:
        """One JSON object per span; ``self_s`` is the span's duration
        minus the part its child spans cover."""
        covered: Dict[int, float] = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        with open(path, "w") as out:
            for span_id, (name, start, end, parent, request_id) in enumerate(self.spans):
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request_id": request_id,
                    "self_s": (end - start) - covered.get(span_id, 0.0),
                }
                out.write(json.dumps(record) + "\n")
