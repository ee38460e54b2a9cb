"""In-memory spans recorded around calls into the system's public functions.

A span is ``(name, start, end, parent, rid)``: ``parent`` is the index of the
enclosing span on the same thread (-1 at top level) and ``rid`` ties the
spans of one event or request together.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, rid=None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, time.perf_counter(), None, stack[-1] if stack else -1, rid]
        with self._lock:  # spans come from the sink thread too
            stack.append(len(self.spans))
            self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def call(self, name: str, fn, *args, rid=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, rid):
            return fn(*args, **kwargs)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the finished spans called ``name``, from index ``since`` on."""
        return [s[2] - s[1] for s in self.spans[since:] if s[0] == name and s[2] is not None]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "rid": rid}) + "\n")
