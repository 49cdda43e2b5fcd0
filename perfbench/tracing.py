"""Outside-in span tracing for the modhtan benchmark.

A Tracer replaces a module attribute (the name a caller looks up, not the
place a function is defined) with a wrapper that records one span per call:
an id, the id of the enclosing span, a name, and start/end times.  Spans are
kept in memory; per-name call counts, total time and self time (duration
minus the time covered by child spans) are accumulated as spans close.
Nothing under ``src/`` is edited: the wrappers are installed from here and
removed again by ``restore``.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` so each call records a span called ``name``.

        ``after(args, kwargs, result)`` runs once the span has closed, so
        derived counts are taken where the work happens without being
        charged to the span itself.
        """
        original = getattr(module, attr)
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Dump the spans as gzipped JSON lines, in closing order."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )
