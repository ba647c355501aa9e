"""Spans and counters recorded around calls between pebble_logit modules.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` (a module
global or a class attribute, looked up by the caller at call time) with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span. ``count=True`` records only a call count, for
boundaries crossed so often that a span would cost more than the call.
Spans stay in memory until ``dump``. A name none of whose boundaries
exists any more is listed in ``missing``, so its metrics can be left out
rather than failed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._tried: set[str] = set()
        self._wrapped: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` and return its result."""
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name_id, start, end, parent)

    @property
    def missing(self) -> list[str]:
        """Names none of whose boundaries exist any more."""
        return sorted(self._tried - self._wrapped)

    def wrap(self, owner, attr: str, name: str, on_result=None, count: bool = False) -> None:
        self._tried.add(name)
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._wrapped.add(name)
        counts = self.counts

        if count:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[name] += 1
                if on_result is not None:
                    on_result(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                result = self.span(name, original, *args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time
        (duration minus the time covered by direct child spans)."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=float)
        name_id = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(arr))
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: names, then [name, start, end, parent] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "counts": dict(self.counts), "spans": self.spans}, fh,
                      separators=(",", ":"))
