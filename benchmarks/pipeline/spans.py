"""In-memory spans for the benchmark's traced pass, and self-time arithmetic.

A span is a plain dict: ``name``, ``start``, ``end`` (``perf_counter``
seconds), ``span_id``, ``parent_id``, ``trace_id``, plus free attributes.
Spans nest by the ``with`` blocks that open them; the spans of one cell
share the root's trace id.  Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional


class SpanRecorder:
    """Collects nested spans in memory.  Span ids are ``<prefix><n>``, so
    recorders with distinct prefixes can share one output file."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None,
             counters: Optional[Mapping[str, float]] = None, **attrs):
        """Time the block as a child of the innermost open span (or as a
        root, which must name its ``trace_id``).

        ``counters`` is a live counter mapping (an obs collector's
        ``counters``); the span records how much each counter grew while
        it was open.  The span dict is yielded so the block can add
        attributes it learns while running.
        """
        parent = self._stack[-1] if self._stack else None
        if parent is None and trace_id is None:
            raise ValueError(f"root span {name!r} needs a trace_id")
        span = {"name": name,
                "span_id": f"{self.prefix}{len(self.spans) + 1}",
                "parent_id": parent["span_id"] if parent else None,
                "trace_id": trace_id or parent["trace_id"], **attrs}
        self.spans.append(span)
        self._stack.append(span)
        before = dict(counters) if counters is not None else None
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if before is not None:
                span["counters"] = {
                    k: v - before.get(k, 0) for k, v in counters.items()
                    if v != before.get(k, 0)}


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """``span_id -> self seconds``: a span's duration minus the part of
    its interval that its children cover (overlapping children count
    once; a child sticking out of its parent is clipped to it)."""
    spans = list(spans)
    children: Dict[str, List[dict]] = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["span_id"], ()),
                        key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["span_id"]] = (s["end"] - s["start"]) - covered
    return out


def root_of(spans: Iterable[dict]) -> Dict[str, dict]:
    """``span_id -> root span`` of the tree each span belongs to."""
    by_id = {s["span_id"]: s for s in spans}
    out = {}
    for sid, s in by_id.items():
        root = s
        while root["parent_id"] is not None:
            root = by_id[root["parent_id"]]
        out[sid] = root
    return out


def write_jsonl(spans: Iterable[dict], path: str) -> None:
    """One span per line."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")
