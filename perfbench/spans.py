"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Recorder.wrap`
replaces a public function or method of a ``repro`` module with a
wrapper that opens a span around each call, and :meth:`Recorder.restore`
puts every original back.  Nothing under ``src/`` is changed.

A span records a name, start and end (``perf_counter`` seconds), its
parent span and the operation id shared by every span of one user
operation (one requirement add, one deploy, one HTTP request).  Spans
are kept in memory; :meth:`Recorder.write` dumps them when the run ends.

Hot, tiny functions are wrapped with ``count_only=True``: they get a
per-operation call count instead of a span, which keeps the recorder's
own cost off the numbers it reports.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: One recorded span: (id, parent id, op id, op kind, name, start, end).
Span = Tuple[int, Optional[int], Optional[int], str, str, float, float]

#: Spans outside any user operation (e.g. a background job thread).
NO_OP = "background"


class Recorder:
    """In-memory span and counter recorder with reversible wrapping."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()  # (name, op kind) -> calls
        self.op_counts: Counter = Counter()  # op kind -> operations
        self.gc_seconds: Counter = Counter()  # op kind -> seconds
        self.gc_full: Counter = Counter()  # op kind -> gen-2 collections
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_started: Dict[int, float] = {}
        self._lock = threading.Lock()  # counters see many handler threads
        #: While False the wrappers call straight through (checks run
        #: outside the measured operations).
        self.enabled = True

    def bump(self, counter: Counter, key, amount=1) -> None:
        with self._lock:
            counter[key] += amount

    # -- the per-thread span stack -------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_kind(self) -> str:
        stack = self._stack()
        return stack[-1][2] if stack else NO_OP

    @contextmanager
    def span(self, name: str):
        """A span nested under the current one, in the current operation."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, op_id, kind = stack[-1]
        else:
            parent, op_id, kind = None, None, NO_OP
        stack.append((span_id, op_id, kind))
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, op_id, kind, name, started, ended)
            )

    @contextmanager
    def operation(self, kind: str):
        """The root span of one user operation; its spans share an id."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, span_id, kind))
        self.bump(self.op_counts, kind)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, span_id, kind, "op." + kind, started, ended)
            )

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        count_only: bool = False,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Trace ``owner.attribute`` (a module function or a method).

        ``on_result(result)`` sees every return value, so a wrapper can
        collect what the call reports about itself (engine node stats).
        """
        descriptor = owner.__dict__[attribute]
        is_classmethod = isinstance(descriptor, classmethod)
        function = descriptor.__func__ if is_classmethod else descriptor
        recorder = self

        if count_only:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                if recorder.enabled:
                    recorder.bump(
                        recorder.counts, (name, recorder.current_kind())
                    )
                return function(*args, **kwargs)
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return function(*args, **kwargs)
                recorder.bump(recorder.counts, (name, recorder.current_kind()))
                with recorder.span(name):
                    result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

        replacement = classmethod(wrapper) if is_classmethod else wrapper
        self._patches.append((owner, attribute, descriptor))
        setattr(owner, attribute, replacement)

    @contextmanager
    def paused(self):
        """Call straight through the wrappers (for checks between ops)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def patch(self, owner, attribute: str, replacement) -> None:
        """Install a hand-written wrapper; :meth:`restore` undoes it."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def start_gc_watch(self) -> None:
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        """Put back every wrapped function, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        thread = threading.get_ident()
        if phase == "start":
            self._gc_started[thread] = time.perf_counter()
            return
        started = self._gc_started.pop(thread, None)
        if started is None or not self.enabled:
            return
        ended = time.perf_counter()
        stack = self._stack()
        if not stack:
            return  # a pause outside every operation is not op time
        parent, op_id, kind = stack[-1]
        self.bump(self.gc_seconds, kind, ended - started)
        if info.get("generation") == 2:
            self.bump(self.gc_full, kind)
        self.spans.append(
            (next(self._ids), parent, op_id, kind, "runtime.gc",
             started, ended)
        )

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op_id, kind, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op_id,
                    "kind": kind, "name": name, "start": start, "end": end,
                }) + "\n")


# -- analysis of recorded spans ----------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the time its child spans cover.

    Spans of one thread nest properly, so the children of a span never
    overlap and their durations simply add up.
    """
    covered: Dict[int, float] = defaultdict(float)
    for __, parent, __, __, __, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {
        span_id: (end - start) - covered.get(span_id, 0.0)
        for span_id, __, __, __, __, start, end in spans
    }


def layer_of(name: str) -> str:
    """``repository.save_checkpoint`` -> ``repository``."""
    return name.split(".", 1)[0]


def breakdown(spans: List[Span]) -> Dict[str, dict]:
    """Per operation kind: count, mean duration, and mean self time per
    layer, with the root span's own self time as ``unattributed``."""
    own = self_times(spans)
    report: Dict[str, dict] = {}
    for span_id, __, op_id, kind, name, start, end in spans:
        if op_id is None or span_id != op_id:
            continue
        entry = report.setdefault(
            kind, {"ops": 0, "total_ms": 0.0, "layers": Counter()}
        )
        entry["ops"] += 1
        entry["total_ms"] += (end - start) * 1000.0
        entry["layers"]["unattributed"] += own[span_id] * 1000.0
    for span_id, __, op_id, kind, name, __, __ in spans:
        if op_id is None or span_id == op_id or kind not in report:
            continue
        report[kind]["layers"][layer_of(name)] += own[span_id] * 1000.0
    for entry in report.values():
        ops = entry["ops"]
        entry["mean_ms"] = entry.pop("total_ms") / ops
        entry["layers"] = {
            layer: value / ops
            for layer, value in sorted(
                entry["layers"].items(), key=lambda item: -item[1]
            )
        }
    return report


def span_stats(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: calls, total and self milliseconds."""
    own = self_times(spans)
    stats: Dict[str, dict] = {}
    for span_id, __, __, __, name, start, end in spans:
        entry = stats.setdefault(
            name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        entry["calls"] += 1
        entry["total_ms"] += (end - start) * 1000.0
        entry["self_ms"] += own[span_id] * 1000.0
    return stats
