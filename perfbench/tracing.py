"""In-memory span recorder that wraps the program's public layer calls.

Nothing under ``src/`` is edited: :func:`install` replaces attributes on
the program's classes and modules at run time with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  A module-level
function is patched where its caller looks it up (``encode_frame`` and
``capture_view_locked`` are imported by name into ``repro.net.server``),
a method on its class.

Each span is one tuple ``(span_id, parent_id, name, start, end, attr)``
with ``perf_counter`` times.  ``parent_id`` is the innermost open span of
the same thread (``-1`` at top level), so a layer's self time is its
duration minus the time its direct children cover.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

#: ``(span name, module path, attribute path)`` for every wrapped call.
SPAN_TARGETS = (
    ("core.insert_batch", "repro.core.graphtinker", "GraphTinker.insert_batch"),
    ("core.delete_batch", "repro.core.graphtinker", "GraphTinker.delete_batch"),
    ("core.neighbors_many", "repro.core.graphtinker", "GraphTinker.neighbors_many"),
    ("core.analytics_edges", "repro.core.graphtinker", "GraphTinker.analytics_edges"),
    ("engine.compute", "repro.engine.hybrid", "HybridEngine.compute"),
    # The serving tier calls the public ``sync``; the engine's gathers
    # call the private ``_sync`` (rows plus flat rebuild).  Both are the
    # snapshot-sync layer.
    ("engine.snapshot_sync", "repro.engine.snapshot", "AnalyticsSnapshot.sync"),
    ("engine.snapshot_sync", "repro.engine.snapshot", "AnalyticsSnapshot._sync"),
    ("engine.gather", "repro.engine.snapshot", "AnalyticsSnapshot.gather_active"),
    ("engine.gather", "repro.engine.snapshot", "AnalyticsSnapshot.gather_all"),
    ("service.submit_insert", "repro.service.service", "GraphService.submit_insert"),
    ("service.ticket_wait", "repro.service.service", "Ticket.wait"),
    ("service.flush", "repro.service.service", "GraphService._flush"),
    ("wal.append", "repro.service.wal", "WriteAheadLog.append"),
    ("wal.sync", "repro.service.wal", "WriteAheadLog.sync"),
    ("net.encode_frame", "repro.net.server", "encode_frame"),
    ("net.view_capture", "repro.net.server", "capture_view_locked"),
    ("net.readview.degree", "repro.net.readpath", "ReadView.degree"),
    ("net.readview.neighbors", "repro.net.readpath", "ReadView.neighbors"),
    ("net.readview.khop", "repro.net.readpath", "ReadView.khop"),
    ("net.client.call", "repro.net.client", "GraphClient.call"),
)


def _attr_of(name: str, args: tuple, result):
    """The one detail a span keeps besides its times (or ``None``)."""
    if name == "net.encode_frame":
        return len(result)
    if name == "net.view_capture":
        return int(result.pending)
    if name == "net.client.call":
        return args[1]          # the op name
    return None


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records one span per call."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((span_id, parent, name, start, end,
                          _attr_of(name, args, result)))
            return result

        return traced

    def install(self) -> "Tracer":
        import importlib

        for name, module_path, attr_path in SPAN_TARGETS:
            owner = importlib.import_module(module_path)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load_spans(path: Path) -> list[tuple]:
    return [tuple(span) for span in json.loads(path.read_text())]


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured extra seconds one traced call costs over a plain call."""
    tracer = Tracer()

    def noop(*_args):
        return None

    traced = tracer.wrap("calibrate", noop)
    best_plain = best_traced = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop(None, None)
        t1 = time.perf_counter()
        for _ in range(samples):
            traced(None, None)
        t2 = time.perf_counter()
        tracer.spans.clear()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(0.0, (best_traced - best_plain) / samples)


class SpanSet:
    """Query helpers over a list of spans."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans

    def window(self, start: float, end: float) -> "SpanSet":
        return SpanSet([s for s in self.spans if start <= s[3] and s[4] <= end])

    def named(self, *names: str) -> list[tuple]:
        return [s for s in self.spans if s[2] in names]

    def durations(self, *names: str) -> list[float]:
        return [s[4] - s[3] for s in self.named(*names)]

    def top_level_busy(self) -> float:
        """Wall time covered by spans that have no traced parent."""
        return sum(s[4] - s[3] for s in self.spans if s[1] == -1)
