"""Span recording for the traced run, from outside the program.

:meth:`Tracer.install` wraps the public entry points listed in
:data:`TARGETS` at runtime and :meth:`Tracer.restore` puts the originals
back; nothing in ``repro`` is edited.  Spans are kept in memory as (name,
start, end, parent, thread, key) and written out when the run ends.  A
span's parent is the innermost wrapped call open on the same thread, or,
for a span opened on a service worker thread, the client span carrying
the same request id.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, span name).  Module-level functions are
#: patched where the caller looks them up, as named in the layer list.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro", "optimize", "optimize"),
    ("repro.core.session", "FastTSession.__init__", "session.input"),
    ("repro.core.session", "build_single_device_training_graph", "graph.build"),
    ("repro.core.session", "build_data_parallel_training_graph", "graph.build"),
    ("repro.core.session", "FastTSession.optimize", "session.optimize"),
    ("repro.core.calculator", "StrategyCalculator.run", "calculator.run"),
    ("repro.profiling.profiler", "Profiler.profile", "profile"),
    ("repro.sim.runner", "ExecutionSimulator.run_step", "sim.step"),
    ("repro.core.os_dpos", "OSDPOS.run", "search.osdpos"),
    ("repro.core.dpos", "DPOS.run", "search.dpos"),
    ("repro.core.os_dpos", "contract_graph", "search.coarsen"),
    ("repro.serve.service", "StrategyService.submit", "serve.submit"),
    ("repro.serve.store", "StrategyStore.get", "store.get"),
    ("repro.serve.store", "StrategyStore.put", "store.put"),
    ("repro.serve.store", "StrategyStore.find_similar", "store.find_similar"),
)

#: Every span the per-layer table reports, in call-depth order.
#: ``serve.frontend`` is derived: a request's time minus its submit time.
LAYERS: Tuple[str, ...] = (
    "optimize", "serve.request", "serve.frontend", "serve.submit",
    "session.input", "graph.build", "session.optimize", "calculator.run",
    "profile", "sim.step", "search.osdpos", "search.dpos", "search.coarsen",
    "store.get", "store.put", "store.find_similar",
)

#: |sum of self times - root time| allowed, as a share of root time.
SUM_TOLERANCE = 0.01


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    key: str = ""
    #: Request id of the client span this one belongs to, when it was
    #: opened on another thread (``serve.submit``).
    parent_key: str = ""


class Tracer:
    """In-memory span recorder; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Values returned by ``FastTSession.optimize`` (its reports carry
        #: the search counters), one per distinct report.
        self.reports: List[object] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_key(self, key: str) -> None:
        """Tag the next root spans opened on this thread (a job id)."""
        self._local.key = key

    def _open(self, name: str, parent_key: str) -> int:
        stack = self._stack()
        key = "" if stack or parent_key else getattr(self._local, "key", "")
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, threading.get_ident(),
                    key, parent_key)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float, key: str) -> None:
        """Add a root span timed by the caller (the client round trip)."""
        with self._lock:
            self.spans.append(
                Span(name, start, end, None, threading.get_ident(), key))

    def wrap(self, function: Callable, name: str) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent_key = ""
            if name == "serve.submit":
                request = args[1] if len(args) > 1 else kwargs.get("request")
                if isinstance(request, dict):
                    parent_key = str(request.get("request_id") or "")
            index = self._open(name, parent_key)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if name == "session.optimize":
                with self._lock:
                    if all(r is not result for r in self.reports):
                        self.reports.append(result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every target; :meth:`restore` undoes it."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self.wrap(original, name))
            self._restore.append(
                functools.partial(setattr, owner, attribute, original)
            )
        return self

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def resolve_parents(spans: Sequence[Span]) -> List[Optional[int]]:
    """Each span's parent index, linking cross-thread spans by key."""
    by_key = {s.key: i for i, s in enumerate(spans) if s.key}
    return [
        s.parent if s.parent is not None or not s.parent_key
        else by_key.get(s.parent_key)
        for s in spans
    ]


@dataclass
class LayerTable:
    root: str
    root_seconds: float
    calls: Dict[str, int]
    self_seconds: Dict[str, float]
    #: Sum of every recorded span's self time (derived rows excluded).
    self_total: float
    orphans: int

    @property
    def unattributed(self) -> float:
        return self.self_seconds.get(self.root, 0.0)

    @property
    def sum_gap(self) -> float:
        """|sum of self times - root time| as a share of root time."""
        gap = abs(self.self_total - self.root_seconds)
        return gap / max(self.root_seconds, 1e-12)

    @property
    def consistent(self) -> bool:
        return self.orphans == 0 and self.sum_gap <= SUM_TOLERANCE

    def share(self, name: str) -> float:
        return self.self_seconds.get(name, 0.0) / max(self.root_seconds, 1e-12)

    def render(self) -> str:
        lines = [f"{'layer':<20}{'calls':>9}{'self s':>12}{'share':>9}"]
        for name in LAYERS:
            if name == self.root:
                continue
            lines.append(
                f"{name:<20}{self.calls.get(name, 0):>9}"
                f"{self.self_seconds.get(name, 0.0):>12.4f}"
                f"{self.share(name):>9.2%}"
            )
        lines.append(
            f"{'unattributed':<20}{'':>9}{self.unattributed:>12.4f}"
            f"{self.share(self.root):>9.2%}"
        )
        lines.append(
            f"{'root ' + self.root:<20}{self.calls.get(self.root, 0):>9}"
            f"{self.root_seconds:>12.4f}  sum gap {self.sum_gap:.3%} "
            f"(tolerance {SUM_TOLERANCE:.0%}), orphan spans {self.orphans}"
        )
        return "\n".join(lines)


def layer_table(spans: Sequence[Span], root: str) -> LayerTable:
    """Self time per layer: a span's duration minus what its children cover.

    ``serve.frontend`` is the self time of the ``serve.request`` root;
    the root's own self time is also reported as unattributed.
    """
    parents = resolve_parents(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent is not None:
            span = spans[parent]
            child = spans[index]
            children.setdefault(parent, []).append(
                (max(child.start, span.start), min(child.end, span.end))
            )
    calls: Dict[str, int] = {}
    self_seconds: Dict[str, float] = {}
    root_seconds = 0.0
    orphans = 0
    for index, span in enumerate(spans):
        duration = span.end - span.start
        own = duration - _union_length(children.get(index, ()))
        calls[span.name] = calls.get(span.name, 0) + 1
        self_seconds[span.name] = self_seconds.get(span.name, 0.0) + own
        if parents[index] is None:
            if span.name == root:
                root_seconds += duration
            else:
                orphans += 1
    self_total = sum(self_seconds.values())
    if root == "serve.request":
        calls["serve.frontend"] = calls.get(root, 0)
        self_seconds["serve.frontend"] = self_seconds.get(root, 0.0)
    return LayerTable(root, root_seconds, calls, self_seconds, self_total,
                      orphans)


def chrome_events(spans: Sequence[Span], process: str) -> List[dict]:
    """The spans as Chrome-trace complete events, ordered by start."""
    if not spans:
        return []
    origin = min(s.start for s in spans)
    threads: Dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        tid = threads.setdefault(span.thread, len(threads))
        event = {
            "name": span.name, "cat": "layer", "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": process, "tid": tid,
        }
        if span.key or span.parent_key:
            event["args"] = {"key": span.key or span.parent_key}
        events.append(event)
    return events
