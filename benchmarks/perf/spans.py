"""In-memory span tracer for the traced benchmark run.

The benchmark never edits the program: it wraps public functions in
the namespace of the module that calls them (:meth:`Tracer.wrap`), so
each call becomes one span.  A span records its name
(``layer:function``), wall start and end (``time.perf_counter``, which
is CLOCK_MONOTONIC on Linux, so server and driver spans share one time
axis), its thread CPU (``time.thread_time``; NaN for coroutines, whose
wall time includes other tasks), its parent span, a fetch id and its
thread.  Parent and fetch id travel in context variables, and the
wrapped ``run_in_executor`` runs the submitted function in a copy of
the caller's context, so spans on executor threads keep both.

Spans stay in columnar arrays until the run ends; :meth:`Tracer.dump`
writes them as JSON.  A layer's busy time is the sum of its spans'
*self* CPU: a span's thread CPU minus that of its child spans on the
same thread.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import math
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NO_SPAN = -1

_CURRENT = contextvars.ContextVar("perf_span", default=NO_SPAN)
_FETCH = contextvars.ContextVar("perf_fetch", default=NO_SPAN)

#: Column name → array typecode.
COLUMNS = {"name": "l", "start": "d", "end": "d", "cpu": "d",
           "parent": "l", "fetch": "l", "thread": "l"}

Window = Optional[Tuple[float, float]]


class Tracer:
    """Columnar span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.fetch_keys: List[str] = []
        self._fetch_ids: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.columns = {column: array(code) for column, code in COLUMNS.items()}

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            ident = self._name_ids.get(name)
            if ident is None:
                ident = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return ident

    def set_fetch(self, key: str) -> None:
        """Tag later spans of the current context (task or thread) with *key*."""
        with self._lock:
            ident = self._fetch_ids.get(key)
            if ident is None:
                ident = self._fetch_ids[key] = len(self.fetch_keys)
                self.fetch_keys.append(key)
        _FETCH.set(ident)

    def open(self, name_id: int) -> int:
        """Reserve a span starting now; returns its index."""
        start = time.perf_counter()
        c = self.columns
        with self._lock:
            index = len(c["name"])
            c["name"].append(name_id)
            c["start"].append(start)
            c["end"].append(math.nan)
            c["cpu"].append(math.nan)
            c["parent"].append(_CURRENT.get())
            c["fetch"].append(_FETCH.get())
            c["thread"].append(threading.get_native_id())
        return index

    def close(self, index: int, cpu: float = math.nan) -> None:
        self.columns["end"][index] = time.perf_counter()
        self.columns["cpu"][index] = cpu

    # -- patching --------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        name_of: Optional[Callable[..., str]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *name_of(*args, **kwargs)* may rename the span per call (e.g. to
        tell an erasure decode from a clear-text one); *on_result* sees
        each return value (e.g. to adopt a transfer id as fetch id).
        """
        original = getattr(owner, attr)
        fixed = self.name_id(name)
        tracer = self

        def pick(args, kwargs) -> int:
            return tracer.name_id(name_of(*args, **kwargs)) if name_of else fixed

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced(*args, **kwargs):
                index = tracer.open(pick(args, kwargs))
                token = _CURRENT.set(index)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                    tracer.close(index)
                if on_result is not None:
                    on_result(result)
                return result

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                index = tracer.open(pick(args, kwargs))
                token = _CURRENT.set(index)
                cpu0 = time.thread_time()
                try:
                    result = original(*args, **kwargs)
                finally:
                    cpu = time.thread_time() - cpu0
                    _CURRENT.reset(token)
                    tracer.close(index, cpu)
                if on_result is not None:
                    on_result(result)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_executor_hop(self, loop_class: Any, name: str) -> None:
        """Trace ``loop_class.run_in_executor`` submissions as wall spans.

        The span runs from submission to the future's completion.  The
        worker runs the function in a copy of the caller's context with
        this span as the parent, so executor-thread spans keep the
        caller's fetch id and link back to the hop.
        """
        original = loop_class.run_in_executor
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(original)
        def traced(loop, executor, func, *args):
            index = tracer.open(name_id)
            context = contextvars.copy_context()
            context.run(_CURRENT.set, index)
            future = original(loop, executor, context.run, func, *args)
            future.add_done_callback(lambda _: tracer.close(index))
            return future

        self._patches.append((loop_class, "run_in_executor", original))
        loop_class.run_in_executor = traced

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- persistence -----------------------------------------------------------

    def dump(self, path: str) -> None:
        data: Dict[str, Any] = {"names": self.names, "fetch_keys": self.fetch_keys}
        for column, values in self.columns.items():
            listed = values.tolist()
            if values.typecode == "d":
                listed = [None if math.isnan(v) else v for v in listed]
            data[column] = listed
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


class Aggregate:
    """Count, wall seconds and self-CPU seconds of one span name."""

    __slots__ = ("count", "wall", "cpu")

    def __init__(self) -> None:
        self.count = 0
        self.wall = 0.0
        self.cpu = 0.0


class SpanSet:
    """Read-only spans (a :class:`Tracer`'s, or a dump's) with analysis."""

    def __init__(self, names: List[str], columns: Dict[str, array]) -> None:
        self.names = names
        self.c = columns
        self.self_cpu = self._self_cpu()

    @classmethod
    def of(cls, tracer: Tracer) -> "SpanSet":
        return cls(list(tracer.names), tracer.columns)

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        columns = {
            column: array(code, (math.nan if v is None else v for v in data[column]))
            for column, code in COLUMNS.items()
        }
        return cls(data["names"], columns)

    def _self_cpu(self) -> array:
        cpu, parent, thread = self.c["cpu"], self.c["parent"], self.c["thread"]
        own = array("d", cpu)
        for index in range(len(cpu)):
            up = parent[index]
            if up != NO_SPAN and thread[up] == thread[index]:
                child = cpu[index]
                if child == child and own[up] == own[up]:  # neither is NaN
                    own[up] -= child
        return own

    def label(self, index: int) -> str:
        return self.names[self.c["name"][index]]

    def wall(self, index: int) -> float:
        return self.c["end"][index] - self.c["start"][index]

    def indices(self, window: Window = None) -> Iterator[int]:
        start = self.c["start"]
        for index in range(len(start)):
            if window is None or window[0] <= start[index] < window[1]:
                yield index

    def aggregate(self, window: Window = None) -> Dict[str, Aggregate]:
        """Per span name: count, Σ wall and Σ self CPU over *window*."""
        result: Dict[str, Aggregate] = defaultdict(Aggregate)
        name, start, end, own = self.c["name"], self.c["start"], self.c["end"], self.self_cpu
        for index in self.indices(window):
            entry = result[self.names[name[index]]]
            entry.count += 1
            entry.wall += end[index] - start[index]
            if own[index] == own[index]:
                entry.cpu += own[index]
        return dict(result)

    def busy_by_thread(self, window: Window = None) -> Dict[int, float]:
        """Σ self CPU per native thread id over *window*."""
        busy: Dict[int, float] = defaultdict(float)
        thread, own = self.c["thread"], self.self_cpu
        for index in self.indices(window):
            if own[index] == own[index]:
                busy[thread[index]] += own[index]
        return dict(busy)

    def max_cpu_share(self, window: Window = None) -> float:
        """Largest CPU / wall of a span over *window*.

        A span reads its thread's CPU inside its own wall interval, so
        the share cannot exceed 1 unless the span claimed CPU spent
        elsewhere: on another thread, or outside its interval.
        """
        cpu, start, end = self.c["cpu"], self.c["start"], self.c["end"]
        return max(
            (cpu[i] / (end[i] - start[i]) for i in self.indices(window)
             if cpu[i] == cpu[i] and end[i] > start[i]),
            default=math.nan,
        )

    def min_self_cpu(self, window: Window = None) -> float:
        """Smallest self CPU over *window*; below 0, a span was given a
        child that did not run inside it."""
        own = self.self_cpu
        return min((own[i] for i in self.indices(window) if own[i] == own[i]), default=math.nan)

    def ancestors(self, index: int) -> Iterator[int]:
        parent = self.c["parent"]
        up = parent[index]
        while up != NO_SPAN:
            yield up
            up = parent[up]


def busy_by_layer(aggregates: Dict[str, Aggregate]) -> Dict[str, float]:
    """Σ self CPU per layer (the part of a span name before ``:``)."""
    busy: Dict[str, float] = defaultdict(float)
    for name, entry in aggregates.items():
        busy[name.split(":", 1)[0]] += entry.cpu
    return dict(busy)


def account(
    busy_by_thread: Dict[int, float],
    thread_cpu: Dict[int, float],
    process_cpu: float,
) -> Dict[str, float]:
    """Layer busy time plus remainder against the measured process CPU.

    A thread's remainder is its measured CPU minus the busy time of the
    spans it ran: the asyncio loop and handler code with no public
    function to wrap.  Two checks follow, and neither holds by
    construction:

    * ``min_thread_remainder``, the smallest remainder of a thread that
      ran spans, checks the spans.  Span CPU and thread CPU read the
      same per-thread clock, so a negative value means the spans claimed
      more CPU than their thread used: double counting, or a span
      booked to the wrong thread.
    * ``error`` checks the per-thread view: busy plus remainder is the
      sum of per-thread CPU, and its gap to the process total (read
      separately) is CPU of threads the per-thread view missed.
    """
    busy = sum(busy_by_thread.values())
    remainder = sum(thread_cpu.values()) - busy
    return {
        "busy": busy,
        "remainder": remainder,
        "process_cpu": process_cpu,
        "error": abs(busy + remainder - process_cpu) / process_cpu if process_cpu > 0 else math.inf,
        "min_thread_remainder": min(
            (thread_cpu.get(thread, 0.0) - cpu for thread, cpu in busy_by_thread.items()),
            default=math.nan,
        ),
    }
