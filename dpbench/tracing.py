"""Outside-in span tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each layer of ``repro``
(class methods and module-level names) for the duration of a ``with``
block and records one span per call: kind, thread, start, end, and the
time spent in nested spans on the same thread.  Nothing under ``src/``
changes; every wrapper is removed again on exit, so the untraced
operations of the same run execute the original code.

A span's *self time* is its duration minus the time its children on the
same thread cover; a scheduler job or a solve also excludes the time
spans below it are open on executor threads (see :func:`summarize`).  Spans on
executor threads (kernel calls, shuffle writes inside tasks) have no
parent on their thread, so their full duration is their self time;
per-layer totals are therefore slot-seconds, which may exceed wall time
when slots overlap.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import threading
import time
from typing import Any, Callable

# (kind, module, class or None, attribute).  The kind's prefix before the
# first dot names the layer its self time is charged to.  ``sizeof_block``
# is patched where it is imported, not in ``repro.util`` itself, so its
# own recursion is not counted as separate calls.
ENTRY_POINTS: list[tuple[str, str, str | None, str]] = [
    ("dpspark.solve", "repro.core.dpspark", "GepSparkSolver", "solve"),
    ("dependence.read_versions", "repro.poly.dependence", None, "iteration_read_versions"),
    ("scheduler.job", "repro.sparkle.scheduler", "DAGScheduler", "run_job"),
    ("scheduler.wave", "repro.sparkle.scheduler", "DAGScheduler", "submit_wave"),
    ("shuffle.write", "repro.sparkle.shuffle", "ShuffleManager", "write"),
    ("shuffle.fetch", "repro.sparkle.shuffle", "ShuffleManager", "fetch"),
    ("storage.put", "repro.sparkle.storage", "BlockManager", "put"),
    ("storage.get", "repro.sparkle.storage", "BlockManager", "get"),
    ("storage.put", "repro.sparkle.storage", "SharedStorage", "put"),
    ("storage.get", "repro.sparkle.storage", "SharedStorage", "get"),
    ("backend.batch", "repro.sparkle.backend", "ProcessBackend", "run_kernel_batch"),
    ("backend.tile", "repro.sparkle.backend", "ProcessBackend", "run_kernel"),
    ("accounting.sizeof", "repro.sparkle.storage", None, "sizeof_block"),
    ("accounting.sizeof", "repro.sparkle.shuffle", None, "sizeof_block"),
    ("accounting.sizeof", "repro.sparkle.broadcast", None, "sizeof_block"),
    ("accounting.sizeof", "repro.sparkle.context", None, "sizeof_block"),
    ("partitioner.partition", "repro.sparkle.partitioner", "HashPartitioner", "partition"),
    ("service.decode", "repro.service", None, "_build_request"),
    ("service.admit", "repro.service", "SolverService", "submit"),
    ("wait.ticket", "repro.service", "SolverService", "solve"),
    ("cache.get", "repro.service", "ResultCache", "get"),
    ("cache.put", "repro.service", "ResultCache", "put"),
    ("durable.wal", "repro.service", "RequestJournal", "admit"),
    ("durable.wal", "repro.service", "RequestJournal", "settle"),
    ("durable.spool", "repro.sparkle.durable", "DurableBlockStore", "put"),
]

#: layers whose self time is reported (``wait`` is a handler thread
#: blocked on its ticket, which is not work of any layer)
LAYERS = (
    "kernels",
    "dpspark",
    "dependence",
    "scheduler",
    "shuffle",
    "storage",
    "backend",
    "accounting",
    "partitioner",
    "service",
    "cache",
    "durable",
)


#: layers whose spans run inside engine tasks (or, for dependence
#: analysis, on the driver between waves)
INNER_LAYERS = (
    "kernels", "shuffle", "storage", "accounting", "partitioner", "backend", "dependence",
)
#: driver-side spans that block while executor threads run their tasks
SCHEDULER_KINDS = ("scheduler.job", "scheduler.wave")


class Span:
    __slots__ = ("kind", "tid", "t0", "t1", "child", "key")

    def __init__(self, kind, tid, t0, t1, child, key):
        self.kind = kind
        self.tid = tid
        self.t0 = t0
        self.t1 = t1
        #: seconds covered by nested spans on the same thread
        self.child = child
        #: request id of a service span (None for engine spans)
        self.key = key

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.t1 - self.t0 - self.child


def _request_key(kind: str, args: tuple) -> Any:
    """The request id a service span belongs to (None for engine spans)."""
    if kind == "service.decode":
        return args[0].get("request_id")
    if kind == "wait.ticket":
        return getattr(args[1], "request_id", None)
    return None


class Tracer:
    """Keeps spans in memory while installed (``with tracer: ...``)."""

    def __init__(self, kernel: Any = None) -> None:
        """``kernel``: the tile kernel handed to the solver, timed through
        an instance attribute.  Pass it only for kernels that run on the
        driver's threads: a patched instance no longer pickles, so a
        process-backend solve would silently stop offloading."""
        self.kernel = kernel
        self.spans: list[Span] = []
        #: seconds each dispatched flight waited behind the dispatcher
        self.queue_waits: list[float] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, kind: str, fn: Callable) -> Callable:
        spans = self.spans
        stack_of = self._stack
        keyed = kind in ("service.decode", "wait.ticket")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                key = _request_key(kind, args) if keyed else None
                spans.append(
                    Span(kind, threading.get_ident(), t0, t1, child, key)
                )

        return traced

    def _wrap_flight(self, fn: Callable) -> Callable:
        """Dispatcher entry: records how long the flight queued."""
        waits = self.queue_waits

        @functools.wraps(fn)
        def traced(service, flight, *args, **kwargs):
            waits.append(time.monotonic() - flight.waiters[0]._t0)
            return fn(service, flight, *args, **kwargs)

        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        if self.kernel is not None:
            self._patch(self.kernel, "run", self.wrap("kernels.run", self.kernel.run))
        for kind, module_name, cls_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            self._patch(owner, attr, self.wrap(kind, getattr(owner, attr)))
        service = importlib.import_module("repro.service")
        self._patch(
            service.SolverService,
            "_run_flight",
            self._wrap_flight(service.SolverService._run_flight),
        )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_of(kind: str) -> str:
    return kind.split(".", 1)[0]


class Union:
    """The union of a set of intervals, for fast coverage queries."""

    def __init__(self, intervals) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        for a, b in sorted(intervals):
            if self.ends and a <= self.ends[-1]:
                if b > self.ends[-1]:
                    self.ends[-1] = b
            else:
                self.starts.append(a)
                self.ends.append(b)
        #: prefix[i] = total length of the first i merged intervals
        self.prefix = [0.0]
        for a, b in zip(self.starts, self.ends):
            self.prefix.append(self.prefix[-1] + (b - a))

    def covered(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` inside the union."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if lo >= hi:
            return 0.0
        total = self.prefix[hi] - self.prefix[lo]
        total -= max(0.0, t0 - self.starts[lo])
        total -= max(0.0, self.ends[hi - 1] - t1)
        return total


def covered(spans, t0: float, t1: float) -> float:
    """Seconds of ``[t0, t1]`` during which any of ``spans`` is open."""
    return Union((s.t0, s.t1) for s in spans).covered(t0, t1)


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per-kind call counts and total durations, per-layer self times.

    A scheduler job or wave blocks the driver thread while executor
    threads run its tasks, so its self time excludes the time any inner
    layer's span is open on any thread: what remains is scheduling work
    plus task code outside every traced layer.  Likewise a solve's self
    time is the time no engine span below it is open anywhere.
    """
    kinds: dict[str, dict[str, float]] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    inner = engine = None
    for s in spans:
        k = kinds.setdefault(s.kind, {"calls": 0, "s": 0.0})
        k["calls"] += 1
        k["s"] += s.duration
        layer = layer_of(s.kind)
        if layer not in layers:
            continue
        if s.kind in SCHEDULER_KINDS:
            if inner is None:
                inner = Union(
                    (x.t0, x.t1) for x in spans if layer_of(x.kind) in INNER_LAYERS
                )
            own = s.duration - inner.covered(s.t0, s.t1)
        elif s.kind == "dpspark.solve":
            if engine is None:
                engine = Union(
                    (x.t0, x.t1)
                    for x in spans
                    if layer_of(x.kind) in INNER_LAYERS or x.kind in SCHEDULER_KINDS
                )
            own = s.duration - engine.covered(s.t0, s.t1)
        else:
            own = s.self_time
        layers[layer] += own
    return {"kinds": kinds, "self_s": layers}
