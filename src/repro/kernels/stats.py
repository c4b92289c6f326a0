"""Work accounting shared by all tile kernels.

The cluster cost model (``repro.cluster.costmodel``) prices a traced
execution from *counts*, not wall-clock: every kernel invocation reports
how many GEP cell-updates it performed and at which tile geometry.  A
:class:`KernelStats` collects those counts; kernels accept an optional
stats sink so production runs can skip accounting entirely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["KernelStats", "KernelInvocation", "LockingKernelStats"]


@dataclass(frozen=True)
class KernelInvocation:
    """One tile-kernel call: case name, tile geometry, work performed."""

    case: str
    rows: int
    cols: int
    pivot: int
    updates: int


@dataclass
class KernelStats:
    """Aggregated kernel-side work counters.

    Attributes
    ----------
    updates:
        Total GEP cell updates: the cells of each step's Σ_G box, summed.
    invocations:
        Count of base-case kernel invocations per case name.
    recursion_calls:
        Count of recursive (non-base) calls, i.e. divide steps.
    parallel_stages:
        Number of parallel-for stages issued to the OpenMP runtime.
    max_parallel_width:
        Largest simultaneous task count handed to one parallel-for.
    """

    updates: int = 0
    invocations: Counter = field(default_factory=Counter)
    recursion_calls: int = 0
    parallel_stages: int = 0
    max_parallel_width: int = 0
    log: list[KernelInvocation] = field(default_factory=list)
    keep_log: bool = False

    def record_base(self, case: str, rows: int, cols: int, pivot: int, updates: int) -> None:
        """Record one base-case kernel invocation."""
        self.updates += updates
        self.invocations[case] += 1
        if self.keep_log:
            self.log.append(KernelInvocation(case, rows, cols, pivot, updates))

    def record_recursion(self) -> None:
        self.recursion_calls += 1

    def record_parallel_for(self, width: int) -> None:
        self.parallel_stages += 1
        if width > self.max_parallel_width:
            self.max_parallel_width = width

    def merge(self, other: "KernelStats") -> None:
        """Fold another stats object into this one (e.g. per-task sinks)."""
        self.updates += other.updates
        self.invocations.update(other.invocations)
        self.recursion_calls += other.recursion_calls
        self.parallel_stages += other.parallel_stages
        self.max_parallel_width = max(self.max_parallel_width, other.max_parallel_width)
        if self.keep_log:
            self.log.extend(other.log)

    @property
    def total_invocations(self) -> int:
        return sum(self.invocations.values())


class LockingKernelStats(KernelStats):
    """Thread-safe stats sink for kernels running inside executor tasks.

    Engine tasks execute on a thread pool; a shared sink must serialize
    its counter updates.  Only the mutating entry points take the lock —
    reads are driver-side, after jobs complete.
    """

    def __init__(self, keep_log: bool = False) -> None:
        super().__init__(keep_log=keep_log)
        import threading

        self._lock = threading.Lock()

    def record_base(self, case, rows, cols, pivot, updates):  # noqa: D102
        with self._lock:
            super().record_base(case, rows, cols, pivot, updates)

    def record_recursion(self):  # noqa: D102
        with self._lock:
            super().record_recursion()

    def record_parallel_for(self, width):  # noqa: D102
        with self._lock:
            super().record_parallel_for(width)

    def merge(self, other):  # noqa: D102
        with self._lock:
            super().merge(other)
