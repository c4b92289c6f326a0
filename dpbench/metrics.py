"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

import math
import statistics

#: end-to-end metrics (``--trace 0``): name -> (unit, better, bound)
END_TO_END: dict[str, tuple[str, str, float]] = {
    "solve_s": ("s", "lower", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "throughput_rps": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: per-layer metrics (``--trace 1``): name -> (unit, better).  Values are per
#: operation (one solve, or one request on ``serve-mix``) unless the
#: name says otherwise; a layer a workload bypasses reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "kernels.calls": ("count", "lower"),
    "kernels.busy_s": ("s", "lower"),
    "kernels.updates": ("count", "lower"),
    "kernels.updates_per_s": ("1/s", "higher"),
    "dpspark.driver_s": ("s", "lower"),
    "dependence.s": ("s", "lower"),
    "scheduler.stages": ("count", "lower"),
    "scheduler.tasks": ("count", "lower"),
    "scheduler.task_attempts": ("count", "lower"),
    "scheduler.job_s": ("s", "lower"),
    "scheduler.task_busy_s": ("s", "lower"),
    "scheduler.barrier_wait_frac": ("fraction", "lower"),
    "shuffle.writes": ("count", "lower"),
    "shuffle.write_s": ("s", "lower"),
    "shuffle.fetches": ("count", "lower"),
    "shuffle.fetch_s": ("s", "lower"),
    "shuffle.bytes_written": ("B", "lower"),
    "shuffle.bytes_remote": ("B", "lower"),
    "accounting.calls": ("count", "lower"),
    "accounting.s": ("s", "lower"),
    "partitioner.calls": ("count", "lower"),
    "partitioner.s": ("s", "lower"),
    "storage.puts": ("count", "lower"),
    "storage.gets": ("count", "lower"),
    "storage.put_s": ("s", "lower"),
    "storage.get_s": ("s", "lower"),
    "storage.bytes": ("B", "lower"),
    "backend.round_trips": ("count", "lower"),
    "backend.batches": ("count", "lower"),
    "backend.batch_s": ("s", "lower"),
    "backend.shm_bytes": ("B", "lower"),
    "backend.shm_leaked": ("count", "lower"),
    "backend.affinity_hit_rate": ("fraction", "higher"),
    "backend.respawns": ("count", "lower"),
    "pipeline.overlapped_stages": ("count", "higher"),
    "pipeline.depth_achieved": ("count", "higher"),
    "service.requests": ("count", "higher"),
    "service.decode_ms": ("ms", "lower"),
    "service.admit_ms": ("ms", "lower"),
    "service.cache_get_ms": ("ms", "lower"),
    "service.reply_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.engine_pass_ms": ("ms", "lower"),
    "service.cache_hit_rate": ("fraction", "higher"),
    "service.coalesced": ("count", "higher"),
    "service.engine_passes": ("count", "lower"),
    "service.shed": ("count", "lower"),
    "durable.wal_ms": ("ms", "lower"),
    "durable.spool_ms": ("ms", "lower"),
    "host.cpu_util": ("fraction", "higher"),
    "ref.blocked_s": ("s", "lower"),
    "ref.numpy_fw_s": ("s", "lower"),
    "kernels.self_s": ("s", "lower"),
    "dpspark.self_s": ("s", "lower"),
    "dependence.self_s": ("s", "lower"),
    "scheduler.self_s": ("s", "lower"),
    "shuffle.self_s": ("s", "lower"),
    "storage.self_s": ("s", "lower"),
    "backend.self_s": ("s", "lower"),
    "accounting.self_s": ("s", "lower"),
    "partitioner.self_s": ("s", "lower"),
    "service.self_s": ("s", "lower"),
    "cache.self_s": ("s", "lower"),
    "durable.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.uncovered_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

#: counters that must repeat exactly for a fixed seed and workload
#: (recorded in every saved result; ``compare.py`` lists changes)
HOST_INDEPENDENT = (
    "stages",
    "tasks",
    "kernel_calls",
    "kernel_updates",
    "shuffle_bytes_written",
    "round_trips",
    "batches",
    "storage_bytes",
    "shm_bytes",
)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """The order statistic at or below the ``q`` quantile (``q`` in [0, 1];
    NumPy's ``method="lower"``); 0 for no samples.

    Not interpolated: a solve run has 3 to 11 solves, of which this p90
    is the second slowest, while an interpolated one is mostly the
    slowest, which a single stall of the host sets.  On ``serve-mix``
    (hundreds of samples) the two methods differ by a neighbouring
    sample.
    """
    if not values:
        return 0.0
    return sorted(values)[math.floor(q * (len(values) - 1))]
