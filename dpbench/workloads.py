"""The benchmark's four workloads.

Each workload loads a different layer of ``repro`` (see README.md for
why each exists).  Every run builds its inputs from the seed, sets up
``SETUP_REPEATS`` times (timing each; the last one is kept), runs its
operations for the requested number of seconds, and checks every
output against an oracle that shares no code with the engine's solve
path.  Results come back as a :class:`RunResult`.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import shutil
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.baselines.references import (
    boolean_closure_by_squaring,
    numpy_floyd_warshall,
    scipy_shortest_paths,
)
from repro.core.blocked import blocked_gep_inplace, grid_bounds, updated_tiles
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep
from repro.service import RequestJournal, SolverService, send_request, serve_forever
from repro.sparkle import SparkleContext
from repro.sparkle.metrics import EngineMetrics
from repro.workloads import diagonally_dominant, random_digraph_weights

from .metrics import PER_LAYER, median, percentile
from .tracing import LAYERS, SCHEDULER_KINDS, Tracer, Union, covered, summarize

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: executors x cores: executor slots equal the host's 2 cores
EXECUTORS = 2
CORES_PER_EXECUTOR = 1
SLOTS = EXECUTORS * CORES_PER_EXECUTOR
#: edge probability of the FW inputs
DENSITY = 0.3
#: the small solve that warms up each context (same spec, strategy and
#: backend as the workload; 8x8 grid of 8x8 tiles)
WARMUP_N = 64
WARMUP_GRID = 8
#: serve-mix: two closed-loop clients, one tenant each
SERVE_CLIENTS = 2
SERVE_N = 256
SERVE_GRID = 4
SERVE_PROBLEMS = ("apsp", "ge", "tc")
SERVE_HOT_SEEDS = 4
#: positions (mod 9) of unique requests: a third, one per problem
SERVE_UNIQUE_SLOTS = (2, 4, 6)
#: relative tolerance for APSP results served over the wire: the service
#: generates raw float weights, and sums along a path may associate
#: differently from scipy's (about n ulps)
SERVE_APSP_RTOL = 1e-12
#: tile kernel of every solve workload and of the single-thread reference
KERNEL = "iterative"


@dataclass(frozen=True)
class SolveShape:
    """One solve workload: problem, table size, grid and engine knobs."""

    name: str
    problem: str  # "apsp" | "ge"
    n: int
    grid: int  # tiles per side: passed to GepSparkSolver as r
    strategy: str
    backend: str
    dispatch: str = "tile"
    pipeline_depth: int = 1

    @property
    def tile(self) -> int:
        return self.n // self.grid

    def params(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(
            tile=self.tile,
            executors=EXECUTORS,
            cores_per_executor=CORES_PER_EXECUTOR,
            kernel=KERNEL,
        )
        return out

    def spec(self):
        return FloydWarshallGep() if self.problem == "apsp" else GaussianEliminationGep()


SOLVE_SHAPES = {
    "fw-paper": SolveShape("fw-paper", "apsp", 1024, 8, "im", "threads"),
    "fw-overhead": SolveShape("fw-overhead", "apsp", 256, 32, "im", "threads"),
    "ge-procs": SolveShape(
        "ge-procs", "ge", 1024, 16, "cb", "processes", dispatch="batch", pipeline_depth=2
    ),
}
WORKLOADS = (*SOLVE_SHAPES, "serve-mix")


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    #: end-to-end metrics (untraced run) or per-layer metrics (traced run)
    metrics: dict[str, float]
    #: host-independent counters of one operation
    counters: dict[str, int] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# inputs and oracles
# ----------------------------------------------------------------------
def make_table(shape: SolveShape, seed: int, n: int | None = None) -> np.ndarray:
    """Seeded input.  FW weights are integers, so every correct APSP
    algorithm agrees bit for bit (floating-point sums are exact)."""
    n = shape.n if n is None else n
    if shape.problem == "apsp":
        return np.floor(random_digraph_weights(n, DENSITY, seed=seed))
    return diagonally_dominant(n, seed=seed)


def ge_oracle(table: np.ndarray) -> np.ndarray:
    """Unblocked GE without pivoting, restricted to the trailing block.

    Each step evaluates ``c - (u * v) / w`` exactly as the GE spec does,
    so the result is bit-identical to ``gep_reference_vectorized`` at a
    fraction of its cost (the benchmark's tests pin that).
    """
    c = np.array(table, dtype=np.float64, copy=True)
    n = c.shape[0]
    for k in range(n - 1):
        update = np.outer(c[k + 1 :, k], c[k, k + 1 :])
        update /= c[k, k]
        c[k + 1 :, k + 1 :] -= update
    return c


def solve_oracle(shape: SolveShape, table: np.ndarray) -> np.ndarray:
    if shape.problem == "apsp":
        return scipy_shortest_paths(table)
    return ge_oracle(table)


def matches(out: np.ndarray, expected: np.ndarray) -> bool:
    return out.dtype == expected.dtype and np.array_equal(out, expected)


# ----------------------------------------------------------------------
# solve workloads
# ----------------------------------------------------------------------
def open_context(shape: SolveShape) -> SparkleContext:
    return SparkleContext(
        num_executors=EXECUTORS,
        cores_per_executor=CORES_PER_EXECUTOR,
        backend=shape.backend,
        dispatch=shape.dispatch,
        pipeline_depth=shape.pipeline_depth,
    )


def make_solver(shape: SolveShape, sc: SparkleContext, grid: int | None = None):
    spec = shape.spec()
    return GepSparkSolver(
        spec,
        sc,
        r=shape.grid if grid is None else grid,
        kernel=make_kernel(spec, KERNEL),
        strategy=shape.strategy,
    )


def set_up(shape: SolveShape, seed: int) -> tuple[SparkleContext, np.ndarray]:
    """Input generation, context start and a warm-up solve."""
    table = make_table(shape, seed)
    sc = open_context(shape)
    try:
        warm = make_table(shape, seed, n=WARMUP_N)
        out, _ = make_solver(shape, sc, grid=WARMUP_GRID).solve(warm)
        if not matches(out, solve_oracle(shape, warm)):
            raise RuntimeError(f"{shape.name}: warm-up solve returned a wrong table")
        sc.reclaim_solve_state()
    except BaseException:
        sc.stop()
        raise
    return sc, table


_SCALARS = (
    "dispatch_round_trips",
    "batch_dispatches",
    "shm_bytes_shared",
    "affinity_hits",
    "affinity_misses",
    "workers_respawned",
    "storage_bytes_written",
)


def _snapshot(sc: SparkleContext, solver: GepSparkSolver) -> dict[str, Any]:
    snap = {k: getattr(sc.metrics, k) for k in _SCALARS}
    snap["kernel_calls"] = solver.stats.total_invocations
    snap["kernel_updates"] = solver.stats.updates
    snap["invocations"] = dict(solver.stats.invocations)
    snap["jobs"] = len(sc.metrics.jobs)
    return snap


@dataclass
class SolveSample:
    wall: float
    ok: bool
    counters: dict[str, int]
    #: wall-clock-derived engine figures of this solve
    timing: dict[str, float]
    invocations: dict[str, int]
    #: per-layer figures (traced solves only; the spans are dropped)
    layers: dict[str, float] | None = None


def solve_once(
    sc: SparkleContext,
    solver: GepSparkSolver,
    table: np.ndarray,
    expected: np.ndarray,
    tracer: Tracer | None = None,
) -> SolveSample:
    before = _snapshot(sc, solver)
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        out, _report = solver.solve(table)
        wall = time.perf_counter() - t0
    after = _snapshot(sc, solver)
    jobs = sc.metrics.jobs[before["jobs"] :]
    stages = [s for j in jobs for s in j.stages]
    delta = {k: after[k] - before[k] for k in _SCALARS}
    counters = {
        "stages": len(stages),
        "tasks": sum(s.num_tasks for s in stages),
        "task_attempts": sum(s.total_attempts for s in stages),
        "kernel_calls": after["kernel_calls"] - before["kernel_calls"],
        "kernel_updates": after["kernel_updates"] - before["kernel_updates"],
        "shuffle_bytes_written": sum(s.shuffle_bytes_written for s in stages),
        "shuffle_bytes_remote": sum(s.shuffle_bytes_remote for s in stages),
        "round_trips": delta["dispatch_round_trips"],
        "batches": delta["batch_dispatches"],
        "storage_bytes": delta["storage_bytes_written"],
        "shm_bytes": delta["shm_bytes_shared"],
        "respawns": delta["workers_respawned"],
    }
    routed = delta["affinity_hits"] + delta["affinity_misses"]
    pipe = EngineMetrics(jobs=jobs).pipeline_summary()
    timing = {
        "task_busy_s": sum(
            t.end_ts - t.start_ts for s in stages for t in s.tasks if t.end_ts > t.start_ts
        ),
        "barrier_wait_s": pipe["barrier_wait_seconds"],
        "overlapped_stages": pipe["overlapped_stages"],
        "affinity_hit_rate": delta["affinity_hits"] / routed if routed else 0.0,
    }
    invocations = {
        case: after["invocations"].get(case, 0) - before["invocations"].get(case, 0)
        for case in after["invocations"]
    }
    sc.reclaim_solve_state()
    sample = SolveSample(wall, matches(out, expected), counters, timing, invocations)
    if tracer is not None:
        windows = [(t.start_ts, t.end_ts) for s in stages for t in s.tasks]
        sample.layers = _layer_row(sample, tracer, windows)
    return sample


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child if asked."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def leaked_segments() -> list[str]:
    """Shared-memory segments this process's arenas left behind."""
    prefix = f"sparkle-{os.getpid()}-"
    try:
        return sorted(e for e in os.listdir("/dev/shm") if e.startswith(prefix))
    except FileNotFoundError:
        return []


def run_solve_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    shape = SOLVE_SHAPES[name]
    setups = []
    sc = table = None
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sc, table = set_up(shape, seed)
        setups.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            sc.stop()
    samples: list[SolveSample] = []
    try:
        expected = solve_oracle(shape, table)
        solver = make_solver(shape, sc)
        cpu0, loop0 = _cpu_seconds(), time.perf_counter()
        while True:
            # Traced runs alternate untraced and traced solves, so the
            # tracing overhead is measured inside one process.
            tracer = None
            if trace and len(samples) % 2 == 1:
                # A process-backend kernel runs in the workers; see backend.*.
                tracer = Tracer(solver.kernel if shape.backend == "threads" else None)
            samples.append(solve_once(sc, solver, table, expected, tracer))
            elapsed = time.perf_counter() - loop0
            if elapsed >= seconds and (not trace or len(samples) >= 2):
                break
        depth_achieved = sc.metrics.pipeline_depth_achieved
    finally:
        sc.stop()
    # Worker processes are reaped by stop(), so their CPU time is in.
    cpu_util = (_cpu_seconds() - cpu0) / (elapsed * os.cpu_count())
    shm_leaked = sc.metrics.shm_segments_created - sc.metrics.shm_segments_freed
    leftovers = leaked_segments()
    failed = sum(not s.ok for s in samples) + (1 if shm_leaked or leftovers else 0)
    walls = [s.wall for s in samples if s.layers is None]
    result = RunResult(
        correct=failed == 0,
        attempted=len(samples),
        failed=failed,
        metrics={},
        counters=samples[0].counters,
        params=shape.params(),
        notes={
            "solves": len(samples),
            "solve_walls_s": [round(s.wall, 4) for s in samples],
            "setups_s": [round(s, 4) for s in setups],
            "shm_leaked": shm_leaked,
            "shm_leftovers": leftovers,
        },
    )
    if not trace:
        result.metrics = {
            "solve_s": median(walls),
            "latency_p50_ms": 1000 * median(walls),
            "latency_p90_ms": 1000 * percentile(walls, 0.9),
            "throughput_rps": len(walls) / sum(walls),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(shape.backend == "processes"),
        }
        return result
    traced = [s for s in samples if s.layers is not None]
    result.metrics = _solve_layers(
        shape, table, [s.layers for s in traced], [s.wall for s in traced], walls
    )
    result.metrics.update(
        {
            "backend.shm_leaked": float(shm_leaked),
            "pipeline.depth_achieved": float(depth_achieved),
            "host.cpu_util": cpu_util,
        }
    )
    return result


def _layer_row(s: SolveSample, tracer: Tracer, task_windows) -> dict[str, float]:
    """Per-layer figures of one traced solve.

    ``task_windows`` are the (start, end) of every engine task of the
    solve: with them, ``dpspark.driver_s`` counts only time in which the
    driver works alone, in barrier mode (blocked inside jobs) and in
    pipelined mode (waves return at once, tasks run on) alike.
    """
    spans = tracer.spans
    root = next(x for x in spans if x.kind == "dpspark.solve")
    t0, t1 = root.t0, root.t1
    summary = summarize(spans)
    kinds = summary["kinds"]

    def calls(kind):
        return float(kinds.get(kind, {}).get("calls", 0))

    def secs(*names):
        return sum(kinds.get(k, {}).get("s", 0.0) for k in names)

    busy = secs("kernels.run")
    busy_engine = Union(
        [(x.t0, x.t1) for x in spans if x.kind in SCHEDULER_KINDS] + list(task_windows)
    )
    c = s.counters
    row = {
        "kernels.calls": float(c["kernel_calls"]),
        "kernels.busy_s": busy,
        "kernels.updates": float(c["kernel_updates"]),
        "kernels.updates_per_s": c["kernel_updates"] / busy if busy else 0.0,
        "dpspark.driver_s": (t1 - t0) - busy_engine.covered(t0, t1),
        "dependence.s": secs("dependence.read_versions"),
        "scheduler.stages": float(c["stages"]),
        "scheduler.tasks": float(c["tasks"]),
        "scheduler.task_attempts": float(c["task_attempts"]),
        "scheduler.job_s": secs("scheduler.job", "scheduler.wave"),
        "scheduler.task_busy_s": s.timing["task_busy_s"],
        "scheduler.barrier_wait_frac": s.timing["barrier_wait_s"] / (SLOTS * s.wall),
        "shuffle.writes": calls("shuffle.write"),
        "shuffle.write_s": secs("shuffle.write"),
        "shuffle.fetches": calls("shuffle.fetch"),
        "shuffle.fetch_s": secs("shuffle.fetch"),
        "shuffle.bytes_written": float(c["shuffle_bytes_written"]),
        "shuffle.bytes_remote": float(c["shuffle_bytes_remote"]),
        "accounting.calls": calls("accounting.sizeof"),
        "accounting.s": secs("accounting.sizeof"),
        "partitioner.calls": calls("partitioner.partition"),
        "partitioner.s": secs("partitioner.partition"),
        "storage.puts": calls("storage.put"),
        "storage.gets": calls("storage.get"),
        "storage.put_s": secs("storage.put"),
        "storage.get_s": secs("storage.get"),
        "storage.bytes": float(c["storage_bytes"]),
        "backend.round_trips": float(c["round_trips"]),
        "backend.batches": float(c["batches"]),
        "backend.batch_s": secs("backend.batch", "backend.tile"),
        "backend.shm_bytes": float(c["shm_bytes"]),
        "backend.affinity_hit_rate": s.timing["affinity_hit_rate"],
        "backend.respawns": float(c["respawns"]),
        "pipeline.overlapped_stages": float(s.timing["overlapped_stages"]),
        "trace.spans": float(len(spans)),
        "trace.uncovered_frac": 1.0
        - covered([x for x in spans if x is not root], t0, t1) / (t1 - t0),
    }
    for layer in LAYERS:
        row[f"{layer}.self_s"] = summary["self_s"][layer]
    return row


def _solve_layers(
    shape: SolveShape, table: np.ndarray, rows: list[dict], traced_walls, untraced_walls
) -> dict[str, float]:
    """Medians over the traced solves, plus the single-thread references."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in rows[0]:
        metrics[name] = median([row[name] for row in rows])
    metrics["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    spec = shape.spec()
    t0 = time.perf_counter()
    blocked_gep_inplace(spec, table.copy(), shape.grid, make_kernel(spec, KERNEL))
    metrics["ref.blocked_s"] = time.perf_counter() - t0
    if shape.problem == "apsp":
        t0 = time.perf_counter()
        numpy_floyd_warshall(table)
        metrics["ref.numpy_fw_s"] = time.perf_counter() - t0
    return metrics


def expected_invocations(shape: SolveShape) -> dict[str, int]:
    """Tile-kernel calls per case of one solve on ``shape``'s grid."""
    spec = shape.spec()
    counts: dict[str, int] = {}
    nt = len(grid_bounds(shape.n, shape.grid)) - 1
    for k in range(nt):
        for case, tiles in updated_tiles(spec, k, nt).items():
            counts[case] = counts.get(case, 0) + len(tiles)
    return counts


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def serve_payloads(seed: int, client: int):
    """Endless seeded request sequence of one closed-loop client.

    Cycles through the problems.  Three of every nine requests (one per
    problem) carry a seed no other request uses (engine passes); the
    rest pick one of a hot set of seeds per problem (cache hits and
    coalesces).  The hit/miss mix is fixed, not drawn, so throughput
    does not vary with the seed's share of misses.
    """
    rng = random.Random(f"serve-mix:{seed}:{client}")
    i = 0
    while True:
        p = (i + client) % len(SERVE_PROBLEMS)
        if i % 9 in SERVE_UNIQUE_SLOTS:
            table_seed = 10**9 + seed * 10**6 + client * 10**5 + i
        else:
            table_seed = seed * 1000 + 10 * p + rng.randrange(SERVE_HOT_SEEDS)
        yield {
            "problem": SERVE_PROBLEMS[p],
            "n": SERVE_N,
            "r": SERVE_GRID,
            "seed": table_seed,
            "tenant": f"client-{client}",
            "request_id": f"c{client}-{i}",
            "return_result": True,
        }
        i += 1


def serve_oracle(problem: str, table_seed: int) -> np.ndarray:
    """What the service must return for one payload (built the way the
    service documents its wire format: weights at density 0.35)."""
    if problem == "ge":
        return ge_oracle(diagonally_dominant(SERVE_N, seed=table_seed))
    weights = random_digraph_weights(SERVE_N, 0.35, seed=table_seed)
    if problem == "tc":
        return boolean_closure_by_squaring(np.isfinite(weights))
    return scipy_shortest_paths(weights)


def serve_matches(problem: str, out: np.ndarray, expected: np.ndarray) -> bool:
    if problem != "apsp":
        return matches(out, expected)
    return (
        out.dtype == expected.dtype
        and np.array_equal(np.isinf(out), np.isinf(expected))
        and bool(np.allclose(out, expected, rtol=SERVE_APSP_RTOL, atol=0.0))
    )


@dataclass
class _Request:
    payload: dict
    latency: float
    ok: bool
    reply: dict = field(default_factory=dict)
    traced: bool = False


class _ClosedLoop:
    """Two client threads, each sending its next request on reply."""

    def __init__(self, socket_path: str, seed: int) -> None:
        self.socket_path = socket_path
        self.streams = [serve_payloads(seed, c) for c in range(SERVE_CLIENTS)]
        self.requests: list[_Request] = []
        self.first: dict[tuple[str, int], np.ndarray] = {}
        self._lock = threading.Lock()

    def _client(self, client: int, until: float, traced: bool) -> None:
        stream = self.streams[client]
        while time.perf_counter() < until:
            payload = next(stream)
            t0 = time.perf_counter()
            try:
                reply = send_request(self.socket_path, payload, timeout=60.0)
            except (OSError, ConnectionError):
                reply = {"status": "error"}
            latency = time.perf_counter() - t0
            ok = reply.get("status") == "ok" and "result" in reply
            if ok:
                # Repeats of a payload must return the same bytes; the
                # first result of each payload meets the oracle later.
                key = (payload["problem"], payload["seed"])
                with self._lock:
                    first = self.first.setdefault(key, reply["result"])
                ok = matches(reply["result"], first)
                reply = {k: v for k, v in reply.items() if k != "result"}
            with self._lock:
                self.requests.append(_Request(payload, latency, ok, reply, traced))

    def run(self, seconds: float, traced: bool = False) -> float:
        """Run all clients for ``seconds``; returns the loop's wall time."""
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(c, t0 + seconds, traced))
            for c in range(SERVE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    def check_oracle(self) -> set[tuple[str, int]]:
        """Payloads whose served result differs from the oracle."""
        return {
            key
            for key, out in self.first.items()
            if not serve_matches(key[0], out, serve_oracle(*key))
        }


def _warm_up_service(socket_path: str, seed: int) -> None:
    for p, problem in enumerate(SERVE_PROBLEMS):
        table_seed = seed * 1000 + 900 + p
        reply = send_request(
            socket_path,
            {"problem": problem, "n": SERVE_N, "r": SERVE_GRID, "seed": table_seed,
             "return_result": True},
            timeout=60.0,
        )
        if reply.get("status") != "ok" or not serve_matches(
            problem, reply["result"], serve_oracle(problem, table_seed)
        ):
            raise RuntimeError(f"serve-mix: warm-up {problem} request failed: {reply}")


def run_serve_mix(seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    """``serve_forever`` runs on the main thread, as ``repro serve`` does,
    and is stopped the way an operator stops it: SIGTERM, which drains."""
    base = workdir / f"serve-{os.getpid()}"
    sock_abs = base / "s.sock"
    # AF_UNIX paths are limited to ~107 bytes; the relative form is short.
    socket_path = os.path.relpath(sock_abs)
    if len(socket_path) > len(str(sock_abs)):
        socket_path = str(sock_abs)
    setups: list[float] = []
    errors: list[BaseException] = []
    state: dict[str, Any] = {}
    main_ident = threading.main_thread().ident

    def controller(last: bool, started: float, ready: threading.Event, abort: threading.Event):
        try:
            while not ready.wait(0.05):
                if abort.is_set():
                    return
            _warm_up_service(socket_path, seed)
            setups.append(time.perf_counter() - started)
            if last:
                _measure_serve(state, socket_path, seed, seconds, trace)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            if ready.is_set():
                signal.pthread_kill(main_ident, signal.SIGTERM)

    try:
        for i in range(SETUP_REPEATS):
            started = time.perf_counter()
            shutil.rmtree(base, ignore_errors=True)
            base.mkdir(parents=True)
            sc = SparkleContext(num_executors=EXECUTORS, cores_per_executor=CORES_PER_EXECUTOR)
            service = SolverService(sc, journal=RequestJournal(base / "journal"))
            state["service"] = service
            ready, abort = threading.Event(), threading.Event()
            ctl = threading.Thread(
                target=controller, args=(i == SETUP_REPEATS - 1, started, ready, abort)
            )
            ctl.start()
            try:
                serve_forever(service, socket_path, ready=ready)
            except BaseException:
                abort.set()
                raise
            finally:
                ctl.join()
                service.stop()
                sc.stop()
            if errors:
                raise errors[0]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return _serve_result(state, setups, trace)


def _measure_serve(state: dict, socket_path: str, seed: int, seconds: float, trace: bool):
    service: SolverService = state["service"]
    loop = _ClosedLoop(socket_path, seed)
    state["loop"] = loop
    if not trace:
        state["wall"] = loop.run(seconds)
        state["bad_payloads"] = loop.check_oracle()
        return
    state["wall"] = loop.run(seconds / 2)
    tracer = Tracer()
    m0 = _service_counters(service)
    cpu0 = _cpu_seconds()
    with tracer:
        state["traced_wall"] = loop.run(seconds / 2, traced=True)
    state["cpu_util"] = (_cpu_seconds() - cpu0) / (state["traced_wall"] * os.cpu_count())
    m1 = _service_counters(service)
    state["service_delta"] = {k: m1[k] - m0[k] for k in m0}
    state["tracer"] = tracer
    state["bad_payloads"] = loop.check_oracle()


def _service_counters(service: SolverService) -> dict[str, int]:
    m = service.metrics
    return {
        "cache_hits": m.cache_hits,
        "cache_misses": m.cache_misses,
        "coalesced": m.single_flight_coalesced,
        "engine_passes": m.engine_passes,
        "shed": m.requests_shed,
    }


def _serve_result(state: dict, setups: list[float], trace: bool) -> RunResult:
    loop: _ClosedLoop = state["loop"]
    bad = state["bad_payloads"]
    reqs = loop.requests
    failed = sum(
        not r.ok or (r.payload["problem"], r.payload["seed"]) in bad for r in reqs
    )
    leftovers = leaked_segments()
    failed += 1 if leftovers else 0
    untraced = [r for r in reqs if not r.traced]
    lat = [r.latency for r in untraced if r.ok]
    p90 = percentile(lat, 0.9)
    engine = [
        r.reply["wall_seconds"]
        for r in untraced
        if r.ok and not r.reply["from_cache"] and not r.reply["coalesced"]
    ]
    result = RunResult(
        correct=failed == 0,
        attempted=len(reqs),
        failed=failed,
        metrics={},
        params={
            "name": "serve-mix",
            "clients": SERVE_CLIENTS,
            "loop": "closed",
            "problems": list(SERVE_PROBLEMS),
            "n": SERVE_N,
            "grid": SERVE_GRID,
            "tile": SERVE_N // SERVE_GRID,
            "hot_seeds_per_problem": SERVE_HOT_SEEDS,
            "unique_share": round(len(SERVE_UNIQUE_SLOTS) / 9, 4),
            "strategy": "im",
            "backend": "threads",
            "executors": EXECUTORS,
            "cores_per_executor": CORES_PER_EXECUTOR,
            "journal": True,
        },
        notes={
            "requests": len(reqs),
            "latency_samples": len(lat),
            "samples_beyond_p90": sum(x > p90 for x in lat),
            "engine_pass_samples": len(engine),
            "distinct_payloads": len(loop.first),
            "oracle_mismatches": sorted(bad),
            "setups_s": [round(s, 4) for s in setups],
            "shm_leftovers": leftovers,
        },
    )
    if not trace:
        result.metrics = {
            "solve_s": median(engine),
            "latency_p50_ms": 1000 * median(lat),
            "latency_p90_ms": 1000 * p90,
            "throughput_rps": len(lat) / state["wall"],
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(False),
        }
        return result
    result.metrics = _serve_layers(state, reqs)
    return result


def _serve_layers(state: dict, reqs: list[_Request]) -> dict[str, float]:
    tracer: Tracer = state["tracer"]
    spans = tracer.spans
    traced = [r for r in reqs if r.traced and r.ok]
    n_req = max(len(traced), 1)

    def durations(kind, self_time=False):
        return [1000 * (x.self_time if self_time else x.duration) for x in spans if x.kind == kind]

    handled: dict[str, float] = {}
    for x in spans:
        if x.key is not None and x.kind in ("service.decode", "wait.ticket"):
            handled[x.key] = handled.get(x.key, 0.0) + x.duration
    reply_ms = [
        1000 * (r.latency - handled[r.payload["request_id"]])
        for r in traced
        if r.payload["request_id"] in handled
    ]
    delta = state["service_delta"]
    lookups = delta["cache_hits"] + delta["cache_misses"]
    summary = summarize(spans)
    kinds = summary["kinds"]

    def per_req(*names, field="s"):
        return sum(kinds.get(k, {}).get(field, 0.0) for k in names) / n_req

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "service.requests": float(len(traced)),
            "service.decode_ms": median(durations("service.decode")),
            "service.admit_ms": median(durations("service.admit", self_time=True)),
            "service.cache_get_ms": median(durations("cache.get")),
            "service.reply_ms": median(reply_ms),
            "service.queue_wait_ms": 1000 * median(tracer.queue_waits),
            "service.engine_pass_ms": median(durations("dpspark.solve")),
            "service.cache_hit_rate": delta["cache_hits"] / lookups if lookups else 0.0,
            "service.coalesced": float(delta["coalesced"]),
            "service.engine_passes": float(delta["engine_passes"]),
            "service.shed": float(delta["shed"]),
            "durable.wal_ms": median(durations("durable.wal", self_time=True)),
            "durable.spool_ms": median(durations("durable.spool")),
            "host.cpu_util": state["cpu_util"],
            "scheduler.job_s": per_req("scheduler.job", "scheduler.wave"),
            "shuffle.writes": per_req("shuffle.write", field="calls"),
            "shuffle.write_s": per_req("shuffle.write"),
            "shuffle.fetches": per_req("shuffle.fetch", field="calls"),
            "shuffle.fetch_s": per_req("shuffle.fetch"),
            "accounting.calls": per_req("accounting.sizeof", field="calls"),
            "accounting.s": per_req("accounting.sizeof"),
            "partitioner.calls": per_req("partitioner.partition", field="calls"),
            "partitioner.s": per_req("partitioner.partition"),
            "storage.puts": per_req("storage.put", field="calls"),
            "storage.gets": per_req("storage.get", field="calls"),
            "storage.put_s": per_req("storage.put"),
            "storage.get_s": per_req("storage.get"),
            "trace.spans": len(spans) / n_req,
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary["self_s"][layer] / n_req
    t0 = min(x.t0 for x in spans)
    t1 = max(x.t1 for x in spans)
    work = [x for x in spans if x.kind != "wait.ticket"]
    metrics["trace.uncovered_frac"] = 1.0 - covered(work, t0, t1) / (t1 - t0)
    # Cache hits only: the untraced first half starts with a cold cache,
    # so its share of engine passes is higher than the traced half's.
    hits = [[r.latency for r in reqs if r.ok and r.traced == t and r.reply["from_cache"]]
            for t in (False, True)]
    metrics["trace.overhead_frac"] = median(hits[1]) / median(hits[0]) - 1.0
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    if name == "serve-mix":
        return run_serve_mix(seed, seconds, trace, workdir)
    return run_solve_workload(name, seed, seconds, trace)
