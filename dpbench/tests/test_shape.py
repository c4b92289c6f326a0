"""Guards on the benchmark itself: shapes, oracles, counters, result format.

Run from the repository root with ``python -m pytest dpbench/tests``.
The shape tests run one full-size solve per workload (about a minute on
a 2-core host).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from dpbench.compare import verdict
from dpbench.metrics import END_TO_END, HOST_INDEPENDENT, PER_LAYER, percentile
from dpbench.tracing import ENTRY_POINTS, Tracer
from dpbench.workloads import (
    SERVE_CLIENTS,
    SOLVE_SHAPES,
    expected_invocations,
    ge_oracle,
    make_solver,
    make_table,
    serve_payloads,
    set_up,
    solve_once,
    solve_oracle,
)
from repro.baselines.references import numpy_floyd_warshall, scipy_shortest_paths
from repro.core.blocked import grid_bounds
from repro.core.gep import GaussianEliminationGep, gep_reference_vectorized
from repro.sparkle import SparkleContext
from repro.workloads import diagonally_dominant

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(SOLVE_SHAPES))
def test_named_grid_is_the_solvers_r(name):
    """The workload's grid is the tile count per side, never the tile side."""
    shape = SOLVE_SHAPES[name]
    with SparkleContext(num_executors=1, cores_per_executor=1) as sc:
        solver = make_solver(shape, sc)
    assert solver.r == shape.grid
    bounds = grid_bounds(shape.n, solver.r)
    assert len(bounds) - 1 == shape.grid
    assert {b - a for a, b in zip(bounds, bounds[1:])} == {shape.tile}


@pytest.mark.parametrize("name", sorted(SOLVE_SHAPES))
def test_solve_runs_grid_iterations_and_counters_repeat(name):
    """One solve runs ``grid`` outer iterations over ``grid**2`` tiles, is
    correct, and repeats every host-independent counter exactly."""
    shape = SOLVE_SHAPES[name]
    sc, table = set_up(shape, seed=7)
    try:
        solver = make_solver(shape, sc)
        expected = solve_oracle(shape, table)
        first = solve_once(sc, solver, table, expected)
        second = solve_once(sc, solver, table, expected)
    finally:
        sc.stop()
    assert first.ok and second.ok
    assert first.invocations == expected_invocations(shape)
    assert first.invocations["A"] == shape.grid  # one pivot tile per iteration
    if shape.problem == "apsp":  # FW updates every tile in every iteration
        assert first.counters["kernel_calls"] == shape.grid * shape.grid**2
    for key in HOST_INDEPENDENT:
        assert first.counters[key] == second.counters[key], key
    # The same counters from a different seed: they depend on the shape only.
    other_sc, other = set_up(shape, seed=8)
    try:
        third = solve_once(
            other_sc, make_solver(shape, other_sc), other, solve_oracle(shape, other)
        )
    finally:
        other_sc.stop()
    assert third.ok
    for key in HOST_INDEPENDENT:
        assert third.counters[key] == first.counters[key], key


@pytest.mark.parametrize("n,seed", [(64, 1), (130, 2), (256, 3)])
def test_ge_oracle_is_bit_identical_to_the_reference(n, seed):
    a = diagonally_dominant(n, seed=seed)
    assert np.array_equal(ge_oracle(a), gep_reference_vectorized(GaussianEliminationGep(), a))


def test_fw_oracles_agree_bitwise_on_integer_weights():
    table = make_table(SOLVE_SHAPES["fw-overhead"], seed=3, n=160)
    assert np.array_equal(scipy_shortest_paths(table), numpy_floyd_warshall(table))


def test_serve_payloads_are_seeded_and_mixed():
    take = 297  # whole cycles of nine requests
    first = [list(islice(serve_payloads(5, c), take)) for c in range(SERVE_CLIENTS)]
    again = [list(islice(serve_payloads(5, c), take)) for c in range(SERVE_CLIENTS)]
    assert first == again
    assert first != [list(islice(serve_payloads(6, c), take)) for c in range(SERVE_CLIENTS)]
    seeds = [p["seed"] for stream in first for p in stream]
    unique = [s for s in seeds if s >= 10**9]
    assert len(unique) == len(set(unique))  # unique payloads never repeat
    assert len(unique) * 3 == len(seeds)  # exactly a third
    for problem in ("apsp", "ge", "tc"):  # a third of each problem's requests
        mine = [p["seed"] for stream in first for p in stream if p["problem"] == problem]
        assert len(mine) * 3 == len(seeds)
        assert sum(s >= 10**9 for s in mine) * 3 == len(mine)


def test_tracer_restores_every_entry_point():
    import importlib

    def current():
        out = []
        for _kind, module, cls, attr in ENTRY_POINTS:
            owner = importlib.import_module(module)
            owner = getattr(owner, cls) if cls else owner
            out.append(getattr(owner, attr))
        return out

    before = current()
    with Tracer():
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    names = {w["name"] for w in spec["workloads"]}
    assert names == {*SOLVE_SHAPES, "serve-mix"}


@pytest.mark.parametrize("values", [[2.0], [3.0, 1.0, 2.0], [5, 1, 4, 2, 3, 9, 7], list(range(250))])
def test_percentile_is_numpys_lower_method(values):
    for q in (0.5, 0.9):
        assert percentile(values, q) == np.percentile(values, 100 * q, method="lower")


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert verdict("solve_s", base, [1.3, 1.31, 1.29, 1.32, 1.28]) == "worse"
    assert verdict("solve_s", base, [1.0, 1.01, 0.99, 1.0, 1.02]) == "within"
    assert verdict("solve_s", base, [0.5, 0.51, 0.49, 0.5, 0.52]) == "better"
    assert verdict("solve_s", base, [0.7, 1.4, 0.9, 1.3, 1.0]) == "unresolved"
    assert verdict("throughput_rps", base, [0.5, 0.51, 0.49, 0.5, 0.52]) == "worse"


def test_run_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "dpbench", tmp_path / "dpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "dpbench/run.py", "--workload", "fw-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
