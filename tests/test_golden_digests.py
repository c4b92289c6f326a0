"""Golden output digests for GE/FW/TC engine solves.

Every ``(problem, strategy, backend, pipeline depth)`` combination below
solves a fixed seeded table and hashes the result bytes.  The digests
were recorded from the mask-based tile kernel that preceded the
box-shaped Σ_G kernel (DESIGN.md §3), so they pin the claim that the
kernel rewrite changed no output bit on any path a tile update can take:
in-process threads, pickle-5/shm process offloads, barrier and
wavefront-pipelined admission, IM/CB/bcast operand staging.

The grid of 3 tiles over n=20 gives unequal 7/7/6 tiles, so non-square
edge tiles run through every kernel case.  ``ge-partial`` stops
pivoting inside a tile (``n_pivots=15``).

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
)
from repro.sparkle import SparkleContext
from repro.sparkle.serialize import shm_supported
from repro.workloads import diagonally_dominant, random_digraph_weights
from repro.workloads.graphs import weights_to_boolean

N, GRID, SEED = 20, 3, 5
STRATEGIES = ("im", "cb", "bcast")


def _problems():
    weights = random_digraph_weights(N, 0.35, seed=SEED)
    ge = diagonally_dominant(N, seed=SEED)
    return {
        "fw": (FloydWarshallGep(), weights),
        "tc": (TransitiveClosureGep(), weights_to_boolean(weights)),
        "ge": (GaussianEliminationGep(), ge),
        "ge-partial": (GaussianEliminationGep(n_pivots=15), ge),
    }


def solve_digests(backend: str, depth: int) -> dict[str, str]:
    """BLAKE2b-128 of every problem x strategy result on one context."""
    out: dict[str, str] = {}
    with SparkleContext(
        num_executors=2, cores_per_executor=1, backend=backend, pipeline_depth=depth
    ) as sc:
        for name, (spec, table) in _problems().items():
            for strategy in STRATEGIES:
                solver = GepSparkSolver(
                    spec,
                    sc,
                    r=GRID,
                    kernel=make_kernel(spec, "iterative"),
                    strategy=strategy,
                )
                result, _ = solver.solve(table.copy())
                out[f"{name}/{strategy}"] = hashlib.blake2b(
                    np.ascontiguousarray(result).tobytes(), digest_size=16
                ).hexdigest()
    return out


#: recorded with the mask-based kernel; identical for every backend and
#: pipeline depth (the bit-identity contract of DESIGN.md §12/§17)
GOLDEN = {
    "fw/im": "fbe0a22f0058c385c8d939e5addef500",
    "fw/cb": "fbe0a22f0058c385c8d939e5addef500",
    "fw/bcast": "fbe0a22f0058c385c8d939e5addef500",
    "tc/im": "1d177e8e2cfc9c6c82322942b8d4a639",
    "tc/cb": "1d177e8e2cfc9c6c82322942b8d4a639",
    "tc/bcast": "1d177e8e2cfc9c6c82322942b8d4a639",
    "ge/im": "c042fdfee776680f83f8a86f0651c9ae",
    "ge/cb": "c042fdfee776680f83f8a86f0651c9ae",
    "ge/bcast": "c042fdfee776680f83f8a86f0651c9ae",
    "ge-partial/im": "93d5847200dd3aa81a3160ced257eb67",
    "ge-partial/cb": "93d5847200dd3aa81a3160ced257eb67",
    "ge-partial/bcast": "93d5847200dd3aa81a3160ced257eb67",
}

CONFIGS = [
    ("threads", 1),
    ("threads", 2),
    ("processes", 1),
    ("processes", 2),
]


@pytest.mark.parametrize("backend,depth", CONFIGS)
def test_solve_digests_match_golden(backend, depth):
    if backend == "processes" and not shm_supported():
        pytest.skip("multiprocessing.shared_memory unavailable")
    assert solve_digests(backend, depth) == GOLDEN


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for backend, depth in CONFIGS:
        print(backend, depth, solve_digests(backend, depth))
