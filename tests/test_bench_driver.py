"""``benchmarks/bench_driver.py`` runs the grid it reports.

``GepSparkSolver(r=...)`` takes the grid *count* (tiles per side).  The
driver once passed the tile side ``n // grid`` instead, so its "8x8
grid" ran a 32x32 grid of 8^2 tiles.  This stops the driver at its
first solve and checks what it handed the solver.
"""

from __future__ import annotations

import pytest

from benchmarks import bench_driver


class _Stop(Exception):
    pass


@pytest.mark.parametrize("n,grid", [(64, 4), (96, 8)])
def test_solver_r_equals_grid(monkeypatch, tmp_path, n, grid):
    seen = []

    class RecordingSolver:
        def __init__(self, spec, sc, *, r, **kw):
            seen.append(r)

        def solve(self, table):
            raise _Stop

    monkeypatch.setattr(bench_driver, "GepSparkSolver", RecordingSolver)
    with pytest.raises(_Stop):
        bench_driver.main(
            ["--n", str(n), "--grid", str(grid), "--out", str(tmp_path / "b.json")]
        )
    assert seen == [grid]
    assert not (tmp_path / "b.json").exists()
