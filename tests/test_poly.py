"""Methodology 2: polyhedral-lite tiling, splitting, dependence analysis."""

import pytest

from repro.core.autogen import rway_algorithm
from repro.core.blocked import updated_tiles
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep, TransitiveClosureGep
from repro.poly import (
    AffB,
    LinearConstraint,
    TileStatus,
    TiledGep,
    bernstein_dependent,
    TileAccess,
    gep_domain_constraints,
    index_set_split,
    poly_schedule,
    schedule_iteration,
)

FW = FloydWarshallGep()
GE = GaussianEliminationGep()
TC = TransitiveClosureGep()


class TestAffB:
    def test_arithmetic(self):
        a = AffB(2, -1) + AffB(1, 3)
        assert (a.alpha, a.beta) == (3, 2)
        b = AffB(2, -1) - 1
        assert (b.alpha, b.beta) == (2, -2)
        assert AffB(1, 0).scale(-2) == AffB(-2, 0)

    def test_always_nonneg(self):
        assert AffB(1, -1).always_nonneg()  # b - 1 >= 0 for b >= 1
        assert not AffB(1, -2).always_nonneg()  # fails at b = 1
        assert not AffB(-1, 100).always_nonneg()  # fails for large b

    def test_always_negative(self):
        assert AffB(0, -1).always_negative()
        assert AffB(-1, 0).always_negative()
        assert not AffB(0, 0).always_negative()
        assert not AffB(1, -100).always_negative()


class TestTileClassification:
    def test_i_gt_k_statuses(self):
        c = LinearConstraint.greater("i", "k")
        # tile fully above the pivot block: FULL
        assert c.tile_status({"i": 2, "k": 0, "j": 0}) is TileStatus.FULL
        # same block: PARTIAL (diagonal boundary)
        assert c.tile_status({"i": 1, "k": 1, "j": 0}) is TileStatus.PARTIAL
        # below: EMPTY
        assert c.tile_status({"i": 0, "k": 1, "j": 0}) is TileStatus.EMPTY

    def test_holds_pointwise(self):
        c = LinearConstraint.greater("i", "k")
        assert c.holds({"i": 3, "k": 2, "j": 0})
        assert not c.holds({"i": 2, "k": 2, "j": 0})

    def test_unconstrained_spec_has_no_constraints(self):
        assert gep_domain_constraints(FW) == []
        assert len(gep_domain_constraints(GE)) == 2

    def test_case_classification(self):
        tiled = TiledGep(FW)
        assert tiled.classify(1, 1, 1).case == "A"
        assert tiled.classify(1, 1, 2).case == "B"
        assert tiled.classify(1, 0, 1).case == "C"
        assert tiled.classify(1, 0, 2).case == "D"

    def test_ge_dead_tiles_are_empty(self):
        tiled = TiledGep(GE)
        # tile strictly above the pivot row block is never updated
        assert tiled.classify(2, 0, 3).empty
        assert tiled.classify(2, 3, 0).empty
        assert not tiled.classify(2, 3, 3).empty

    def test_partial_tiles_need_masks(self):
        tiled = TiledGep(GE)
        assert tiled.intra_tile_is_partial(tiled.classify(1, 1, 2))  # B: i boundary
        assert not tiled.intra_tile_is_partial(tiled.classify(1, 2, 3))  # D: interior


@pytest.mark.parametrize("spec", [FW, GE, TC], ids=["fw", "ge", "tc"])
@pytest.mark.parametrize("nb", [2, 3, 5])
def test_updated_tiles_match_blocked_module(spec, nb):
    """The polyhedral enumeration equals the executable grid ranges."""
    tiled = TiledGep(spec)
    for kb in range(nb):
        poly = {(t.case, (t.ib, t.jb)) for t in tiled.updated_tiles(kb, nb)}
        grid = updated_tiles(spec, kb, nb)
        expect = {
            (case, tile) for case, tiles in grid.items() for tile in tiles
        }
        assert poly == expect


class TestIndexSetSplit:
    def test_ge_produces_four_functions(self):
        fns = index_set_split(GE)
        assert [f.name for f in fns] == ["A", "B", "C", "D"]

    def test_parallelism_ranking(self):
        fns = {f.name: f for f in index_set_split(GE)}
        assert fns["D"].parallelism_rank == 3
        assert fns["B"].parallelism_rank == fns["C"].parallelism_rank == 2
        assert fns["A"].parallelism_rank == 0

    def test_disjoint_operands(self):
        fns = {f.name: f for f in index_set_split(GE)}
        assert fns["B"].reads_disjoint == ("U", "W")
        assert fns["C"].reads_disjoint == ("V", "W")
        assert fns["D"].reads_disjoint == ("U", "V", "W")

    def test_ge_boundary_masks(self):
        fns = {f.name: f for f in index_set_split(GE)}
        # A, B, C straddle the Σ_G boundary; D tiles are interior.
        assert fns["A"].needs_sigma_guard
        assert fns["B"].needs_sigma_guard
        assert fns["C"].needs_sigma_guard
        assert not fns["D"].needs_sigma_guard

    def test_fw_no_masks_needed(self):
        fns = index_set_split(FW)
        assert [f.name for f in fns] == ["A", "B", "C", "D"]
        assert not any(f.needs_sigma_guard for f in fns)

    @pytest.mark.parametrize("nb", [2, 3, 4, 6])
    def test_split_stable_across_grid_sizes(self, nb):
        assert index_set_split(GE, nb=nb) == index_set_split(GE, nb=4)


class TestDependence:
    def test_bernstein_pairs(self):
        a = TileAccess.of(0, 0, 0)  # writes (0,0)
        b = TileAccess.of(0, 0, 1)  # reads (0,0)
        d = TileAccess.of(0, 1, 1)  # reads (1,0),(0,1),(0,0)
        assert bernstein_dependent(a, b)
        assert bernstein_dependent(a, d)

    def test_b_and_c_parallel(self):
        b = TileAccess.of(0, 0, 1)
        c = TileAccess.of(0, 1, 0)
        assert not bernstein_dependent(b, c)

    def test_iteration_schedule_is_abc_d(self):
        stages = schedule_iteration(GE, 0, 3)
        assert [sorted({t.case for t in s}) for s in stages] == [
            ["A"],
            ["B", "C"],
            ["D"],
        ]

    def test_last_ge_iteration_single_stage(self):
        stages = schedule_iteration(GE, 2, 3)
        assert len(stages) == 1
        assert stages[0][0].case == "A"


@pytest.mark.parametrize("spec", [FW, GE], ids=["fw", "ge"])
@pytest.mark.parametrize("nb", [2, 3, 4])
def test_poly_schedule_equals_methodology_one(spec, nb):
    """§IV's two derivations must produce the same staged algorithm."""
    alg = rway_algorithm(spec, nb)
    a = [
        {(c.case, (c.x.i0, c.x.j0)) for c in stage_calls}
        for stage_calls in alg.stages()
    ]
    p = [
        {(t.case, (t.ib, t.jb)) for t in stage_tiles}
        for stage_tiles in poly_schedule(spec, nb)
    ]
    assert a == p
