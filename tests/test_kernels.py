"""Tile kernels: iterative vs scalar loop, recursive vs iterative,
aliasing cases, stats accounting, OpenMP runtime behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocked import blocked_gep_inplace
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
    gep_reference_vectorized,
)
from repro.kernels import (
    IterativeKernel,
    KernelStats,
    OmpRuntime,
    RecursiveKernel,
    SerialRuntime,
    case_of,
    gep_tile_update,
    gep_tile_update_loop,
)

from .conftest import assert_tables_equal, fw_table, ge_table, tc_table

SPECS = {
    "fw": (FloydWarshallGep(), fw_table),
    "ge": (GaussianEliminationGep(), ge_table),
    "tc": (TransitiveClosureGep(), tc_table),
}


def _tiles(table, k, r_bounds):
    """Views of pivot-aligned tiles for manual kernel calls."""
    b = r_bounds

    def t(i, j):
        return table[b[i] : b[i + 1], b[j] : b[j + 1]]

    return t


@pytest.mark.parametrize("name", SPECS)
class TestIterativeTileKernel:
    def test_vectorized_equals_scalar_loop_case_a(self, name):
        spec, make = SPECS[name]
        t1 = make(8, seed=1).copy()
        t2 = t1.copy()
        gep_tile_update(spec, t1, t1, t1, t1, 0, 0, 0, 8)
        gep_tile_update_loop(spec, t2, t2, t2, t2, 0, 0, 0, 8)
        assert_tables_equal(t1, t2)

    def test_vectorized_equals_scalar_loop_all_cases(self, name):
        spec, make = SPECS[name]
        n, r = 12, 3
        bounds = [0, 4, 8, 12]
        full_a = make(n, seed=2).copy()
        full_b = full_a.copy()
        for table, fn in ((full_a, gep_tile_update), (full_b, gep_tile_update_loop)):
            t = _tiles(table, 0, bounds)
            k = 0
            fn(spec, t(k, k), t(k, k), t(k, k), t(k, k), 0, 0, 0, n)
            fn(spec, t(0, 1), t(0, 0), t(0, 1), t(0, 0), 0, 4, 0, n)  # B
            fn(spec, t(1, 0), t(1, 0), t(0, 0), t(0, 0), 4, 0, 0, n)  # C
            fn(spec, t(1, 1), t(1, 0), t(0, 1), t(0, 0), 4, 4, 0, n)  # D
        assert_tables_equal(full_a, full_b)

    def test_kernel_class_runs(self, name):
        spec, make = SPECS[name]
        t = make(6, seed=3).copy()
        stats = KernelStats()
        IterativeKernel(spec).run("A", t, t, t, t, 0, 0, 0, 6, stats=stats)
        assert stats.invocations["A"] == 1
        assert stats.updates > 0

    def test_pure_loop_kernel_matches(self, name):
        spec, make = SPECS[name]
        ref = make(10, seed=4)
        fast = ref.copy()
        slow = ref.copy()
        blocked_gep_inplace(spec, fast, 2, IterativeKernel(spec))
        blocked_gep_inplace(spec, slow, 2, IterativeKernel(spec, pure_loop=True))
        assert_tables_equal(fast, slow)


@pytest.mark.parametrize("name", SPECS)
class TestMaskHoistFastPath:
    """Tiles whose Σ_G box is the whole tile at every step (FW/TC
    always; GE strictly below/right of the pivot band) must be
    indistinguishable from the scalar loop, as must the band tiles
    whose box shrinks step by step."""

    def test_fast_and_masked_tiles_match_loop(self, name):
        spec, make = SPECS[name]
        n, r = 16, 4
        full = make(n, seed=13).copy()
        # Walk every tile of the second pivot step: GE tiles touching
        # the pivot row/column band get a shrinking box, tiles strictly
        # below/right of it the full tile, FW/TC always the full tile.
        gk0 = 4
        for gi0 in range(0, n, r):
            for gj0 in range(0, n, r):
                x1 = full[gi0 : gi0 + r, gj0 : gj0 + r].copy()
                x2 = x1.copy()
                u = full[gi0 : gi0 + r, gk0 : gk0 + r].copy()
                v = full[gk0 : gk0 + r, gj0 : gj0 + r].copy()
                w = full[gk0 : gk0 + r, gk0 : gk0 + r].copy()
                gep_tile_update(spec, x1, u, v, w, gi0, gj0, gk0, n)
                gep_tile_update_loop(spec, x2, u, v, w, gi0, gj0, gk0, n)
                assert_tables_equal(x1, x2)

    def test_fast_path_fires_where_expected(self, name, monkeypatch):
        """Below/right of the pivot band every step updates the full
        tile: one box probe per step, each answering ``(0, 0)``."""
        spec, make = SPECS[name]
        n, r, gk0 = 16, 4, 4
        boxes = []
        orig = type(spec).sigma_box

        def recording_box(self, gi0, gj0, shape, gk):
            boxes.append(orig(self, gi0, gj0, shape, gk))
            return boxes[-1]

        monkeypatch.setattr(type(spec), "sigma_box", recording_box)
        full = make(n, seed=3).copy()
        x = full[8:12, 8:12].copy()
        u = full[8:12, gk0 : gk0 + r].copy()
        v = full[gk0 : gk0 + r, 8:12].copy()
        w = full[gk0 : gk0 + r, gk0 : gk0 + r].copy()
        stats = KernelStats()
        gep_tile_update(spec, x, u, v, w, 8, 8, gk0, n, stats=stats, case="D")
        assert boxes == [(0, 0)] * r
        assert stats.updates == x.size * r

    def test_fast_path_stats_match_general_path(self, name):
        """``stats.updates`` equals the scalar Σ_G count, on full-box
        tiles and on band tiles alike."""
        spec, make = SPECS[name]
        n, r = 12, 4
        full = make(n, seed=8).copy()
        w = full[0:4, 0:4].copy()
        for gi0, gj0 in [(8, 8), (0, 8), (8, 0), (0, 0)]:
            x = full[gi0 : gi0 + r, gj0 : gj0 + r].copy()
            u = full[gi0 : gi0 + r, 0:4].copy()
            v = full[0:4, gj0 : gj0 + r].copy()
            stats = KernelStats()
            gep_tile_update(spec, x, u, v, w, gi0, gj0, 0, n, stats=stats, case="D")
            assert stats.updates == _sigma_count(spec, gi0, gj0, x.shape, 0, r, n)
            assert stats.invocations["D"] == 1


def _sigma_count(spec, gi0, gj0, shape, gk0, pivot, n_global):
    """Scalar Σ_G update count of one tile-kernel call."""
    return sum(
        spec.sigma(gi0 + a, gj0 + b, gk0 + kk)
        for kk in range(pivot)
        if spec.k_active(gk0 + kk, n_global)
        for a in range(shape[0])
        for b in range(shape[1])
    )


def test_fast_path_respects_partial_pivot_range():
    """GE with ``n_pivots`` short of the tile's range must not hoist —
    inactive trailing steps would be applied by the hoisted loop."""
    n = 12
    spec_full = GaussianEliminationGep()
    spec_part = GaussianEliminationGep(n_pivots=6)
    t = ge_table(n, seed=21)
    # pivot range [4, 8) straddles n_pivots=6: steps 6,7 are inactive
    x_p = t[8:12, 8:12].copy()
    x_ref = x_p.copy()
    u = t[8:12, 4:8].copy()
    v = t[4:8, 8:12].copy()
    w = t[4:8, 4:8].copy()
    gep_tile_update(spec_part, x_p, u, v, w, 8, 8, 4, n)
    gep_tile_update_loop(spec_part, x_ref, u, v, w, 8, 8, 4, n)
    assert_tables_equal(x_p, x_ref)
    # and the partial result genuinely differs from the full-pivot one
    x_full = t[8:12, 8:12].copy()
    gep_tile_update(spec_full, x_full, u, v, w, 8, 8, 4, n)
    assert not np.allclose(x_p, x_full)


def test_sigma_box_monotone_contract():
    """Σ_G boxes only shrink as ``gk`` grows: offsets never decrease,
    and a tile with no update at ``gk`` has none at any later step."""
    spec = GaussianEliminationGep()
    for gi0, gj0 in [(0, 0), (8, 8), (8, 0), (0, 8), (12, 12)]:
        for shape in [(4, 4), (3, 5)]:
            prev = (0, 0)
            for gk in range(0, 18):
                box = spec.sigma_box(gi0, gj0, shape, gk)
                if prev is None:
                    assert box is None, (gi0, gj0, shape, gk)
                elif box is not None:
                    assert box[0] >= prev[0] and box[1] >= prev[1]
                prev = box


_PROPERTY_SPECS = {
    "fw": (FloydWarshallGep, fw_table),
    "tc": (TransitiveClosureGep, tc_table),
    "ge": (GaussianEliminationGep, ge_table),
}


@given(
    name=st.sampled_from(sorted(_PROPERTY_SPECS)),
    case=st.sampled_from("ABCD"),
    cuts=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    data=st.data(),
    seed=st.integers(0, 50),
)
@settings(max_examples=60, deadline=None)
def test_property_box_kernel_equals_scalar_loop(name, case, cuts, data, seed):
    """The box kernel equals the scalar loop bit for bit, and counts
    exactly the scalar Σ_G updates, for every alias pattern on an
    uneven grid (non-square edge tiles) with the updated tile above,
    on or below/right of the pivot band, and GE with ``n_pivots``
    stopping anywhere."""
    spec_cls, make = _PROPERTY_SPECS[name]
    n_pivots = None
    if name == "ge":
        n_pivots = data.draw(st.one_of(st.none(), st.integers(0, sum(cuts))))
    spec = spec_cls(n_pivots=n_pivots) if n_pivots is not None else spec_cls()
    bounds = [0]
    for c in cuts:
        bounds.append(bounds[-1] + c)
    n, nb = bounds[-1], len(cuts)
    kb = data.draw(st.integers(0, nb - 1))
    others = [t for t in range(nb) if t != kb]
    ib = kb if case in "AB" else data.draw(st.sampled_from(others))
    jb = kb if case in "AC" else data.draw(st.sampled_from(others))
    table = make(n, seed=seed)
    outs, counts = [], []
    for fn in (gep_tile_update, gep_tile_update_loop):
        t = table.copy()

        def tile(i, j, t=t):
            return t[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]

        x, u, v, w = tile(ib, jb), tile(ib, kb), tile(kb, jb), tile(kb, kb)
        # the solver's aliasing: A u=v=w=x, B v=x, C u=x, D distinct
        if case == "A":
            u = v = w = x
        elif case == "B":
            v = x
        elif case == "C":
            u = x
        if not spec.needs_w and data.draw(st.booleans()):
            w = None
        args = (spec, x, u, v, w, bounds[ib], bounds[jb], bounds[kb], n)
        if fn is gep_tile_update:
            stats = KernelStats()
            fn(*args, stats=stats, case=case)
            counts.append(stats.updates)
        else:
            fn(*args)
        outs.append(t)
    assert outs[0].tobytes() == outs[1].tobytes()
    pivot = bounds[kb + 1] - bounds[kb]
    shape = (bounds[ib + 1] - bounds[ib], bounds[jb + 1] - bounds[jb])
    assert counts[0] == _sigma_count(
        spec, bounds[ib], bounds[jb], shape, bounds[kb], pivot, n
    )


class TestKernelShapeValidation:
    def test_bad_pivot_shape(self, fw_spec):
        x = np.zeros((4, 4))
        with pytest.raises(ValueError):
            gep_tile_update(fw_spec, x, x, x, np.zeros((4, 3)), 0, 0, 0, 4)

    def test_bad_u_shape(self, fw_spec):
        x = np.zeros((4, 4))
        w = np.zeros((2, 2))
        with pytest.raises(ValueError):
            gep_tile_update(fw_spec, x, np.zeros((3, 2)), np.zeros((2, 4)), w, 0, 0, 0, 4)

    def test_bad_v_shape(self, fw_spec):
        x = np.zeros((4, 4))
        w = np.zeros((2, 2))
        with pytest.raises(ValueError):
            gep_tile_update(fw_spec, x, np.zeros((4, 2)), np.zeros((3, 4)), w, 0, 0, 0, 4)

    def test_unknown_case_rejected(self, fw_spec):
        k = RecursiveKernel(fw_spec)
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            k.run("E", x, x, x, x, 0, 0, 0, 2)

    def test_bad_kernel_params(self, fw_spec):
        with pytest.raises(ValueError):
            RecursiveKernel(fw_spec, r_shared=1)
        with pytest.raises(ValueError):
            RecursiveKernel(fw_spec, base_size=0)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("r_shared,base", [(2, 1), (2, 4), (3, 2), (4, 4), (8, 2)])
def test_recursive_equals_reference(name, r_shared, base):
    spec, make = SPECS[name]
    n = 17  # deliberately not divisible by anything relevant
    t = make(n, seed=r_shared * 10 + base)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    kern = RecursiveKernel(spec, r_shared=r_shared, base_size=base)
    kern.run("A", got, got, got, got, 0, 0, 0, n)
    assert_tables_equal(got, expect)


@pytest.mark.parametrize("name", SPECS)
def test_recursive_parallel_equals_serial(name):
    spec, make = SPECS[name]
    n = 24
    t = make(n, seed=9)
    serial = t.copy()
    RecursiveKernel(spec, 4, 4, SerialRuntime()).run(
        "A", serial, serial, serial, serial, 0, 0, 0, n
    )
    with OmpRuntime(num_threads=4) as rt:
        par = t.copy()
        RecursiveKernel(spec, 4, 4, rt).run("A", par, par, par, par, 0, 0, 0, n)
    assert_tables_equal(par, serial)


def test_recursive_stats_accounting(fw_spec):
    n = 16
    t = fw_table(n, seed=1)
    stats = KernelStats()
    kern = RecursiveKernel(fw_spec, r_shared=2, base_size=4)
    kern.run("A", t, t, t, t, 0, 0, 0, n, stats=stats)
    # Every cell update is counted exactly once: n^3 for FW.
    assert stats.updates == n**3
    assert stats.recursion_calls > 0
    assert stats.parallel_stages > 0
    assert set(stats.invocations) <= {"A", "B", "C", "D"}


def test_iterative_stats_updates_count(ge_spec):
    n = 8
    t = ge_table(n, seed=2)
    stats = KernelStats()
    IterativeKernel(ge_spec).run("A", t, t, t, t, 0, 0, 0, n, stats=stats)
    # GE updates sum_k (n-1-k)^2
    expect = sum((n - 1 - k) ** 2 for k in range(n))
    assert stats.updates == expect


def test_stats_merge_and_log():
    a = KernelStats(keep_log=True)
    b = KernelStats(keep_log=True)
    a.record_base("A", 2, 2, 2, 8)
    b.record_base("D", 2, 2, 2, 8)
    b.record_parallel_for(5)
    a.merge(b)
    assert a.updates == 16
    assert a.total_invocations == 2
    assert a.max_parallel_width == 5
    assert len(a.log) == 2


def test_case_of_roundtrip():
    from repro.kernels import CASE_FLAGS

    for case, flags in CASE_FLAGS.items():
        assert case_of(*flags) == case


class TestOmpRuntime:
    def test_serial_executes_in_order(self):
        seen = []
        rt = SerialRuntime()
        rt.parallel_for([lambda i=i: seen.append(i) for i in range(5)])
        assert seen == [0, 1, 2, 3, 4]

    def test_parallel_executes_all(self):
        seen = set()
        with OmpRuntime(3) as rt:
            rt.parallel_for([lambda i=i: seen.add(i) for i in range(20)])
        assert seen == set(range(20))

    def test_nested_parallel_for_is_inlined(self):
        order = []

        def outer(i):
            rt.parallel_for([lambda j=j: order.append((i, j)) for j in range(3)])

        with OmpRuntime(2) as rt_outer:
            rt = rt_outer
            rt.parallel_for([lambda i=i: outer(i) for i in range(4)])
        assert len(order) == 12

    def test_exception_propagates(self):
        def boom():
            raise RuntimeError("task failed")

        with OmpRuntime(2) as rt:
            with pytest.raises(RuntimeError, match="task failed"):
                rt.parallel_for([boom, lambda: None])

    def test_empty_batch_is_noop(self):
        with OmpRuntime(2) as rt:
            rt.parallel_for([])

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            OmpRuntime(0)

    def test_map_helper(self):
        out = []
        SerialRuntime().map(out.append, [1, 2, 3])
        assert out == [1, 2, 3]

    def test_stats_width_recording(self):
        stats = KernelStats()
        rt = OmpRuntime(1, stats=stats)
        rt.parallel_for([lambda: None] * 7)
        assert stats.max_parallel_width == 7
        assert stats.parallel_stages == 1


@given(
    n=st.integers(min_value=1, max_value=20),
    r_shared=st.integers(min_value=2, max_value=5),
    base=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_property_recursive_fw_equals_reference(n, r_shared, base, seed):
    spec = FloydWarshallGep()
    t = fw_table(n, seed=seed)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    RecursiveKernel(spec, r_shared, base).run("A", got, got, got, got, 0, 0, 0, n)
    np.testing.assert_allclose(got, expect)


@given(
    n=st.integers(min_value=1, max_value=16),
    r_shared=st.integers(min_value=2, max_value=4),
    base=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_property_recursive_ge_equals_reference(n, r_shared, base, seed):
    spec = GaussianEliminationGep()
    t = ge_table(n, seed=seed)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    RecursiveKernel(spec, r_shared, base).run("A", got, got, got, got, 0, 0, 0, n)
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)
