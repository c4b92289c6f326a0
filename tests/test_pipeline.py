"""Wavefront pipelining: dependence-driven stage admission (DESIGN.md §17).

The invariant under test is the tentpole contract of the pipelined solve
path: for any ``pipeline_depth >= 2`` the engine may overlap outer
iterations, but only under the *derived* tile-level dependence relation
(:func:`repro.poly.cross_iteration_edges`), so the result stays
bit-identical to barrier mode — across every distribution strategy,
both backends, seeded chaos, and crash-resume — while the pipeline
metrics prove real overlap happened.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import run_gep
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
)
from repro.poly import (
    asap_levels,
    cross_iteration_edges,
    iteration_read_versions,
    schedule_iteration,
)
from repro.poly import dependence
from repro.poly.dependence import build_read_versions
from repro.sparkle import FaultPlan, FaultSpec, SparkleContext
from repro.sparkle.pipeline import TileTracker

from .conftest import fw_table, ge_table, tc_table

pytestmark = pytest.mark.pipeline

REPO_ROOT = Path(__file__).resolve().parent.parent
FW = FloydWarshallGep()
GE = GaussianEliminationGep()
TC = TransitiveClosureGep()


def solve(table, *, spec=FW, strategy="im", r=8, depth=1, backend="threads",
          plan=None, memory_budget=None):
    with SparkleContext(3, 2, fault_plan=plan, pipeline_depth=depth,
                        backend=backend,
                        memory_budget_bytes=memory_budget) as sc:
        kernel = make_kernel(spec, "iterative", r_shared=2, base_size=4)
        solver = GepSparkSolver(spec, sc, r=r, kernel=kernel,
                                strategy=strategy)
        out, report = solver.solve(table)
        return out, report, sc.metrics


# ----------------------------------------------------------------------
# TileTracker: the readiness map the admission path is built on
# ----------------------------------------------------------------------
class TestTileTracker:
    def test_when_fires_immediately_when_satisfied(self):
        t = TileTracker()
        t.settle((1, 0, 0), "x")
        hits = []
        t.when([(1, 0, 0)], lambda: hits.append(1))
        assert hits == [1]

    def test_when_fires_on_last_gate(self):
        t = TileTracker()
        hits = []
        t.when([(1, 0, 0), (1, 0, 1)], lambda: hits.append(1))
        t.settle((1, 0, 0), "a")
        assert hits == []
        t.settle((1, 0, 1), "b")
        assert hits == [1]
        assert t.get((1, 0, 0)) == "a"

    def test_waiters_fire_in_registration_order(self):
        t = TileTracker()
        hits = []
        t.when([(2, 0, 0)], lambda: hits.append("first"))
        t.when([(2, 0, 0)], lambda: hits.append("second"))
        t.settle((2, 0, 0), None)
        assert hits == ["first", "second"]

    def test_double_settle_raises(self):
        t = TileTracker()
        t.settle((1, 0, 0), "x")
        with pytest.raises(RuntimeError, match="settled twice"):
            t.settle((1, 0, 0), "y")

    def test_forward_propagates_value(self):
        t = TileTracker()
        t.forward((1, 2, 3), (2, 2, 3))
        t.settle((1, 2, 3), "payload")
        assert t.get((2, 2, 3)) == "payload"

    def test_wait_all_timeout(self):
        t = TileTracker()
        with pytest.raises(TimeoutError, match="never settled"):
            t.wait_all([(9, 0, 0)], timeout=0.01)

    def test_abort_latches_first_error_and_wakes(self):
        t = TileTracker()
        t.abort(ValueError("boom"))
        t.abort(KeyError("later"))  # first error wins
        with pytest.raises(ValueError, match="boom"):
            t.wait_all([(1, 0, 0)], timeout=1.0)
        with pytest.raises(ValueError, match="boom"):
            t.get((1, 0, 0))
        # settles after abort are dropped, callbacks never fire
        hits = []
        t.when([(1, 0, 0)], lambda: hits.append(1))
        t.settle((1, 0, 0), "x")
        assert hits == []

    def test_prune_below_drops_old_versions_only(self):
        t = TileTracker()
        t.settle((1, 0, 0), "old")
        t.settle((3, 0, 0), "new")
        t.prune_below(2)
        with pytest.raises(KeyError):
            t.get((1, 0, 0))
        assert t.get((3, 0, 0)) == "new"


# ----------------------------------------------------------------------
# derived legality: ASAP levels and the cross-iteration relation
# ----------------------------------------------------------------------
class TestDerivedDependences:
    @pytest.mark.parametrize("spec", [FW, GE, TC], ids=["fw", "ge", "tc"])
    @pytest.mark.parametrize("nb", [1, 2, 4])
    def test_asap_levels_pin_the_wavefront(self, spec, nb):
        """Computed levels are exactly rank(A)=0, rank(B)=rank(C)=1,
        rank(D)=2 — the A -> (B || C) -> D wavefront, derived not
        asserted."""
        expected_rank = {"A": 0, "B": 1, "C": 1, "D": 2}
        for kb in range(nb):
            tiles, level = asap_levels(spec, kb, nb)
            assert len(tiles) == len(level)
            for tile, lv in zip(tiles, level):
                assert lv == expected_rank[tile.case], (kb, tile)
            # consistency with the staged view
            stages = schedule_iteration(spec, kb, nb)
            assert [t.case for st_ in stages for t in st_] == sorted(
                (t.case for t in tiles), key=expected_rank.get
            )

    def test_read_versions_fw_k0(self):
        """Version split for FW kb=0, nb=2: A reads its own tile pre;
        B/C read the pivot post-update; D reads its row/col/pivot
        operands post-update."""
        va = {v.point: v for v in iteration_read_versions(FW, 0, 2)}
        a = va[(0, 0, 0)]
        assert a.case == "A" and a.post_reads == frozenset()
        b = va[(0, 0, 1)]
        assert b.case == "B"
        assert b.pre_reads == frozenset({(0, 1)})
        assert b.post_reads == frozenset({(0, 0)})
        d = va[(0, 1, 1)]
        assert d.case == "D"
        assert d.pre_reads == frozenset({(1, 1)})
        assert d.post_reads == frozenset({(1, 0), (0, 1), (0, 0)})

    def test_cross_iteration_edges_fw(self):
        """Iteration 1's pivot work depends only on iteration 0's writes
        to the tiles it reads — not on all of iteration 0."""
        edges = cross_iteration_edges(FW, 0, 3)
        # next pivot A(1,1,1) needs k=0's D on (1,1) only
        assert edges[(1, 1, 1)] == frozenset({(0, 1, 1)})
        # B(1,1,2): reads (1,2) and pivot (1,1); both written at k=0
        assert edges[(1, 1, 2)] == frozenset({(0, 1, 2), (0, 1, 1)})
        # D(1,0,0): reads (0,0),(0,1),(1,0),(1,1) - all written at k=0
        assert edges[(1, 0, 0)] == frozenset(
            {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}
        )

    def test_cross_iteration_edges_shrink_for_ge(self):
        """GE's trailing submatrix shrinks: points outside iteration
        kb+1's active region simply do not appear."""
        edges = cross_iteration_edges(GE, 0, 3)
        assert (1, 0, 0) not in edges  # row 0 is retired after k=0
        assert (1, 1, 1) in edges


class TestDependenceMemo:
    """The static relation is built once per grid shape and shared."""

    @pytest.mark.parametrize(
        "spec",
        [FW, GE, TC, GaussianEliminationGep(n_pivots=3)],
        ids=["fw", "ge", "tc", "ge-partial"],
    )
    @pytest.mark.parametrize("nb", [1, 2, 3, 5])
    def test_cached_relation_equals_fresh(self, spec, nb):
        for kb in range(nb):
            cached = iteration_read_versions(spec, kb, nb)
            assert cached == build_read_versions(spec, kb, nb)
            assert iteration_read_versions(spec, kb, nb) is cached
            assert isinstance(cached, tuple)

    def test_cached_records_are_immutable(self):
        va = iteration_read_versions(GE, 0, 3)[0]
        with pytest.raises(AttributeError):
            va.pre_reads = frozenset()
        assert isinstance(va.pre_reads, frozenset)

    def test_second_pipelined_solve_builds_no_relation(self, monkeypatch):
        builds = []
        orig = dependence.build_read_versions

        def counting(spec, kb, nb):
            builds.append((kb, nb))
            return orig(spec, kb, nb)

        monkeypatch.setattr(dependence, "build_read_versions", counting)
        dependence._cached_read_versions.cache_clear()
        table = ge_table(22, seed=3)
        first, _, _ = solve(table, spec=GE, strategy="cb", r=7, depth=2)
        assert builds, "first solve should build the relation"
        builds.clear()
        second, _, _ = solve(table, spec=GE, strategy="im", r=7, depth=2)
        assert builds == []
        np.testing.assert_array_equal(first, second)


# ----------------------------------------------------------------------
# scheduler admission: submit_wave launches tasks as gates settle
# ----------------------------------------------------------------------
def test_submit_wave_admits_on_gate_settle():
    with SparkleContext(2, 2, pipeline_depth=2) as sc:
        sched = sc._scheduler
        tracker = TileTracker()
        trace = sc.metrics.new_job("wave_unit")
        order = []

        def body_a(tc):
            order.append("a")
            return 10

        def body_b(tc):
            order.append("b")
            return 20

        record = sched.submit_wave(trace, "unit", [
            (0, [(1, 0, 0)], body_a,
             lambda out: tracker.settle((2, 0, 0), out)),
            (1, [(2, 0, 0)], body_b,
             lambda out: tracker.settle((2, 1, 1), out)),
        ], tracker)
        assert order == []  # nothing admitted before its gates
        tracker.settle((1, 0, 0), None)
        tracker.wait_all([(2, 1, 1)], timeout=10.0)
        sched.pipeline_drain()
        assert order == ["a", "b"]  # b gated on a's settle
        assert tracker.get((2, 0, 0)) == 10
        assert tracker.get((2, 1, 1)) == 20
        assert record.kind == "pipeline:unit"
        assert len(record.tasks) == 2
        assert sc.metrics.pipeline_waves == 1


def test_wave_task_failure_aborts_tracker():
    with SparkleContext(2, 2, pipeline_depth=2, max_task_failures=1) as sc:
        sched = sc._scheduler
        tracker = TileTracker()
        trace = sc.metrics.new_job("wave_fail")

        def bad(tc):
            raise RuntimeError("kernel exploded")

        sched.submit_wave(
            trace, "unit",
            [(0, [], bad, lambda out: tracker.settle((1, 0, 0), out))],
            tracker,
        )
        with pytest.raises(RuntimeError, match="kernel exploded"):
            tracker.wait_all([(1, 0, 0)], timeout=10.0)
        sched.pipeline_drain()


# ----------------------------------------------------------------------
# bit-identity: pipelined == barrier, every strategy, both backends
# ----------------------------------------------------------------------
TABLE32 = fw_table(32, seed=3)


@pytest.fixture(scope="module")
def barrier32():
    out, _, _ = solve(TABLE32)
    return out


@settings(max_examples=12, deadline=None)
@given(
    strategy=st.sampled_from(["im", "cb", "bcast"]),
    depth=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kill=st.sampled_from([0.0, 0.05]),
    storage=st.sampled_from([0.0, 0.03]),
)
def test_pipelined_differential_under_chaos(
    barrier32, strategy, depth, seed, kill, storage
):
    """Any depth, any strategy, any recoverable seeded fault plan:
    the pipelined result is bit-identical to barrier mode."""
    plan = None
    if kill or storage:
        plan = FaultPlan(seed, [
            FaultSpec("kill", kill),
            FaultSpec("storage", storage),
        ])
    out, report, metrics = solve(TABLE32, strategy=strategy, depth=depth,
                                 plan=plan)
    np.testing.assert_array_equal(out, barrier32)
    pipe = report.extras["pipeline"]
    assert pipe["depth"] == depth
    assert pipe["depth_achieved"] >= 2
    assert metrics.pipeline_iterations == 8  # r=8 grid => 8 outer iterations


def test_pipelined_mem_squeeze_differential(barrier32):
    """Budgeted + seeded governor squeezes mid-solve: admission
    backpressure may reorder launches but never the answer."""
    plan = FaultPlan(11, [FaultSpec("mem_squeeze", 0.5)])
    out, _, _ = solve(TABLE32, strategy="im", depth=2, plan=plan,
                      memory_budget=8 * 1024 * 1024)
    np.testing.assert_array_equal(out, barrier32)


def test_pipelined_ge_and_tc_match_barrier():
    gt = ge_table(32, seed=5)
    base, _, _ = solve(gt, spec=GE, strategy="im")
    piped, _, _ = solve(gt, spec=GE, strategy="cb", depth=3)
    np.testing.assert_array_equal(piped, base)

    tt = tc_table(32, seed=5)
    base, _, _ = solve(tt, spec=TC, strategy="im")
    piped, _, _ = solve(tt, spec=TC, strategy="bcast", depth=2)
    np.testing.assert_array_equal(piped, base)


def test_processes_backend_worker_kill_no_leaks(barrier32):
    """Real SIGKILLed workers mid-pipeline: recovery is bit-identical
    and every shared-memory segment is freed."""
    plan = FaultPlan(7, [FaultSpec("worker_kill", 0.05)])
    out, _, metrics = solve(TABLE32, strategy="cb", depth=2,
                            backend="processes", plan=plan)
    np.testing.assert_array_equal(out, barrier32)
    s = metrics.summary()
    assert plan.total_fired() > 0
    assert s["shm_segments_created"] == s["shm_segments_freed"]


# ----------------------------------------------------------------------
# overlap metrics: pipelined mode provably overlaps, barrier never does
# ----------------------------------------------------------------------
def test_pipeline_summary_shows_overlap():
    t = fw_table(96, seed=1, density=0.35)
    with SparkleContext(2, 2, pipeline_depth=2) as sc:
        out_p, _ = run_gep(FW, t, engine="spark", r=12, strategy="im", sc=sc)
        piped = sc.metrics.pipeline_summary()
    with SparkleContext(2, 2) as sc:
        out_b, _ = run_gep(FW, t, engine="spark", r=12, strategy="im", sc=sc)
        barrier = sc.metrics.pipeline_summary()
    np.testing.assert_array_equal(out_p, out_b)
    assert piped["pipeline_depth"] == 2
    assert piped["pipeline_depth_achieved"] >= 2
    assert piped["overlapped_stages"] > 0
    assert barrier["overlapped_stages"] == 0
    assert barrier["pipeline_depth"] == 1
    assert barrier["barrier_wait_seconds"] >= 0.0
    # the summary() rollup carries the deterministic counters; the
    # wall-clock-derived fields live only in pipeline_summary() so that
    # identical-seed runs keep identical summaries
    rollup = sc.metrics.summary()
    for key in ("pipeline_depth", "pipeline_depth_achieved",
                "pipeline_iterations", "pipeline_waves", "stage_windows"):
        assert key in rollup
    assert "barrier_wait_seconds" not in rollup
    assert "overlapped_stages" not in rollup


# ----------------------------------------------------------------------
# crash-resume: SIGKILL mid-pipeline, resume bit-identical
# ----------------------------------------------------------------------
def test_sigkill_mid_pipeline_resume_bit_identical(tmp_path):
    """A depth-2 solve SIGKILLed while iteration k+1 is in flight must
    resume from the journal to the exact bytes of an uninterrupted
    run — the seal protocol never journals an iteration whose trailing
    tiles have not settled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    ckdir = tmp_path / "ck"
    script = textwrap.dedent(f"""
        import os, signal
        from repro.core import floyd_warshall
        from repro.workloads import random_digraph_weights

        w = random_digraph_weights(32, 0.3, seed=0)

        def die(k):
            if k == 1:
                os.kill(os.getpid(), signal.SIGKILL)

        floyd_warshall(w, engine="spark", r=8, kernel="iterative",
                       r_shared=4, pipeline_depth=2,
                       checkpoint_dir={str(ckdir)!r}, on_iteration=die)
    """)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=REPO_ROOT, capture_output=True)
    assert proc.returncode == -signal.SIGKILL

    resume = textwrap.dedent(f"""
        import numpy as np
        from repro.core import floyd_warshall
        from repro.workloads import random_digraph_weights

        w = random_digraph_weights(32, 0.3, seed=0)
        baseline = floyd_warshall(w, engine="spark", r=8,
                                  kernel="iterative", r_shared=4)
        resumed = floyd_warshall(w, engine="spark", r=8,
                                 kernel="iterative", r_shared=4,
                                 pipeline_depth=2,
                                 checkpoint_dir={str(ckdir)!r}, resume=True)
        assert np.asarray(baseline).tobytes() == np.asarray(resumed).tobytes()
        print("RESUME_OK")
    """)
    done = subprocess.run([sys.executable, "-c", resume], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "RESUME_OK" in done.stdout


def test_staged_solve_max_iterations_with_pipeline(tmp_path):
    base, _, _ = solve(TABLE32)
    out1, rep1 = run_gep(FW, TABLE32, engine="spark", r=8, strategy="im",
                         pipeline_depth=2, checkpoint_dir=str(tmp_path),
                         max_iterations=2)
    assert rep1.extras["partial"]["iterations_completed"] == 2
    out2, rep2 = run_gep(FW, TABLE32, engine="spark", r=8, strategy="im",
                         pipeline_depth=2, checkpoint_dir=str(tmp_path),
                         resume=True)
    assert "partial" not in rep2.extras
    np.testing.assert_array_equal(out2, base)


# ----------------------------------------------------------------------
# API validation + CLI plumbing
# ----------------------------------------------------------------------
class TestValidationAndCli:
    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError, match="pipeline_depth must be >= 1"):
            run_gep(FW, TABLE32, engine="spark", pipeline_depth=0)
        with pytest.raises(ValueError, match="pipeline_depth must be >= 1"):
            SparkleContext(2, 2, pipeline_depth=0)

    def test_depth_requires_spark_engine(self):
        with pytest.raises(ValueError, match="requires engine='spark'"):
            run_gep(FW, TABLE32, engine="local", pipeline_depth=2)

    def test_depth_requires_owned_context(self):
        with SparkleContext(2, 2) as sc:
            with pytest.raises(ValueError, match="owned context"):
                run_gep(FW, TABLE32, engine="spark", pipeline_depth=2, sc=sc)

    def test_cli_solve_pipelined(self, capsys):
        from repro.__main__ import main as cli_main

        rc = cli_main(["solve", "apsp", "--engine", "spark", "--n", "32",
                       "--r", "8", "--seed", "0", "--pipeline-depth", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "APSP solved" in out
        assert "pipeline:" in out

    def test_cli_rejects_pipelining_off_spark(self, capsys):
        from repro.__main__ import main as cli_main

        rc = cli_main(["solve", "apsp", "--engine", "local", "--n", "16",
                       "--pipeline-depth", "2"])
        assert rc == 2
        assert "requires --engine spark" in capsys.readouterr().err

    def test_cli_rejects_bad_depth(self, capsys):
        from repro.__main__ import main as cli_main

        rc = cli_main(["solve", "apsp", "--engine", "spark", "--n", "16",
                       "--pipeline-depth", "0"])
        assert rc == 2
        assert "must be >= 1" in capsys.readouterr().err
