"""Watch the paper's §IV derivations run: from 2-way to r-way R-DP.

Shows both design methodologies on Gaussian elimination:

1. inline-and-optimize — start from the standard 2-way algorithm
   (AutoGen's output), inline each call by one recursion level, and let
   the four dependency rules compress the calls into minimal parallel
   stages (the paper's Fig. 3 → Fig. 4 refinement);
2. polyhedral — mono-parametric tiling, index-set splitting (the
   A/B/C/D family *emerges* from output/input tile overlap), and
   Bernstein dependence analysis, producing the same schedule.

Run:  python examples/derive_algorithms.py
"""

from repro.core.autogen import derive_by_inlining, rway_algorithm, two_way_algorithm
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep
from repro.poly import index_set_split, poly_schedule


def main() -> None:
    ge = GaussianEliminationGep()

    print("== the standard 2-way R-DP for GE (AutoGen output) ==")
    print(two_way_algorithm(ge).render())

    print("\n== inline once + optimize: the derived 4-way program ==")
    derived = derive_by_inlining(ge, 2)
    direct = rway_algorithm(ge, 4, unit=4)
    print(f"derived stages: {derived.num_stages}; "
          f"directly-generated 4-way stages: {direct.num_stages}")
    key = lambda c: (c.case, c.x, c.u, c.v, c.w)  # noqa: E731
    same = {key(c) for c in derived.calls} == {key(c) for c in direct.calls}
    print(f"call sets identical: {same}")
    print("\nfirst two stages of the 4-way program (paper Fig. 4 shape):")
    for idx, stage in enumerate(direct.stages()[:2], start=1):
        print(f"  stage {idx}: " + "; ".join(str(c) for c in stage))

    print("\n== methodology 2: index-set splitting ==")
    for fn in index_set_split(ge):
        print(
            f"  function {fn.name}: row-aliased={fn.row_aliased}, "
            f"col-aliased={fn.col_aliased}, disjoint operands "
            f"{fn.reads_disjoint or '()'}, needs Σ_G guard={fn.needs_sigma_guard}"
        )

    print("\n== the two methodologies agree (both benchmarks, r = 3) ==")
    for spec in (ge, FloydWarshallGep()):
        a = [
            {(c.case, (c.x.i0, c.x.j0)) for c in st}
            for st in rway_algorithm(spec, 3).stages()
        ]
        p = [
            {(t.case, (t.ib, t.jb)) for t in st}
            for st in poly_schedule(spec, 3)
        ]
        print(f"  {spec.name}: schedules equal = {a == p} "
              f"({len(a)} stages)")


if __name__ == "__main__":
    main()
