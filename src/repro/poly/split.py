"""Index-set splitting of the tiled GEP (§IV-B step 3).

After tiling and conversion to a single recursive function, the paper
splits the inter-tile iteration space by *the degree of overlap between
the output tile and the input tiles* — the more disjoint, the more
relaxed the dependencies and the more parallelism.  For GEP the input
tiles of point ``(kb, ib, jb)`` are ``(ib, kb)``, ``(kb, jb)`` and
``(kb, kb)``; the overlap signature is therefore exactly
``(ib == kb, jb == kb)``, and splitting on it yields four recursive
functions — the A/B/C/D family *emerges* from the transformation
instead of being postulated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.gep import GepSpec
from .tiling import TileClass, TiledGep

__all__ = ["SplitFunction", "index_set_split", "OVERLAP_SIGNATURES"]

#: overlap signature -> canonical function name
OVERLAP_SIGNATURES: dict[tuple[bool, bool], str] = {
    (True, True): "A",
    (True, False): "B",
    (False, True): "C",
    (False, False): "D",
}


@dataclass(frozen=True)
class SplitFunction:
    """One recursive function produced by index-set splitting.

    Attributes
    ----------
    name:
        Canonical case name (A/B/C/D).
    row_aliased / col_aliased:
        The overlap signature: whether the output tile coincides with
        the ``(ib, kb)`` / ``(kb, jb)`` input tile.
    reads_disjoint:
        Input tiles guaranteed disjoint from the output tile — the
        measure of available parallelism the paper's criterion ranks
        cases by (D: all three disjoint; A: none).
    needs_sigma_guard:
        Whether the intra-tile loop must retain the Σ_G guard (boundary
        tiles).
    """

    name: str
    row_aliased: bool
    col_aliased: bool
    reads_disjoint: tuple[str, ...]
    needs_sigma_guard: bool

    @property
    def parallelism_rank(self) -> int:
        """Number of disjoint operands — higher is more parallel."""
        return len(self.reads_disjoint)


def _signature_of(cls: TileClass) -> tuple[bool, bool]:
    return (cls.row_aliased, cls.col_aliased)


def index_set_split(spec: GepSpec, nb: int = 4) -> list[SplitFunction]:
    """Split the tiled GEP into its overlap classes.

    Enumerates the inter-tile domain for a representative grid size
    ``nb`` (the classification is size-independent; tests verify
    stability across ``nb``) and produces one :class:`SplitFunction`
    per occurring overlap signature, ordered A, B, C, D.
    """
    tiled = TiledGep(spec)
    seen: dict[tuple[bool, bool], SplitFunction] = {}
    for kb in range(nb):
        for cls in tiled.updated_tiles(kb, nb):
            sig = _signature_of(cls)
            # Which operands are provably disjoint from the output tile:
            # U = (ib, kb), V = (kb, jb), W = (kb, kb), X = (ib, jb).
            if cls.row_aliased and cls.col_aliased:  # A: X = U = V = W
                disjoint: list[str] = []
            elif cls.row_aliased:  # B: V aliases X, pivot operands don't
                disjoint = ["U", "W"]
            elif cls.col_aliased:  # C: U aliases X
                disjoint = ["V", "W"]
            else:  # D: fully disjoint
                disjoint = ["U", "V", "W"]
            fn = SplitFunction(
                name=OVERLAP_SIGNATURES[sig],
                row_aliased=cls.row_aliased,
                col_aliased=cls.col_aliased,
                reads_disjoint=tuple(disjoint),
                needs_sigma_guard=tiled.intra_tile_is_partial(cls),
            )
            prev = seen.get(sig)
            if prev is None:
                seen[sig] = fn
            elif prev != fn:
                # A signature must classify uniformly; merge the guard
                # requirement conservatively (boundary tiles need it).
                seen[sig] = SplitFunction(
                    fn.name,
                    fn.row_aliased,
                    fn.col_aliased,
                    fn.reads_disjoint,
                    prev.needs_sigma_guard or fn.needs_sigma_guard,
                )
    order = {"A": 0, "B": 1, "C": 2, "D": 3}
    return sorted(seen.values(), key=lambda f: order[f.name])
