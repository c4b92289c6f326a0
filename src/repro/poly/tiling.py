"""Mono-parametric tiling of the GEP loop nest (§IV-B step 1).

The GEP update set of a :class:`~repro.core.gep.GepSpec` is the
polyhedron ``{(k, i, j) : 0 <= k, i, j < n} ∩ Σ_G`` with
``Σ_G = {i > k} and/or {j > k}`` (or unconstrained).  Tiling every
dimension by the single parameter ``b`` (``n = nb * b`` after virtual
padding) yields the inter-tile domain over ``(kb, ib, jb)``; each
inter-tile point is classified against every Σ_G constraint as FULL,
PARTIAL or EMPTY — the information index-set splitting (step 3) needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.gep import GepSpec
from .affine import LinearConstraint, TileStatus

__all__ = ["gep_domain_constraints", "TiledGep", "TileClass"]


def gep_domain_constraints(spec: GepSpec) -> list[LinearConstraint]:
    """The Σ_G constraints of a spec as affine inequalities.

    Bounds ``0 <= v < n`` are implicit (mono-parametric tiling keeps
    them tile-uniform when ``b | n``), so only the constraints that can
    *split* tiles are materialized.
    """
    out = []
    if spec.constrains_i:
        out.append(LinearConstraint.greater("i", "k"))
    if spec.constrains_j:
        out.append(LinearConstraint.greater("j", "k"))
    return out


@dataclass(frozen=True)
class TileClass:
    """Classification of one inter-tile point ``(kb, ib, jb)``.

    ``statuses`` maps each Σ_G constraint (by repr) to its
    :class:`TileStatus`; ``row_aliased``/``col_aliased`` record the
    overlap of the updated tile with the pivot row/column — the
    polyhedral counterpart of the kernel cases.
    """

    kb: int
    ib: int
    jb: int
    statuses: tuple[tuple[str, TileStatus], ...]
    row_aliased: bool
    col_aliased: bool

    @property
    def empty(self) -> bool:
        return any(s is TileStatus.EMPTY for _, s in self.statuses)

    @property
    def case(self) -> str:
        """The emergent kernel case name (A/B/C/D)."""
        if self.row_aliased:
            return "A" if self.col_aliased else "B"
        return "C" if self.col_aliased else "D"


class TiledGep:
    """The mono-parametrically tiled GEP of one spec."""

    def __init__(self, spec: GepSpec) -> None:
        self.spec = spec
        self.constraints = gep_domain_constraints(spec)

    def classify(self, kb: int, ib: int, jb: int) -> TileClass:
        """Classify inter-tile point ``(kb, ib, jb)`` symbolically in b."""
        tile = {"k": kb, "i": ib, "j": jb}
        statuses = tuple(
            (repr(c), c.tile_status(tile)) for c in self.constraints
        )
        return TileClass(
            kb, ib, jb, statuses, row_aliased=ib == kb, col_aliased=jb == kb
        )

    def updated_tiles(self, kb: int, nb: int) -> list[TileClass]:
        """Non-empty inter-tile points of outer iteration ``kb``.

        This is the polyhedral derivation of the grid-update pattern the
        Spark drivers use; tests check it equals
        :func:`repro.core.blocked.updated_tiles`.
        """
        out = []
        for ib in range(nb):
            for jb in range(nb):
                cls = self.classify(kb, ib, jb)
                if not cls.empty:
                    out.append(cls)
        return out

    def intra_tile_is_partial(self, cls: TileClass) -> bool:
        """Whether Σ_G cuts the tile (boundary tile: its kernel box shrinks)."""
        return any(s is TileStatus.PARTIAL for _, s in cls.statuses)
