"""The Gaussian Elimination Paradigm (GEP) problem specification.

A GEP computation (paper Fig. 1) processes an ``n x n`` table ``c``::

    for k in range(n):
        for i in range(n):
            for j in range(n):
                if sigma(i, j, k):
                    c[i, j] = f(c[i, j], c[i, k], c[k, j], c[k, k])

A :class:`GepSpec` bundles ``f`` and the update set ``Σ_G`` (``sigma``)
together with a *vectorized* one-``k``-step form (:meth:`GepSpec.apply_k`)
used by the tile kernels.  Vectorizing a whole ``k``-step is semantically
equal to the scalar triple loop for every spec shipped here, because at
step ``k`` the values ``c[i,k]``, ``c[k,j]`` and ``c[k,k]`` are fixed
points of that step's updates (GE never updates row/column ``k`` at step
``k`` thanks to Σ_G; for semiring folds with ``c[k,k] == one`` the updates
of row/column ``k`` are no-ops).  The property-based tests exercise this
equivalence against the honest scalar loop.

Axis constraints (:attr:`GepSpec.constrains_i` / ``constrains_j``) record
whether Σ_G restricts the updated rows/columns to ``> k``; they drive the
loop ranges of every blocked and recursive algorithm derived from the
spec (paper Fig. 4 vs. the unrestricted FW-APSP ranges).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from ..semiring import Semiring, get_semiring

__all__ = [
    "GepSpec",
    "SemiringGep",
    "FloydWarshallGep",
    "TransitiveClosureGep",
    "GaussianEliminationGep",
    "gep_reference",
    "gep_reference_vectorized",
]


class GepSpec(abc.ABC):
    """Specification of one GEP computation: ``f``, ``Σ_G`` and metadata.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"fw-apsp"``.
    dtype:
        Table dtype.
    constrains_i / constrains_j:
        Whether Σ_G restricts the update set to ``i > k`` / ``j > k``.
        (All GEP problems in the paper constrain either both axes — GE —
        or neither — FW-APSP and transitive closure.)
    """

    name: str = "abstract-gep"
    dtype: np.dtype = np.dtype(np.float64)
    constrains_i: bool = False
    constrains_j: bool = False
    #: whether ``f`` actually reads ``c[k,k]``.  Semiring folds (FW,
    #: transitive closure) do not, so their D kernels need no pivot-tile
    #: copy — the "lighter dependencies" (paper Fig. 7) that make IM the
    #: better strategy for FW-APSP while GE favours CB.
    needs_w: bool = True
    #: relative per-cell-update cost (1.0 = FW's min/+ on doubles); used
    #: by the cluster cost model to derive kernel rates per problem
    update_weight: float = 1.0
    #: whether :meth:`apply_k` materializes into a caller-supplied
    #: scratch tile (GE) — kernels then allocate one per call, not one
    #: per step
    needs_scratch: bool = False

    # ------------------------------------------------------------------
    # scalar semantics (reference / Σ_G)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def f(self, cij: Any, cik: Any, ckj: Any, ckk: Any) -> Any:
        """The scalar GEP update function."""

    def sigma(self, i: int, j: int, k: int) -> bool:
        """Membership of ``<i, j, k>`` in the update set Σ_G."""
        if self.constrains_i and not i > k:
            return False
        if self.constrains_j and not j > k:
            return False
        return True

    # ------------------------------------------------------------------
    # vectorized one-k-step semantics (tile kernels)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def apply_k(
        self,
        x: np.ndarray,
        u_col: np.ndarray,
        v_row: np.ndarray,
        w_kk: Any,
        buf: np.ndarray | None,
    ) -> None:
        """In-place update of tile ``x`` for one global ``k`` step.

        ``x[a, b] = f(x[a, b], u_col[a], v_row[b], w_kk)`` for every
        cell: callers pass ``x`` already cut to the step's Σ_G box (see
        :meth:`sigma_box`).  ``u_col`` and ``v_row`` may be *views
        aliasing ``x``* (kernel cases A/B/C); implementations must
        therefore materialize any combination of ``u_col``/``v_row``
        before writing into ``x``.  ``buf`` is a scratch array at least
        ``x``'s shape, reused across steps, for specs that declare
        :attr:`needs_scratch`; ``None`` for the others.
        """

    def sigma_box(
        self, gi0: int, gj0: int, shape: tuple[int, int], gk: int
    ) -> tuple[int, int] | None:
        """The Σ_G box of a tile at global offset ``(gi0, gj0)``, step ``gk``.

        Σ_G's constraints ``i > k`` / ``j > k`` are half-planes, so the
        updated cells of any tile form the box ``[a0, mi) x [b0, mj)``;
        this returns its first local row and column ``(a0, b0)``, or
        ``None`` when the tile has no update at step ``gk``.
        Unconstrained specs always get the full tile ``(0, 0)``.
        """
        mi, mj = shape
        a0 = max(gk + 1 - gi0, 0) if self.constrains_i else 0
        b0 = max(gk + 1 - gj0, 0) if self.constrains_j else 0
        if a0 >= mi or b0 >= mj:
            return None
        return a0, b0

    def k_active(self, gk: int, n: int) -> bool:
        """Whether global step ``gk`` performs any update on an n x n table.

        Specs with a restricted pivot range (e.g. GE, which only pivots
        over the coefficient columns) override this; the default runs
        every ``k``.
        """
        return 0 <= gk < n

    # ------------------------------------------------------------------
    def pad_value(self, i: int, j: int) -> Any:
        """Value for virtually-padded cell ``(i, j)`` (paper §IV-A).

        Padding must be inert: padded rows/columns may never change the
        result on the original index range.  The default (zero off the
        diagonal, one on it) is correct for semiring specs (isolated
        vertices) and is overridden where needed.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Semiring-fold GEP instances (FW-APSP, transitive closure, ...)
# ----------------------------------------------------------------------
class SemiringGep(GepSpec):
    """GEP instance ``c[i,j] = c[i,j] ⊕ (c[i,k] ⊙ c[k,j])`` over a semiring.

    Σ_G is the full index cube (no axis constraints): Floyd-Warshall,
    Warshall transitive closure and the other Aho-style path problems all
    take this shape.  ``c[k,k]`` is read but does not influence the
    update, exactly as in the paper's FW recurrence.
    """

    constrains_i = False
    constrains_j = False
    needs_w = False

    def __init__(self, semiring: Semiring | str, name: str | None = None) -> None:
        self.semiring = get_semiring(semiring)
        self.dtype = self.semiring.dtype
        # Boolean folds are byte-wide and branch-free: much cheaper.
        self.update_weight = 0.4 if self.dtype == np.bool_ else 1.0
        self.name = name or f"semiring-gep[{self.semiring.name}]"

    def f(self, cij, cik, ckj, ckk):
        sr = self.semiring
        return sr.add(np.asarray(cij), sr.mul(np.asarray(cik), np.asarray(ckj)))[()]

    def apply_k(self, x, u_col, v_row, w_kk, buf):
        sr = self.semiring
        # Materialize the ⊙-combination first: u_col/v_row may alias x.
        cand = sr.mul(u_col[:, None], v_row[None, :])
        sr.add_inplace(x, cand)

    def pad_value(self, i, j):
        return self.semiring.one if i == j else self.semiring.zero


class FloydWarshallGep(SemiringGep):
    """FW-APSP: the tropical-semiring GEP instance (paper Fig. 5)."""

    def __init__(self) -> None:
        super().__init__("tropical", name="fw-apsp")


class TransitiveClosureGep(SemiringGep):
    """Warshall's transitive closure: the boolean-semiring GEP instance."""

    def __init__(self) -> None:
        super().__init__("boolean", name="transitive-closure")


# ----------------------------------------------------------------------
# Gaussian elimination without pivoting
# ----------------------------------------------------------------------
class GaussianEliminationGep(GepSpec):
    """GE without pivoting (paper Fig. 2).

    ``f(cij, cik, ckj, ckk) = cij - cik * ckj / ckk`` with
    ``Σ_G = {<i, j, k> : i > k and j > k}`` and ``k`` restricted to the
    pivot range ``[0, n_pivots)``.

    ``n_pivots`` bounds the pivot loop: eliminating a ``p``-unknown
    system embedded in an ``n x n`` (augmented, possibly padded) table
    requires pivots ``k = 0 .. p-2`` only.  ``None`` means "all of
    ``n``", which on a square table is harmless — the trailing steps
    update empty index sets or padded cells only.
    """

    name = "gaussian-elimination"
    dtype = np.dtype(np.float64)
    constrains_i = True
    constrains_j = True
    update_weight = 1.6  # divide + multiply + subtract per cell
    needs_scratch = True

    def __init__(self, n_pivots: int | None = None) -> None:
        if n_pivots is not None and n_pivots < 0:
            raise ValueError("n_pivots must be non-negative")
        self.n_pivots = n_pivots

    def f(self, cij, cik, ckj, ckk):
        return cij - cik * ckj / ckk

    def apply_k(self, x, u_col, v_row, w_kk, buf):
        # np.outer's op order (multiply, then divide, then subtract), so
        # the bits match; materializing into scratch before the in-place
        # subtraction keeps aliasing views (kernel cases A/B/C) safe.
        mi, mj = x.shape
        update = buf[:mi, :mj]
        np.multiply(u_col[:, None], v_row[None, :], out=update)
        update /= w_kk
        x -= update

    def k_active(self, gk, n):
        hi = n if self.n_pivots is None else min(n, self.n_pivots)
        return 0 <= gk < hi

    def pad_value(self, i, j):
        """Unit diagonal, zero elsewhere: padded pivots divide by 1 and a
        zero ``c[i,k]``/``c[k,j]`` factor keeps every padded update inert."""
        return 1.0 if i == j else 0.0


# ----------------------------------------------------------------------
# Reference executors
# ----------------------------------------------------------------------
def gep_reference(spec: GepSpec, table: np.ndarray) -> np.ndarray:
    """Honest scalar triple-loop GEP (paper Fig. 1) — O(n^3) Python.

    The ground truth every kernel and every distributed execution is
    validated against.  Returns a new array.
    """
    c = np.array(table, dtype=spec.dtype, copy=True)
    n = c.shape[0]
    if c.shape[0] != c.shape[1]:
        raise ValueError("GEP reference requires a square table")
    for k in range(n):
        if not spec.k_active(k, n):
            continue
        for i in range(n):
            for j in range(n):
                if spec.sigma(i, j, k):
                    c[i, j] = spec.f(c[i, j], c[i, k], c[k, j], c[k, k])
    return c


def gep_reference_vectorized(spec: GepSpec, table: np.ndarray) -> np.ndarray:
    """Per-``k`` vectorized GEP over the whole table.

    This is the "iterative kernel offloaded to bare metal" formulation
    (the paper's Numba/NumPy path) applied unblocked; used both as a fast
    reference and as the building block of the iterative tile kernels.
    """
    c = np.array(table, dtype=spec.dtype, copy=True)
    n = c.shape[0]
    if c.shape[0] != c.shape[1]:
        raise ValueError("GEP reference requires a square table")
    buf = np.empty(c.shape, c.dtype) if spec.needs_scratch else None
    for k in range(n):
        if not spec.k_active(k, n):
            continue
        box = spec.sigma_box(0, 0, (n, n), k)
        if box is None:
            continue
        a0, b0 = box
        spec.apply_k(c[a0:, b0:], c[a0:, k], c[k, b0:], c[k, k], buf)
    return c
