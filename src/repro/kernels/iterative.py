"""Iterative (loop-based) GEP tile kernels.

These are the paper's "iterative kernels": per-``k`` passes over the
tile, vectorized with NumPy — the offline equivalent of its
Numba-jitted/NumPy-offloaded kernels.  A deliberately slow pure-Python
scalar variant (:func:`gep_tile_update_loop`) exists as the reference the
vectorized kernel is validated against.

Kernel contract
---------------
All four blocked-GEP cases (A/B/C/D, paper Fig. 4 / Fig. 7) reduce to one
generic tile update::

    gep_tile_update(spec, x, u, v, w, gi0, gj0, gk0, n_global)

where ``x`` is the (mi, mj) tile being updated *in place* at global
offset ``(gi0, gj0)``, and for each global pivot step ``gk = gk0 + kk``:

* ``u[:, kk]``  holds ``c[i, gk]``   (U tile: x's rows x pivot columns),
* ``v[kk, :]``  holds ``c[gk, j]``   (V tile: pivot rows x x's columns),
* ``w[kk, kk]`` holds ``c[gk, gk]``  (W: the pivot tile).

The aliasing pattern encodes the case: A passes ``u is v is w is x``,
B passes ``v is x``, C passes ``u is x``, D passes four distinct tiles.
Reads of aliased views stay correct because Σ_G (or semiring identity
no-ops) pins row/column ``kk`` during step ``kk``, and because
``GepSpec.apply_k`` materializes the combination before writing.

Σ_G's constraints are half-planes (``i > k``, ``j > k``), so each step
updates a box ``x[a0:, b0:]`` of the tile (``GepSpec.sigma_box``); the
kernel hands ``apply_k`` that box as a view instead of masking cells.
"""

from __future__ import annotations

import numpy as np

from ..core.gep import GepSpec
from .stats import KernelStats

__all__ = ["gep_tile_update", "gep_tile_update_loop", "IterativeKernel"]


def gep_tile_update(
    spec: GepSpec,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    gi0: int,
    gj0: int,
    gk0: int,
    n_global: int,
    stats: KernelStats | None = None,
    case: str = "?",
) -> None:
    """Apply all pivot steps of tile ``w``'s range to tile ``x`` in place.

    ``w`` may be ``None`` when the spec declares ``needs_w = False``
    (semiring folds): the pivot extent is then taken from ``u``, and the
    ``c[k,k]`` argument passed to ``apply_k`` is ``None``.
    """
    if w is None:
        if spec.needs_w:
            raise ValueError(f"spec {spec.name!r} requires the pivot tile W")
        pivot = u.shape[1]
    else:
        pivot = w.shape[0]
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"pivot tile must be square, got {w.shape}")
    if u.shape != (x.shape[0], pivot):
        raise ValueError(f"U tile shape {u.shape} != {(x.shape[0], pivot)}")
    if v.shape != (pivot, x.shape[1]):
        raise ValueError(f"V tile shape {v.shape} != {(pivot, x.shape[1])}")
    # Σ_G cuts every step to the box x[a0:, b0:] (GepSpec.sigma_box);
    # the box view is re-sliced only when a step moves it, and one
    # tile-sized scratch buffer serves every step's materialization.
    buf = np.empty(x.shape, x.dtype) if spec.needs_scratch else None
    box, xs = (0, 0), x
    updates = 0
    for kk in range(pivot):
        gk = gk0 + kk
        if not spec.k_active(gk, n_global):
            continue
        step = spec.sigma_box(gi0, gj0, x.shape, gk)
        if step is None:
            continue
        if step != box:
            box = step
            xs = x[box[0] :, box[1] :]
        a0, b0 = box
        updates += xs.size
        spec.apply_k(
            xs, u[a0:, kk], v[kk, b0:], None if w is None else w[kk, kk], buf
        )
    if stats is not None:
        stats.record_base(case, x.shape[0], x.shape[1], pivot, updates)


def gep_tile_update_loop(
    spec: GepSpec,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    gi0: int,
    gj0: int,
    gk0: int,
    n_global: int,
) -> None:
    """Scalar triple-loop tile update — the honest reference semantics.

    Iterates exactly like the paper's Fig. 1 restricted to this tile's
    index ranges.  Quadratically slower than :func:`gep_tile_update`;
    used only in tests and micro-ablation benchmarks.
    """
    pivot = u.shape[1] if w is None else w.shape[0]
    mi, mj = x.shape
    for kk in range(pivot):
        gk = gk0 + kk
        if not spec.k_active(gk, n_global):
            continue
        w_kk = None if w is None else w[kk, kk]
        for a in range(mi):
            gi = gi0 + a
            for b in range(mj):
                gj = gj0 + b
                if spec.sigma(gi, gj, gk):
                    x[a, b] = spec.f(x[a, b], u[a, kk], v[kk, b], w_kk)


class IterativeKernel:
    """The paper's iterative tile kernel, bundled with work accounting.

    Parameters
    ----------
    spec:
        The GEP problem this kernel computes.
    pure_loop:
        Use the scalar reference loop instead of the vectorized per-``k``
        form (ablation of the "offload to bare metal" effect).
    """

    kind = "iterative"

    def __init__(self, spec: GepSpec, *, pure_loop: bool = False) -> None:
        self.spec = spec
        self.pure_loop = pure_loop

    def run(
        self,
        case: str,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        gi0: int,
        gj0: int,
        gk0: int,
        n_global: int,
        stats: KernelStats | None = None,
    ) -> None:
        """Run one tile-kernel invocation (case ∈ {A, B, C, D})."""
        if self.pure_loop:
            gep_tile_update_loop(self.spec, x, u, v, w, gi0, gj0, gk0, n_global)
            if stats is not None:
                pivot = u.shape[1] if w is None else w.shape[0]
                stats.record_base(case, x.shape[0], x.shape[1], pivot, 0)
        else:
            gep_tile_update(
                self.spec, x, u, v, w, gi0, gj0, gk0, n_global, stats, case
            )

    def describe(self) -> dict:
        """Kernel metadata recorded into execution traces."""
        return {"kind": self.kind, "pure_loop": self.pure_loop}
