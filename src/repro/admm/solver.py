"""Full-matrix ADMM for one mode's subproblem (paper Algorithm 1).

Solves

``min_H  1/2 ||X_(m) - H (KR of others)^T||_F^2 + r(H)``

given the precomputed MTTKRP ``K`` and Gram ``G``.  The Cholesky factor of
``G + rho I`` and its inverse are computed once.  Every inner iteration
then walks the rows in tiles of :func:`repro.admm.step.tile_rows` rows
and finishes each tile while its operands are in L2: line 6 (one GEMM
against the cached inverse), the prox, the dual update and the tile's
share of the four residual sums.  The stop test (lines 10-12) runs once
per iteration on the summed norms, so the criterion stays the paper's
aggregate one; only the last bits of ``r`` and ``s`` depend on the
tiling, never a row's primal or dual.  A constraint whose prox couples
rows (``row_separable = False``) runs as one tile.  The paper's line 6
is a forward/backward substitution; ``rho = trace(G)/F`` bounds
``cond(G + rho I) <= F + 1``, so the inverse is as accurate (see
:mod:`repro.linalg.cholesky`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ADMM_TOLERANCE, MAX_ADMM_ITERATIONS
from ..constraints.base import Constraint
from ..linalg.cholesky import CholeskyFactor
from ..observability import span
from ..validation import require
from .residuals import relative_residuals
from .rho import RhoPolicy, TraceRho
from .state import AdmmState
from .step import admm_step, tile_rows


@dataclass(frozen=True)
class AdmmReport:
    """Outcome of one inner ADMM solve."""

    iterations: int
    rho: float
    primal_residual: float
    dual_residual: float
    converged: bool
    #: Diagonal jitter the Cholesky of ``G + rho I`` needed (0.0 normally;
    #: positive when an L1-killed rank-deficient Gram had to be repaired).
    jitter_added: float = 0.0


def admm_update(state: AdmmState, mttkrp: np.ndarray, gram: np.ndarray,
                constraint: Constraint,
                rho_policy: RhoPolicy | None = None,
                tolerance: float = ADMM_TOLERANCE,
                max_iterations: int = MAX_ADMM_ITERATIONS) -> AdmmReport:
    """Run Algorithm 1, updating *state* in place.

    Parameters
    ----------
    state:
        Warm-started primal/dual pair for this mode; mutated in place.
    mttkrp:
        ``K = X_(m) (KR of other factors)``, shape ``(I_m, F)``.
    gram:
        ``G = hadamard of other Grams``, shape ``(F, F)``.
    constraint:
        Penalty whose prox implements line 8.
    rho_policy:
        Penalty parameter rule; defaults to the paper's ``trace(G)/F``.
    tolerance:
        Threshold on **both** relative residuals (line 12).
    max_iterations:
        Safety cap on inner iterations.
    """
    require(mttkrp.shape == state.primal.shape,
            "MTTKRP output must match the primal shape")
    rank = state.rank
    require(gram.shape == (rank, rank), "Gram must be F x F")

    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(rank))

    rows = state.rows
    size = tile_rows(rank) if constraint.row_separable else max(rows, 1)
    tiles = [slice(start, min(start + size, rows))
             for start in range(0, max(rows, 1), size)]
    work = np.empty((min(size, rows), rank))
    # The new primal goes to the buffer the previous one is not in; the
    # caller's arrays are never written.
    buffers = (np.empty((rows, rank)), np.empty((rows, rank)))
    primal, dual = state.primal, state.dual.copy()
    iterations = 0
    r = s = float("inf")
    converged = False
    with span("admm.solve"):
        while iterations < max_iterations:
            iterations += 1
            new = buffers[iterations % 2]
            totals = [0.0] * 4
            for tile in tiles:
                n = tile.stop - tile.start
                aux = admm_step(chol, constraint, rho, mttkrp[tile],
                                primal[tile], dual[tile], work[:n], new[tile])
                # Lines 10-11, summed over the tiles.
                r, s = relative_residuals(new[tile], aux, primal[tile],
                                          dual[tile], totals=totals)
            primal = new
            if r < tolerance and s < tolerance:
                converged = True
                break

    state.primal = primal
    state.dual = dual
    return AdmmReport(iterations=iterations, rho=rho, primal_residual=r,
                      dual_residual=s, converged=converged,
                      jitter_added=chol.jitter_added)
