"""One ADMM inner iteration on a row range, shared by both solvers.

Algorithm 1 lines 6-9 are row-wise: line 6 applies the cached inverse of
``G + rho I`` to each row on its own (bitwise, see
:meth:`repro.linalg.cholesky.CholeskyFactor.solve_t`), and the prox and
the dual ascent are elementwise or row-wise.  So a solver may run them
over any split of the rows, and every row's primal and dual bits stay
the same.  Both solvers split the rows into ranges whose operands fit in
a core's L2 cache, :data:`TILE_BYTES` each, and finish a range before
moving on: the base solver walks the matrix in tiles of
:func:`tile_rows` rows, and the blocked solver stacks that many rows of
blocks into one lockstep group.
"""

from __future__ import annotations

import numpy as np

from ..constraints.base import Constraint
from ..linalg.cholesky import CholeskyFactor
from ..types import VALUE_DTYPE

#: Bytes of one ``(rows, F)`` operand of an inner iteration over a row
#: range.  An iteration touches about six such operands (K, H, U, the
#: line-6 right-hand side, H_tilde and the new H) plus the residual
#: temporaries, which then stay in a 2 MiB L2 from one line to the next.
TILE_BYTES = 256 * 1024


def tile_rows(rank: int) -> int:
    """Rows of one :data:`TILE_BYTES` operand at rank *rank* (at least 1)."""
    return max(1, TILE_BYTES // (np.dtype(VALUE_DTYPE).itemsize * rank))


def admm_step(chol: CholeskyFactor, constraint: Constraint, rho: float,
              k: np.ndarray, h: np.ndarray, u: np.ndarray, work: np.ndarray,
              h_out: np.ndarray) -> np.ndarray:
    """Algorithm 1 lines 6-9 on one row range; returns ``H_tilde``.

    *k*, *h* and *u* are the range's MTTKRP, primal and dual, either
    ``(rows, F)`` or a ``(n_blocks, rows, F)`` stack of row blocks.  The
    caller owns the contiguous buffers *work* (scratch for the line-6
    right-hand side) and *h_out* (receives the new primal; must not alias
    *h*), both shaped like *h*.  *u* is updated in place.  Each result is
    bitwise what ``H_tilde = (K + rho (H + U)) (G + rho I)^-1``,
    ``H = prox(H_tilde - U)``, ``U = U + H - H_tilde`` give.
    """
    rank = h.shape[-1]
    # Line 6.
    np.add(h, u, out=work)
    work *= rho
    work += k
    aux = chol.solve_t(work.reshape(-1, rank)).reshape(h.shape)
    # Line 8: the prox may work in place or return a new array.
    flat_out = np.subtract(aux, u, out=h_out).reshape(-1, rank)
    primal = constraint.prox(flat_out, 1.0 / rho)
    if primal is not flat_out:
        flat_out[...] = primal
    # Line 9.
    u += h_out
    u -= aux
    return aux
