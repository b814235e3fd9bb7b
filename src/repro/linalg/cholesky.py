"""Cholesky factorization and SPD solves.

Plays the role of MKL's ``potrf`` in the paper's Algorithm 1:
``L = Cholesky(G + rho * I)`` is computed once per mode update (line 4).
The paper's line 6 is a forward/backward substitution (``potrs``/``trsm``)
every inner iteration; here line 6 applies the cached inverse of
``G + rho I`` (one GEMM) instead.  The paper's ``rho = trace(G)/F`` bounds
``cond(G + rho I) <= F + 1``, so the inverse is as accurate as the
substitution, and one BLAS-3 GEMM over the tall operand is several times
faster than two triangular solves with an ``F x F`` triangle.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm

from ..types import VALUE_DTYPE
from ..validation import require

#: Operands shorter than this are zero-padded before the GEMM.  Short
#: operands take BLAS small-matrix (or gemv) kernels that sum in another
#: order, so without the padding a row's result would depend on how many
#: rows shared its call.
_MIN_GEMM_ROWS = 512


class CholeskyFactor:
    """A cached Cholesky factorization of an SPD matrix.

    Parameters
    ----------
    matrix:
        Symmetric positive (semi-)definite ``F x F`` matrix.
    jitter:
        Relative diagonal regularization applied when the factorization
        fails (rank-deficient Grams occur when factor columns die under
        aggressive L1); grows geometrically until ``potrf`` succeeds.
    """

    def __init__(self, matrix: np.ndarray, jitter: float = 1e-12):
        matrix = np.asarray(matrix, dtype=VALUE_DTYPE)
        require(matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1],
                "matrix must be square")
        self.size = matrix.shape[0]
        scale = float(np.trace(matrix)) / max(self.size, 1)
        if scale <= 0.0:
            scale = 1.0
        attempt = matrix
        added = 0.0
        attempts = 0
        while True:
            try:
                attempts += 1
                self._cho = scipy.linalg.cho_factor(
                    attempt, lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                added = jitter * scale if added == 0.0 else added * 10.0
                require(added < scale * 1e3,
                        f"{self.size}x{self.size} matrix is numerically "
                        "indefinite beyond repair (jitter escalation "
                        f"exhausted after {attempts} attempts)")
                attempt = matrix + added * np.eye(self.size)
        #: Diagonal jitter that was actually added (0.0 in the common case).
        self.jitter_added = added
        #: Factorization attempts (1 = clean; >1 = jitter escalation ran).
        self.attempts = attempts
        # Inverse of the (possibly jittered) matrix, for solve_t.
        self._inverse = scipy.linalg.cho_solve(
            self._cho, np.eye(self.size), check_finite=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(G) x = rhs`` via forward/backward substitution.

        ``rhs`` may be a vector or a matrix whose **rows** are equations
        (``F x n`` right-hand sides are solved column-wise).
        """
        return scipy.linalg.cho_solve(self._cho, rhs, check_finite=False)

    def solve_t(self, rhs_rows: np.ndarray) -> np.ndarray:
        """Solve ``x G = rhs_rows`` for row-major tall-skinny operands.

        Applies the cached inverse with one GEMM, ``rhs_rows @ G^-1``, and
        keeps the tall dimension leading, which is how the ADMM update
        consumes it.  Row ``i`` of the result depends only on
        ``rhs_rows[i]``, bit for bit, however many rows share the call.
        Agrees with ``solve(rhs_rows.T).T`` to rounding.
        """
        rows = rhs_rows.shape[0]
        if rows < _MIN_GEMM_ROWS:
            padded = np.zeros((_MIN_GEMM_ROWS, self.size), dtype=VALUE_DTYPE)
            padded[:rows] = rhs_rows
            rhs_rows = padded
        # The C-ordered (n, F) operand is a Fortran (F, n) matrix, so the
        # GEMM reads it in place and its (F, n) result transposes back to
        # a C-ordered (n, F) array.
        return dgemm(1.0, self._inverse, rhs_rows.T, trans_a=1).T[:rows]


def spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot SPD solve (convenience wrapper over CholeskyFactor)."""
    return CholeskyFactor(matrix).solve(rhs)
