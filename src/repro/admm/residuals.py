"""Relative primal and dual ADMM residuals (Algorithm 1, lines 10-11)."""

from __future__ import annotations

import numpy as np

_TINY = 1e-30


def _sqnorm(matrix: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", matrix, matrix))


def _block_sqnorms(blocks: np.ndarray) -> np.ndarray:
    flat = blocks.reshape(blocks.shape[0], -1)
    return np.einsum("ij,ij->i", flat, flat)


def relative_residuals(primal: np.ndarray, aux: np.ndarray,
                       primal_prev: np.ndarray, dual: np.ndarray,
                       totals: list[float] | None = None
                       ) -> tuple[float, float]:
    """Return ``(r, s)``:

    ``r = ||H - H_tilde||_F^2 / ||H||_F^2`` — primal residual (constraint
    violation between the primal and auxiliary copies), and
    ``s = ||H - H_prev||_F^2 / ||U||_F^2`` — dual residual (primal update
    magnitude scaled by the dual).

    Denominators are floored so the first iterations (H or U all zero)
    never divide by zero; in that regime the residuals are intentionally
    huge and the loop continues.

    Operands of shape ``(n_blocks, block_rows, F)`` are stacked row
    blocks: ``r`` and ``s`` are then length-``n_blocks`` arrays holding
    each block's own residuals, bitwise equal to calling this function on
    every block separately.

    *totals* (2-D operands only) makes this a running sum over the row
    tiles of one matrix: the four squared norms of the tile
    (``||H - H_tilde||^2``, ``||H||^2``, ``||H - H_prev||^2``,
    ``||U||^2``) are added to the list of four floats, and ``(r, s)`` are
    the ratios of the sums so far.  One tile from zeroed totals gives
    the untiled result bitwise.
    """
    if primal.ndim == 3:
        r = (_block_sqnorms(primal - aux)
             / np.maximum(_block_sqnorms(primal), _TINY))
        s = (_block_sqnorms(primal - primal_prev)
             / np.maximum(_block_sqnorms(dual), _TINY))
        return r, s
    if totals is None:
        totals = [0.0] * 4
    totals[0] += _sqnorm(primal - aux)
    totals[1] += _sqnorm(primal)
    totals[2] += _sqnorm(primal - primal_prev)
    totals[3] += _sqnorm(dual)
    return (totals[0] / max(totals[1], _TINY),
            totals[2] / max(totals[3], _TINY))
