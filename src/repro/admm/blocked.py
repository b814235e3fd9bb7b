"""Blockwise ADMM (paper Section IV-B).

The mode subproblem is split into ``B`` row blocks

``min sum_b 1/2 ||(X_(m))_b - H_b (KR)^T||^2 + r(H_b)``
``s.t. H_b = H_tilde_b  for every block``

which is exact whenever the prox is row separable.  Each block then runs
Algorithm 1 **to its own convergence**: high-signal blocks take the extra
iterations they need instead of being stopped by the aggregate criterion,
and low-signal blocks stop early instead of being dragged along
(non-uniform convergence).

The blocks run in lockstep.  The unconverged blocks of a group are stacked
into one ``(n_active, block_rows, F)`` array, so an inner iteration is one
GEMM against the cached inverse of ``G + rho I`` (line 6), one prox and
one residual pass over all of them rather than one small call per block;
lines 6-9 are :func:`repro.admm.step.admm_step`, the step the base solver
runs on its row tiles.  A block that passes both residual tests is
written back to the state and dropped from the stack.  Every step is
row-wise and every residual sums one block's entries in the order a
single-block solve would, so the result is bitwise equal to solving the
blocks one after another.  A group holds as many blocks as fit in
:func:`repro.admm.step.tile_rows` rows (at least one), so a group's
stacked operands stay in L2 from one line to the next whatever the mode
length.

The Cholesky factor of ``G + rho I`` and its inverse are mode-global
(every block shares G and hence rho), computed once and reused by all
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ADMM_TOLERANCE, DEFAULT_BLOCK_SIZE, MAX_ADMM_ITERATIONS
from ..constraints.base import Constraint
from ..linalg.cholesky import CholeskyFactor
from ..observability import span
from ..parallel.partition import row_blocks
from ..validation import require
from .residuals import relative_residuals
from .rho import RhoPolicy, TraceRho
from .state import AdmmState
from .step import admm_step, tile_rows


@dataclass(frozen=True)
class BlockedAdmmReport:
    """Outcome of one blocked inner solve."""

    #: Inner iterations performed by every block (length = #blocks).
    block_iterations: tuple[int, ...]
    #: Rows per block (parallel work-item sizes for the machine model).
    block_rows: tuple[int, ...]
    rho: float
    converged: bool
    #: Diagonal jitter the mode-global Cholesky needed (shared by every
    #: block; 0.0 unless the Gram was rank deficient / indefinite).
    jitter_added: float = 0.0
    #: Blocks that stopped at ``max_iterations`` without passing both
    #: residual tests.
    capped_blocks: int = 0

    @property
    def iterations(self) -> int:
        """Maximum block iteration count (the critical path)."""
        return max(self.block_iterations) if self.block_iterations else 0

    @property
    def total_row_iterations(self) -> int:
        """sum over blocks of rows * iterations — the actual work done."""
        return int(sum(r * i for r, i in
                       zip(self.block_rows, self.block_iterations)))


def _groups(blocks: list[slice], rank: int) -> list[range]:
    """Block indices of every lockstep group, each of equal-sized blocks.

    The full blocks run in groups of ``tile_rows(rank) // block_rows``
    blocks (at least one); a short tail block runs as a group of its own.
    """
    if not blocks:
        return []
    size = blocks[0].stop - blocks[0].start
    per_group = max(1, tile_rows(rank) // size)
    n_full = len(blocks)
    if blocks[-1].stop - blocks[-1].start != size:
        n_full -= 1
    groups = [range(first, min(first + per_group, n_full))
              for first in range(0, n_full, per_group)]
    if n_full < len(blocks):
        groups.append(range(n_full, len(blocks)))
    return groups


def _write_back(state: AdmmState, blocks: list[slice], done: np.ndarray,
                h: np.ndarray, u: np.ndarray) -> None:
    for index, h_block, u_block in zip(done.tolist(), h, u):
        state.primal[blocks[index]] = h_block
        state.dual[blocks[index]] = u_block


def _lockstep(state: AdmmState, mttkrp: np.ndarray, blocks: list[slice],
              group: range, chol: CholeskyFactor, rho: float,
              constraint: Constraint, tolerance: float, max_iterations: int,
              iterations: np.ndarray, converged: np.ndarray) -> None:
    """Algorithm 1 on every block of *group* at once, each to its own stop.

    The new primal of the active blocks goes to a prefix of one of two
    buffers, never the one holding the previous primal.
    """
    rows = blocks[group.start]
    shape = (len(group), rows.stop - rows.start, state.rank)
    start, stop = rows.start, blocks[group.stop - 1].stop
    buffers = (np.empty(shape), np.empty(shape))
    work = np.empty(shape)
    h = state.primal[start:stop].reshape(shape)
    u = state.dual[start:stop].reshape(shape).copy()
    k = mttkrp[start:stop].reshape(shape)
    active = np.arange(group.start, group.stop)
    iteration = 0
    while active.size and iteration < max_iterations:
        iteration += 1
        n = active.size
        h_prev, h = h, buffers[iteration % 2][:n]
        aux = admm_step(chol, constraint, rho, k, h_prev, u, work[:n], h)
        r, s = relative_residuals(h, aux, h_prev, u)
        passed = (r < tolerance) & (s < tolerance)
        if passed.any():
            done = active[passed]
            _write_back(state, blocks, done, h[passed], u[passed])
            iterations[done] = iteration
            converged[done] = True
            keep = ~passed
            active, h, u, k = active[keep], h[keep], u[keep], k[keep]
    _write_back(state, blocks, active, h, u)
    iterations[active] = iteration


def blocked_admm_update(state: AdmmState, mttkrp: np.ndarray,
                        gram: np.ndarray, constraint: Constraint,
                        rho_policy: RhoPolicy | None = None,
                        tolerance: float = ADMM_TOLERANCE,
                        max_iterations: int = MAX_ADMM_ITERATIONS,
                        block_size: int = DEFAULT_BLOCK_SIZE
                        ) -> BlockedAdmmReport:
    """Run blockwise ADMM, updating *state* in place.

    Parameters mirror :func:`repro.admm.solver.admm_update` plus:

    block_size:
        Rows per block; the paper's default is 50.  ``block_size >= rows``
        degenerates to the unblocked algorithm (one block).
    """
    require(constraint.row_separable,
            f"constraint {constraint.name!r} is not row separable; "
            "the blockwise reformulation does not apply (Section IV-B)")
    require(mttkrp.shape == state.primal.shape,
            "MTTKRP output must match the primal shape")
    rank = state.rank
    require(gram.shape == (rank, rank), "Gram must be F x F")

    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(rank))
    blocks = row_blocks(state.rows, block_size)

    iterations = np.zeros(len(blocks), dtype=np.int64)
    converged = np.zeros(len(blocks), dtype=bool)
    with span("admm.blocked"):
        for group in _groups(blocks, rank):
            _lockstep(state, mttkrp, blocks, group, chol, rho, constraint,
                      tolerance, max_iterations, iterations, converged)

    n_converged = int(converged.sum())
    return BlockedAdmmReport(block_iterations=tuple(iterations.tolist()),
                             block_rows=tuple(b.stop - b.start
                                              for b in blocks),
                             rho=rho,
                             converged=n_converged == len(blocks),
                             jitter_added=chol.jitter_added,
                             capped_blocks=len(blocks) - n_converged)
