"""ADMM inner-solver tests: correctness against closed forms and oracles."""

import numpy as np
import pytest
import scipy.optimize

import repro
import repro.admm.step as step_module
from repro.admm import (
    AdmmReport,
    AdmmState,
    BlockedAdmmReport,
    FixedRho,
    NormalizedTraceRho,
    TraceRho,
    admm_update,
    blocked_admm_update,
    make_rho_policy,
    relative_residuals,
)
from repro.admm.blocked import _groups
from repro.admm.step import tile_rows
from repro.config import (
    ADMM_TOLERANCE,
    DEFAULT_BLOCK_SIZE,
    MAX_ADMM_ITERATIONS,
)
from repro.constraints import L1, NonNegative, Unconstrained, make_constraint
from repro.constraints.base import Constraint
from repro.linalg.cholesky import CholeskyFactor
from repro.parallel.partition import row_blocks
from repro.testing import make_case


def make_problem(rng, rows=40, rank=5, cols=30):
    """A least-squares mode subproblem min ||X - H W^T|| with known W, X."""
    w = rng.standard_normal((cols, rank))
    h_true = np.abs(rng.standard_normal((rows, rank)))
    x = h_true @ w.T + 0.01 * rng.standard_normal((rows, cols))
    gram = w.T @ w
    mttkrp = x @ w
    return mttkrp, gram, x, w


class TestRhoPolicies:
    def test_trace_rho(self):
        g = np.diag([1.0, 2.0, 3.0])
        assert TraceRho().rho(g) == pytest.approx(2.0)

    def test_trace_rho_floor(self):
        assert TraceRho(floor=1e-3).rho(np.zeros((3, 3))) == 1e-3

    def test_fixed_rho(self):
        assert FixedRho(2.5).rho(np.eye(3)) == 2.5
        with pytest.raises(ValueError):
            FixedRho(0.0)

    def test_scaled_trace(self):
        g = np.eye(4)
        assert NormalizedTraceRho(scale=3.0).rho(g) == pytest.approx(3.0)

    def test_make_policy(self):
        assert isinstance(make_rho_policy("trace"), TraceRho)
        assert isinstance(make_rho_policy(1.5), FixedRho)
        policy = TraceRho()
        assert make_rho_policy(policy) is policy
        with pytest.raises(ValueError):
            make_rho_policy("bogus")


class TestResiduals:
    def test_zero_when_converged(self, rng):
        h = rng.standard_normal((5, 3))
        r, s = relative_residuals(h, h, h, np.ones_like(h))
        assert r == 0.0 and s == 0.0

    def test_no_division_by_zero(self):
        z = np.zeros((3, 2))
        r, s = relative_residuals(z, z + 1.0, z, z)
        assert np.isfinite(r) and np.isfinite(s)


class TestFullAdmm:
    def test_unconstrained_reaches_least_squares(self, rng):
        mttkrp, gram, x, w = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, Unconstrained(),
                    tolerance=1e-12, max_iterations=300)
        exact = np.linalg.solve(gram, mttkrp.T).T
        np.testing.assert_allclose(state.primal, exact, atol=1e-4)

    def test_nonneg_matches_nnls(self, rng):
        mttkrp, gram, x, w = make_problem(rng, rows=12, rank=4, cols=25)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, NonNegative(),
                    tolerance=1e-10, max_iterations=500)
        for i in range(12):
            expected, _ = scipy.optimize.nnls(w, x[i])
            np.testing.assert_allclose(state.primal[i], expected, atol=1e-3)

    def test_l1_stationarity(self, rng):
        """KKT: for nonzero entries, gradient + weight*sign == 0."""
        weight = 0.5
        mttkrp, gram, _, _ = make_problem(rng, rows=15, rank=4)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, L1(weight),
                    tolerance=1e-12, max_iterations=800)
        grad = state.primal @ gram - mttkrp
        h = state.primal
        nz = np.abs(h) > 1e-6
        np.testing.assert_allclose(grad[nz], -weight * np.sign(h[nz]),
                                   atol=2e-2)
        # Subgradient condition where h == 0.
        assert (np.abs(grad[~nz]) <= weight + 2e-2).all()

    def test_report_fields(self, rng):
        mttkrp, gram, _, _ = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        report = admm_update(state, mttkrp, gram, NonNegative())
        assert report.iterations >= 1
        assert report.rho == pytest.approx(np.trace(gram) / gram.shape[0])
        assert report.primal_residual >= 0.0

    def test_warm_start_converges_quickly(self, rng):
        mttkrp, gram, _, _ = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, NonNegative(),
                    tolerance=1e-10, max_iterations=400)
        warm = admm_update(state, mttkrp, gram, NonNegative(),
                           tolerance=1e-10, max_iterations=400)
        assert warm.iterations <= 3

    def test_shape_mismatch_rejected(self, rng):
        state = AdmmState.from_factor(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            admm_update(state, np.zeros((5, 3)), np.eye(3), NonNegative())


class TestBlockedAdmm:
    def test_matches_full_admm_solution(self, rng):
        """Blocked and full ADMM share fixed points (row-separable prox)."""
        mttkrp, gram, x, w = make_problem(rng, rows=60)
        full = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(full, mttkrp, gram, NonNegative(),
                    tolerance=1e-12, max_iterations=600)
        blocked = AdmmState.from_factor(np.zeros_like(mttkrp))
        blocked_admm_update(blocked, mttkrp, gram, NonNegative(),
                            tolerance=1e-12, max_iterations=600,
                            block_size=13)
        np.testing.assert_allclose(blocked.primal, full.primal, atol=1e-4)

    def test_single_block_equals_unblocked(self, rng):
        mttkrp, gram, _, _ = make_problem(rng, rows=20)
        a = AdmmState.from_factor(np.zeros_like(mttkrp))
        b = a.copy()
        rep_a = admm_update(a, mttkrp, gram, NonNegative(),
                            tolerance=1e-8, max_iterations=50)
        rep_b = blocked_admm_update(b, mttkrp, gram, NonNegative(),
                                    tolerance=1e-8, max_iterations=50,
                                    block_size=10**9)
        np.testing.assert_allclose(a.primal, b.primal, atol=1e-12)
        assert rep_b.block_iterations == (rep_a.iterations,)

    def test_per_block_iteration_counts_vary(self, rng):
        """Blocks with stronger signal may iterate differently."""
        mttkrp, gram, _, _ = make_problem(rng, rows=100)
        mttkrp[:10] *= 50.0  # high-signal rows
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        report = blocked_admm_update(state, mttkrp, gram, NonNegative(),
                                     block_size=10, tolerance=1e-8,
                                     max_iterations=100)
        assert len(report.block_iterations) == 10
        assert len(set(report.block_iterations)) > 1

    def test_rejects_non_row_separable(self, rng):
        class ColumnCoupled(Constraint):
            row_separable = False
            name = "coupled"

            def prox(self, matrix, step):
                return matrix

            def penalty(self, matrix):
                return 0.0

        mttkrp, gram, _, _ = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        with pytest.raises(ValueError, match="not row separable"):
            blocked_admm_update(state, mttkrp, gram, ColumnCoupled())

    def test_report_accounting(self, rng):
        mttkrp, gram, _, _ = make_problem(rng, rows=23)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        report = blocked_admm_update(state, mttkrp, gram, NonNegative(),
                                     block_size=10)
        assert report.block_rows == (10, 10, 3)
        assert report.total_row_iterations == sum(
            r * i for r, i in zip(report.block_rows,
                                  report.block_iterations))
        assert report.iterations == max(report.block_iterations)


# ---------------------------------------------------------------------------
# Per-block reference: the blocked solver as one Algorithm 1 run per block
# ---------------------------------------------------------------------------

def _solve_block(block, primal, dual, mttkrp, chol, rho, constraint,
                 tolerance, max_iterations):
    """Algorithm 1 restricted to one row block; returns the updated rows."""
    h = primal[block].copy()
    u = dual[block].copy()
    k = mttkrp[block]
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        aux = chol.solve_t(k + rho * (h + u))
        h_prev = h
        h = constraint.prox(aux - u, 1.0 / rho)
        u = u + h - aux
        r, s = relative_residuals(h, aux, h_prev, u)
        if r < tolerance and s < tolerance:
            converged = True
            break
    return block, h, u, iterations, converged


def per_block_admm_update(state, mttkrp, gram, constraint, rho_policy=None,
                          tolerance=ADMM_TOLERANCE,
                          max_iterations=MAX_ADMM_ITERATIONS,
                          block_size=DEFAULT_BLOCK_SIZE):
    """Blocked ADMM as a loop of independent per-block solves (the oracle)."""
    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(state.rank))
    results = [_solve_block(block, state.primal, state.dual, mttkrp, chol,
                            rho, constraint, tolerance, max_iterations)
               for block in row_blocks(state.rows, block_size)]
    for block, h, u, _, _ in results:
        state.primal[block] = h
        state.dual[block] = u
    flags = [conv for *_, conv in results]
    return BlockedAdmmReport(
        block_iterations=tuple(iters for *_, iters, _ in results),
        block_rows=tuple(block.stop - block.start for block, *_ in results),
        rho=rho, converged=all(flags), jitter_added=chol.jitter_added,
        capped_blocks=flags.count(False))


ORACLE_CONSTRAINTS = {
    "nonneg": {},
    "nonneg_l1": {"weight": 0.1},
    "l1": {"weight": 0.1},
    "box": {"lower": -0.5, "upper": 0.5},
    "norm_ball": {"radius": 0.5},
    "simplex": {},
}


def _fixed_point_rows(constraint, gram, rows):
    """Rows whose ADMM iterate is already a fixed point: they pass at 1.

    ``h = prox(z)`` and ``u = h - z`` give ``prox(h - u) = h``, and
    ``k = h G - rho u`` makes the solve return ``h`` up to rounding.
    """
    rank = gram.shape[0]
    sign = np.r_[1.0, -np.ones(rank - 1)]
    z = (3.0 + 0.1 * np.arange(rows))[:, None] * sign
    rho = TraceRho().rho(gram)
    h = constraint.prox(z.copy(), 1.0 / rho)
    u = h - z
    return h, u, h @ gram - rho * u


def _oracle_case(case, constraint, rng, rank):
    """``(state, mttkrp, gram, solver kwargs)`` of one named case."""
    rows = {"tail": 23, "one-block": 12, "unit-blocks": 9, "empty": 0,
            "warm-dual": 30, "mixed-stops": 40}[case]
    mttkrp, gram, _, _ = make_problem(rng, rows=rows, rank=rank)
    state = AdmmState.from_factor(np.zeros_like(mttkrp))
    kwargs = {"tail": dict(block_size=5),
              "one-block": dict(block_size=50),
              "unit-blocks": dict(block_size=1),
              "empty": dict(block_size=5),
              "warm-dual": dict(block_size=7),
              "mixed-stops": dict(block_size=5, tolerance=1e-8,
                                  max_iterations=6)}[case]
    if case == "warm-dual":
        state = AdmmState(np.abs(rng.standard_normal(mttkrp.shape)),
                          0.5 * rng.standard_normal(mttkrp.shape))
    if case == "mixed-stops":
        mttkrp *= 50.0
        for block in (slice(0, 5), slice(15, 20), slice(25, 30)):
            h, u, k = _fixed_point_rows(constraint, gram, 5)
            state.primal[block], state.dual[block], mttkrp[block] = h, u, k
    return state, mttkrp, gram, kwargs


def _patch_groups_of_2(monkeypatch, rows, rank, block_size):
    """Shrink the tile so that every full lockstep group holds 2 blocks."""
    blocks = row_blocks(rows, block_size)
    size = blocks[0].stop - blocks[0].start if blocks else block_size
    monkeypatch.setattr(step_module, "TILE_BYTES", 2 * size * 8 * rank)
    n_full = sum(b.stop - b.start == size for b in blocks)
    expected = [range(first, min(first + 2, n_full))
                for first in range(0, n_full, 2)]
    if n_full < len(blocks):
        expected.append(range(n_full, len(blocks)))
    assert _groups(blocks, rank) == expected


class TestLockstepMatchesPerBlockReference:
    """The lockstep solver is bitwise the per-block loop it replaced."""

    # Rank 50 reaches the BLAS kernels that sum short operands in
    # another order; rank 5 alone does not.
    @pytest.mark.parametrize("rank", [5, 50])
    @pytest.mark.parametrize("groups", ["default", "groups-of-2"])
    @pytest.mark.parametrize("case", ["tail", "one-block", "unit-blocks",
                                      "empty", "warm-dual", "mixed-stops"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONSTRAINTS))
    def test_bitwise_equal_to_reference(self, monkeypatch, make_rng, name,
                                        case, groups, rank):
        constraint = make_constraint(name, **ORACLE_CONSTRAINTS[name])
        state, mttkrp, gram, kwargs = _oracle_case(case, constraint,
                                                   make_rng(7), rank)
        if groups == "groups-of-2":
            _patch_groups_of_2(monkeypatch, state.rows, rank,
                               kwargs["block_size"])
        expected_state = state.copy()
        expected = per_block_admm_update(expected_state, mttkrp, gram,
                                         constraint, **kwargs)
        report = blocked_admm_update(state, mttkrp, gram, constraint,
                                     **kwargs)

        np.testing.assert_array_equal(state.primal, expected_state.primal)
        np.testing.assert_array_equal(state.dual, expected_state.dual)
        assert report == expected
        if case == "mixed-stops":
            assert 1 in expected.block_iterations
            assert 6 in expected.block_iterations
            assert 0 < expected.capped_blocks < len(expected.block_rows)

    @pytest.mark.parametrize("rows", [1, 5, 50, 64])
    def test_stacked_residuals_bitwise_equal_per_block(self, make_rng, rows):
        gen = make_rng(3)
        h, aux, h_prev, u = (gen.standard_normal((9, rows, 16))
                             for _ in range(4))
        r, s = relative_residuals(h, aux, h_prev, u)
        for b in range(9):
            assert (r[b], s[b]) == relative_residuals(h[b], aux[b],
                                                      h_prev[b], u[b])

    def test_whole_fit_bitwise_equal_to_reference(self, monkeypatch):
        case = make_case(41, 6)
        kwargs = dict(rank=3, constraints="nonneg", seed=7, block_size=2,
                      max_outer_iterations=4, outer_tolerance=0.0)
        lockstep = repro.fit(case.tensor, **kwargs)
        monkeypatch.setattr("repro.core.aoadmm.blocked_admm_update",
                            per_block_admm_update)
        reference = repro.fit(case.tensor, **kwargs)

        for got, want in zip(lockstep.model.factors,
                             reference.model.factors):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(lockstep.trace.errors(),
                                      reference.trace.errors())

    def test_capped_blocks_counts_blocks_stopped_by_the_cap(self, rng):
        mttkrp, gram, _, _ = make_problem(rng, rows=40)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        h, u, k = _fixed_point_rows(NonNegative(), gram, 10)
        state.primal[:10], state.dual[:10], mttkrp[:10] = h, u, k
        report = blocked_admm_update(state, mttkrp, gram, NonNegative(),
                                     block_size=10, tolerance=1e-10,
                                     max_iterations=3)
        assert report.block_iterations == (1, 3, 3, 3)
        assert report.capped_blocks == 3 and not report.converged

        relaxed = blocked_admm_update(AdmmState.from_factor(
            np.zeros_like(mttkrp)), mttkrp, gram, NonNegative(),
            block_size=10, max_iterations=400)
        assert relaxed.converged and relaxed.capped_blocks == 0


# ---------------------------------------------------------------------------
# Full-matrix reference: the base solver as one pass per line over all rows
# ---------------------------------------------------------------------------

def full_matrix_reference(state, mttkrp, gram, constraint, rho_policy=None,
                          tolerance=ADMM_TOLERANCE,
                          max_iterations=MAX_ADMM_ITERATIONS):
    """Algorithm 1 with every line over the whole matrix (the oracle)."""
    rank = state.rank
    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(rank))
    primal, dual = state.primal, state.dual
    iterations = 0
    r = s = float("inf")
    converged = False
    while iterations < max_iterations:
        iterations += 1
        aux = chol.solve_t(mttkrp + rho * (primal + dual))
        primal_prev = primal
        primal = constraint.prox(aux - dual, 1.0 / rho)
        dual = dual + primal - aux
        r, s = relative_residuals(primal, aux, primal_prev, dual)
        if r < tolerance and s < tolerance:
            converged = True
            break
    state.primal = primal
    state.dual = dual
    return AdmmReport(iterations=iterations, rho=rho, primal_residual=r,
                      dual_residual=s, converged=converged,
                      jitter_added=chol.jitter_added)


FULL_MATRIX_CONSTRAINTS = {**ORACLE_CONSTRAINTS, "smooth": {"weight": 0.5}}


class TestTiledMatchesFullMatrixReference:
    """Tiling the rows changes no row's bits, only the residual sums'."""

    # 5000 one-row tiles take ~8 s a case; 600 rows cover that tiling.
    @pytest.mark.parametrize("rows, tile", [
        pytest.param(rows, tile, id=f"{rows}-{tile}",
                     marks=[pytest.mark.slow] if (rows, tile) == (5000, "1")
                     else [])
        for rows in (0, 1, 600, 5000) for tile in ("1", "7", "default")])
    @pytest.mark.parametrize("rank", [5, 50])
    @pytest.mark.parametrize("name", sorted(FULL_MATRIX_CONSTRAINTS))
    def test_bitwise_equal_to_reference(self, monkeypatch, make_rng, name,
                                        rank, rows, tile):
        if tile != "default":
            monkeypatch.setattr(step_module, "TILE_BYTES",
                                int(tile) * 8 * rank)
            assert tile_rows(rank) == int(tile)
        constraint = make_constraint(name, **FULL_MATRIX_CONSTRAINTS[name])
        gen = make_rng(5)
        mttkrp, gram, _, _ = make_problem(gen, rows=rows, rank=rank)
        state = AdmmState(np.abs(gen.standard_normal(mttkrp.shape)),
                          0.5 * gen.standard_normal(mttkrp.shape))
        expected_state = state.copy()
        given = state.primal, state.dual
        before = state.copy()
        expected = full_matrix_reference(expected_state, mttkrp, gram,
                                         constraint, max_iterations=12)
        report = admm_update(state, mttkrp, gram, constraint,
                             max_iterations=12)

        np.testing.assert_array_equal(state.primal, expected_state.primal)
        np.testing.assert_array_equal(state.dual, expected_state.dual)
        assert (report.iterations, report.converged, report.rho,
                report.jitter_added) == (expected.iterations,
                                         expected.converged, expected.rho,
                                         expected.jitter_added)
        assert report.primal_residual == pytest.approx(
            expected.primal_residual, rel=1e-12, abs=0.0)
        assert report.dual_residual == pytest.approx(
            expected.dual_residual, rel=1e-12, abs=0.0)
        # The caller's arrays are replaced, never written.
        np.testing.assert_array_equal(given[0], before.primal)
        np.testing.assert_array_equal(given[1], before.dual)


class TestAdmmState:
    def test_from_factor_zero_dual(self):
        state = AdmmState.from_factor(np.ones((4, 2)))
        np.testing.assert_array_equal(state.dual, 0.0)
        assert state.rows == 4 and state.rank == 2

    def test_copy_is_deep(self):
        state = AdmmState.from_factor(np.ones((2, 2)))
        clone = state.copy()
        clone.primal[0, 0] = 99.0
        assert state.primal[0, 0] == 1.0

    def test_mismatched_dual_rejected(self):
        with pytest.raises(ValueError):
            AdmmState(np.ones((3, 2)), np.ones((2, 2)))
