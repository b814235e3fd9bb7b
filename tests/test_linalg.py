"""Unit tests for the dense linear-algebra substrate."""

import numpy as np
import pytest

from repro.linalg import (
    CholeskyFactor,
    GramCache,
    column_norms,
    factor_frobenius_inner,
    gram,
    hadamard_gram_excluding,
    khatri_rao,
    khatri_rao_excluding,
    model_norm_squared,
    normalize_factors,
    spd_solve,
)
from repro.linalg.grams import hadamard_gram_all
from repro.linalg.khatri_rao import khatri_rao_rows
from repro.tensor.dense import dense_from_factors


class TestKhatriRao:
    def test_two_matrix_definition(self):
        p = np.array([[1.0, 2.0], [3.0, 4.0]])
        q = np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
        out = khatri_rao([p, q])
        assert out.shape == (6, 2)
        np.testing.assert_allclose(out[0], p[0] * q[0])
        np.testing.assert_allclose(out[1], p[0] * q[1])
        np.testing.assert_allclose(out[3], p[1] * q[0])

    def test_matches_kron_per_column(self):
        gen = np.random.default_rng(0)
        p, q = gen.standard_normal((4, 3)), gen.standard_normal((5, 3))
        out = khatri_rao([p, q])
        for f in range(3):
            np.testing.assert_allclose(out[:, f], np.kron(p[:, f], q[:, f]))

    def test_associativity(self):
        gen = np.random.default_rng(1)
        mats = [gen.standard_normal((n, 2)) for n in (2, 3, 4)]
        a = khatri_rao(mats)
        b = khatri_rao([khatri_rao(mats[:2]), mats[2]])
        np.testing.assert_allclose(a, b)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            khatri_rao([np.ones((2, 2)), np.ones((2, 3))])

    def test_khatri_rao_rows_gather(self, small_factors, small_tensor):
        rows = khatri_rao_rows(small_factors, 0, small_tensor.coords)
        full = khatri_rao_excluding(small_factors, 0)
        from repro.tensor.matricize import linearize_indices
        cols = linearize_indices(small_tensor.coords, small_tensor.shape,
                                 [1, 2])
        np.testing.assert_allclose(rows, full[cols])


class TestGrams:
    def test_gram_symmetry(self, rng):
        a = rng.standard_normal((20, 4))
        g = gram(a)
        np.testing.assert_allclose(g, g.T)
        np.testing.assert_allclose(g, a.T @ a, atol=1e-12)

    def test_hadamard_gram_excluding(self, small_factors):
        g = hadamard_gram_excluding(small_factors, 1)
        expected = gram(small_factors[0]) * gram(small_factors[2])
        np.testing.assert_allclose(g, expected)

    def test_gram_cache_consistency(self, small_factors):
        cache = GramCache(small_factors)
        for mode in range(3):
            np.testing.assert_allclose(
                cache.gram_excluding(mode),
                hadamard_gram_excluding(small_factors, mode))

    def test_gram_cache_invalidation(self, small_factors):
        cache = GramCache(small_factors)
        cache.gram_excluding(0)  # warm
        new_factor = np.ones_like(small_factors[1])
        cache.set_factor(1, new_factor)
        factors = list(small_factors)
        factors[1] = new_factor
        np.testing.assert_allclose(
            cache.gram_excluding(0), hadamard_gram_excluding(factors, 0))

    def test_gram_all(self, small_factors):
        cache = GramCache(small_factors)
        np.testing.assert_allclose(cache.gram_all(),
                                   hadamard_gram_all(small_factors))


class TestCholesky:
    def test_solve_matches_numpy(self, rng):
        a = rng.standard_normal((6, 6))
        spd = a @ a.T + 6 * np.eye(6)
        rhs = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            CholeskyFactor(spd).solve(rhs), np.linalg.solve(spd, rhs),
            atol=1e-9)

    def test_solve_t_row_major(self, rng):
        a = rng.standard_normal((5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        rows = rng.standard_normal((11, 5))
        np.testing.assert_allclose(
            CholeskyFactor(spd).solve_t(rows),
            np.linalg.solve(spd, rows.T).T, atol=1e-9)

    @pytest.mark.parametrize("rank", [1, 5, 16, 32, 50, 64, 100])
    def test_solve_t_rows_independent_of_call_size(self, make_rng, rank):
        """Row i of solve_t(X) depends only on X[i], bit for bit, however
        many rows share the call (short calls take other BLAS kernels)."""
        gen = make_rng(rank)
        a = gen.standard_normal((rank, rank))
        gram = a @ a.T
        chol = CholeskyFactor(gram + np.trace(gram) / rank * np.eye(rank))
        rows = gen.standard_normal((14000, rank))
        whole = chol.solve_t(rows)
        for offset in (0, 1, 777):
            for n in range(601):
                np.testing.assert_array_equal(
                    chol.solve_t(rows[offset:offset + n]),
                    whole[offset:offset + n])
        np.testing.assert_array_equal(chol.solve_t(rows[1000:13800]),
                                      whole[1000:13800])

    @pytest.mark.parametrize("kappa", [None, 1e8])
    def test_solve_t_accuracy(self, rng, kappa):
        """The cached-inverse GEMM is as accurate as an LU solve both for
        a trace-rho matrix and for an ill-conditioned fixed-rho one."""
        rank = 16
        if kappa is None:
            w = rng.standard_normal((30, rank))
            gram = w.T @ w
            matrix = gram + np.trace(gram) / rank * np.eye(rank)
            bound = 1e-14
        else:
            q, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
            gram = (q * np.logspace(0, -np.log10(kappa), rank)) @ q.T
            matrix = (gram + gram.T) / 2
            bound = kappa * np.finfo(float).eps
        rhs = rng.standard_normal((300, rank))
        want = np.linalg.solve(matrix, rhs.T).T
        got = CholeskyFactor(matrix).solve_t(rhs)
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    @pytest.mark.parametrize("matrix", [np.ones((3, 3)),
                                        np.diag([1.0, -0.5])],
                             ids=["singular", "indefinite"])
    def test_solve_t_uses_the_jittered_factor(self, rng, matrix):
        chol = CholeskyFactor(matrix)
        assert chol.jitter_added > 0.0
        rhs = rng.standard_normal((20, matrix.shape[0]))
        want = chol.solve(rhs.T).T
        np.testing.assert_allclose(chol.solve_t(rhs), want,
                                   rtol=1e-12, atol=1e-12 * abs(want).max())

    def test_jitter_repairs_singular(self):
        singular = np.ones((3, 3))  # rank 1, PSD
        chol = CholeskyFactor(singular)
        assert chol.jitter_added > 0.0
        out = chol.solve(np.ones(3))
        assert np.isfinite(out).all()

    def test_jitter_escalation_repairs_indefinite(self):
        """A slightly indefinite matrix is repaired by escalating jitter,
        and the escalation is observable (jitter_added, attempts)."""
        indefinite = np.diag([1.0, -0.5])
        chol = CholeskyFactor(indefinite)
        assert chol.jitter_added > 0.0
        assert chol.attempts > 1
        assert np.isfinite(chol.solve(np.ones(2))).all()

    def test_clean_factorization_reports_no_jitter(self, rng):
        a = rng.standard_normal((4, 4))
        chol = CholeskyFactor(a @ a.T + 4 * np.eye(4))
        assert chol.jitter_added == 0.0
        assert chol.attempts == 1

    def test_beyond_repair_fails_cleanly(self):
        """When the escalation budget is exhausted the constructor fails
        with a clear message instead of looping or returning garbage."""
        hopeless = np.diag([1.0, -2000.0])
        with pytest.raises(ValueError, match="beyond repair"):
            CholeskyFactor(hopeless)

    def test_spd_solve_vector(self, rng):
        spd = np.diag([1.0, 2.0, 4.0])
        np.testing.assert_allclose(spd_solve(spd, np.array([1.0, 2.0, 4.0])),
                                   [1.0, 1.0, 1.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CholeskyFactor(np.ones((2, 3)))


class TestNorms:
    def test_column_norms(self):
        a = np.array([[3.0, 0.0], [4.0, 2.0]])
        np.testing.assert_allclose(column_norms(a), [5.0, 2.0])

    def test_normalize_factors_reconstruction_invariant(self, small_factors):
        normalized, weights = normalize_factors(small_factors)
        before = dense_from_factors(small_factors)
        after = dense_from_factors(normalized, weights)
        np.testing.assert_allclose(before, after, atol=1e-10)
        for f in normalized:
            norms = column_norms(f)
            np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-10)

    def test_normalize_handles_zero_columns(self):
        factors = [np.zeros((4, 2)), np.ones((3, 2))]
        normalized, weights = normalize_factors(factors)
        np.testing.assert_allclose(weights, 0.0)

    def test_model_norm_squared_matches_dense(self, small_factors):
        dense = dense_from_factors(small_factors)
        assert model_norm_squared(small_factors) == pytest.approx(
            np.linalg.norm(dense) ** 2, rel=1e-10)

    def test_model_norm_with_weights(self, small_factors):
        w = np.array([2.0, 0.5, 1.0, 3.0, 0.0])
        dense = dense_from_factors(small_factors, w)
        assert model_norm_squared(small_factors, w) == pytest.approx(
            np.linalg.norm(dense) ** 2, rel=1e-10)

    def test_frobenius_inner(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert factor_frobenius_inner(a, b) == pytest.approx(11.0)
