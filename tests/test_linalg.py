"""Unit tests for the dense LU core: factorization, solves, det signs,
inverse iteration.  Oracles are numpy.linalg and hand-built matrices."""

import numpy as np
import pytest

from phase_bifurcate import (
    ConvergenceError,
    GridSpec,
    ModelParams,
    SingularMatrixError,
    ac_bifurcation,
    det_sign,
    eigenmode,
    laplacian_matrix,
    linalg,
    lu_factor,
    lu_solve,
    model_by_kind,
    null_vector,
)


def reconstruct(fact):
    """Rebuild P @ A from the packed factors (test-side helper)."""
    packed = fact.packed
    n = packed.shape[0]
    lower = np.tril(packed, -1) + np.eye(n)
    upper = np.triu(packed)
    return lower @ upper


# ---------------------------------------------------------------------------
# factorization and solve
# ---------------------------------------------------------------------------


def test_identity_factors_to_itself():
    fact = lu_factor(np.eye(5))
    assert not fact.singular
    assert fact.perm_sign == 1
    assert np.array_equal(fact.perm, np.arange(5))
    assert np.array_equal(fact.packed, np.eye(5))


def test_swap_matrix_has_negative_perm_sign():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    fact = lu_factor(a)
    assert fact.perm_sign == -1
    assert det_sign(a) == -1


def test_diagonal_matrix_det_sign_counts_negative_entries():
    assert det_sign(np.diag([2.0, 3.0, 4.0])) == 1
    assert det_sign(np.diag([2.0, -3.0, 4.0])) == -1
    assert det_sign(np.diag([-2.0, -3.0, 4.0])) == 1
    assert det_sign(np.diag([2.0, 0.0, 4.0])) == 0


def test_pa_equals_lu_on_random_matrices():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7, 20, 61, 130):
        a = rng.standard_normal((n, n))
        fact = lu_factor(a)
        assert not fact.singular
        gap = np.max(np.abs(reconstruct(fact) - a[fact.perm]))
        assert gap <= 1e-12 * max(1.0, np.max(np.abs(a))), f"n={n}: {gap:.3e}"


def test_solve_roundtrip_random():
    rng = np.random.default_rng(7)
    for n in (1, 4, 33, 100):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        x_true = rng.standard_normal(n)
        fact = lu_factor(a)
        x = lu_solve(fact, a @ x_true)
        assert np.max(np.abs(x - x_true)) <= 1e-9, f"n={n}"


def test_solve_matches_numpy_on_multiple_rhs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40))
    fact = lu_factor(a)
    for _ in range(4):
        b = rng.standard_normal(40)
        assert np.allclose(lu_solve(fact, b), np.linalg.solve(a, b), atol=1e-9)


def test_lu_solve_rejects_wrong_shape():
    fact = lu_factor(np.eye(3))
    with pytest.raises(ValueError):
        lu_solve(fact, np.zeros(4))


def test_lu_factor_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        lu_factor(np.zeros((3, 4)))
    bad = np.eye(3)
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        lu_factor(bad)


# ---------------------------------------------------------------------------
# singularity handling
# ---------------------------------------------------------------------------


def test_singular_matrix_is_flagged_and_solve_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    fact = lu_factor(a)
    assert fact.singular
    assert det_sign(a) == 0
    with pytest.raises(SingularMatrixError):
        lu_solve(fact, np.ones(2))


def test_pivot_floor_scales_with_matrix():
    # diag(1, 1e-300): the tiny pivot is below the relative floor by default
    # but a genuine nonzero, so pivot_rtol=0 keeps the factorization regular.
    a = np.diag([1.0, 1e-300])
    assert lu_factor(a).singular
    assert det_sign(a) == 0
    loose = lu_factor(a, pivot_rtol=0.0)
    assert not loose.singular
    assert det_sign(a, pivot_rtol=0.0) == 1


def test_det_sign_matches_slogdet_on_random_matrices():
    rng = np.random.default_rng(2026)
    for n in (2, 5, 17, 50):
        for _ in range(6):
            a = rng.standard_normal((n, n))
            expected = int(np.linalg.slogdet(a)[0])
            assert det_sign(a) == expected, f"n={n}"


def test_det_sign_accepts_existing_factorization():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((12, 12))
    fact = lu_factor(a)
    assert det_sign(fact) == det_sign(a)


def test_block_size_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((97, 97))
    facts = []
    for block in (1, 48, 500):
        monkeypatch.setattr(linalg, "_LU_BLOCK", block)
        facts.append(lu_factor(a))
    f1, f2, f3 = facts
    assert np.array_equal(f1.perm, f2.perm) and np.array_equal(f2.perm, f3.perm)
    scale = np.max(np.abs(f1.packed))
    assert np.max(np.abs(f1.packed - f2.packed)) <= 1e-13 * scale
    assert np.max(np.abs(f2.packed - f3.packed)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# det sign along a model Jacobian family (parity oracle: eigenvalue count)
# ---------------------------------------------------------------------------


def test_jacobian_det_sign_matches_eigenvalue_parity():
    """det sign == (-1)^(# negative eigenvalues) across the first crossings."""
    grid = GridSpec(100)
    model = model_by_kind("ac", grid)
    zero = np.zeros(grid.n_nodes)
    for eps in (0.7, 0.5, 0.35, 0.25, 0.15, 0.11):
        jac = model.jacobian(zero, ModelParams(epsilon=eps))
        eigs = np.linalg.eigvals(jac)
        negatives = int(np.sum(eigs.real < 0.0))
        assert det_sign(jac) == (-1) ** negatives, f"eps={eps}"


# ---------------------------------------------------------------------------
# inverse iteration
# ---------------------------------------------------------------------------


def test_null_vector_picks_smallest_eigenvalue_of_diagonal():
    res = null_vector(np.diag([3.0, 0.001, 5.0]))
    assert res.eigenvalue == pytest.approx(0.001, rel=1e-8)
    assert np.max(np.abs(res.vector - np.array([0.0, 1.0, 0.0]))) <= 1e-8
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)


def test_null_vector_supports_tuple_unpacking():
    lam, vec = null_vector(np.diag([2.0, 0.5]))
    assert lam == pytest.approx(0.5, rel=1e-8)
    assert vec.shape == (2,)


def test_null_vector_shift_targets_interior_eigenvalue():
    res = null_vector(np.diag([1.0, 4.0, 9.0]), shift=4.2)
    assert res.eigenvalue == pytest.approx(4.0, rel=1e-8)


def test_neumann_laplacian_kernel_is_constant():
    grid = GridSpec(60)
    lap = laplacian_matrix(grid)
    res = null_vector(lap)
    assert abs(res.eigenvalue) <= 1e-10
    # kernel vector is the constant, unit 2-norm, first entry positive
    expected = np.full(grid.n_nodes, 1.0 / np.sqrt(grid.n_nodes))
    assert np.max(np.abs(res.vector - expected)) <= 1e-8


def test_null_vector_is_bitwise_repeatable():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 30))
    a = a + a.T
    r1 = null_vector(a)
    r2 = null_vector(a)
    assert r1.eigenvalue == r2.eigenvalue
    assert np.array_equal(r1.vector, r2.vector)


def test_null_vector_handles_exactly_singular_matrix():
    a = np.diag([1.0, 0.0, 2.0])
    res = null_vector(a)
    assert abs(res.eigenvalue) <= 1e-12
    assert np.max(np.abs(res.vector - np.array([0.0, 1.0, 0.0]))) <= 1e-10


def test_null_vector_convergence_error_carries_iteration_count():
    # Two equal eigenvalues straddling the shift make plain inverse iteration
    # oscillate; with a tight budget the failure mode is the documented one.
    a = np.diag([1.0, -1.0])
    with pytest.raises(ConvergenceError):
        null_vector(a, shift=0.0, tol=1e-14, max_iters=3)


def test_null_mode_near_crossing_matches_analytic_eigenmode():
    """Just off an exact crossing, the smallest mode is the analytic one."""
    grid = GridSpec(100)
    model = model_by_kind("ac", grid)
    target = ac_bifurcation(1, "sine")  # eps = 2/(3 pi)
    eps = target.param_value * (1.0 + 1e-6)
    jac = model.jacobian(np.zeros(grid.n_nodes), ModelParams(epsilon=eps))
    res = null_vector(jac)
    mode = eigenmode(1, "sine", grid)
    corr = abs(float(res.vector @ mode)) / (np.linalg.norm(res.vector) * np.linalg.norm(mode))
    assert corr >= 0.999


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
