"""Unit tests for the LU core: factorization, solves, det signs, inverse
iteration.  Oracles are numpy.linalg, hand-built matrices and, for the
tridiagonal and band-plus-border kernels, the dense kernel on the same
matrix."""

import warnings
import weakref

import numpy as np
import pytest

from phase_bifurcate import (
    BandBorder,
    BandLuFactorization,
    BorderedLuFactorization,
    ConvergenceError,
    GridSpec,
    ModelParams,
    SingularMatrixError,
    ac_bifurcation,
    default_settings,
    det_sign,
    detect_bifurcations_on_trivial,
    eigenmode,
    laplacian_matrix,
    linalg,
    LuFactorization,
    lu_factor,
    lu_solve,
    model_by_kind,
    null_vector,
    poisson_neumann_solve,
)


def reconstruct(fact):
    """Rebuild P @ A from the packed factors (test-side helper)."""
    packed = fact.packed
    n = packed.shape[0]
    lower = np.tril(packed, -1) + np.eye(n)
    upper = np.triu(packed)
    return lower @ upper


def band_factors(fact):
    """``(perm, L, U)`` with ``a[perm] == L @ U`` from a band factorization.

    Replays the dense kernel's bookkeeping: an interchange at step k swaps
    rows k and k+1 of the permutation and of the multipliers found so far.
    """
    n = len(fact.pivots)
    perm = np.arange(n)
    lower = np.eye(n)
    upper = np.diag(fact.pivots)
    for k, (mult, swap) in enumerate(zip(fact.lower, fact.swapped)):
        if swap:
            perm[[k, k + 1]] = perm[[k + 1, k]]
            lower[[k, k + 1], :k] = lower[[k + 1, k], :k]
        lower[k + 1, k] = mult
        upper[k, k + 1] = fact.upper[k]
    for k, fill in enumerate(fact.upper2):
        upper[k, k + 2] = fill
    return perm, lower, upper


def dense_factor(a, pivot_rtol=linalg.DEFAULT_PIVOT_RTOL):
    """The dense kernel on any matrix, band or not: the band kernel's reference."""
    return linalg._dense_factor(np.array(a, dtype=float), pivot_rtol)


def tridiagonal(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


# ---------------------------------------------------------------------------
# factorization and solve
# ---------------------------------------------------------------------------


def test_identity_factors_to_itself():
    # The identity is tridiagonal, so lu_factor takes the band kernel.
    fact = lu_factor(np.eye(5))
    assert isinstance(fact, BandLuFactorization)
    assert not fact.singular
    assert fact.perm_sign == 1
    assert not any(fact.swapped)
    perm, lower, upper = band_factors(fact)
    assert np.array_equal(perm, np.arange(5))
    assert np.array_equal(lower, np.eye(5))
    assert np.array_equal(upper, np.eye(5))
    # The dense kernel's packed layout, on the identity and on a dense
    # upper-triangular input (no eliminations, no swaps).
    dense = dense_factor(np.eye(5))
    assert not dense.singular
    assert dense.perm_sign == 1
    assert np.array_equal(dense.perm, np.arange(5))
    assert np.array_equal(dense.packed, np.eye(5))
    tri = np.triu(np.ones((5, 5))) + 4.0 * np.eye(5)
    fact = lu_factor(tri)
    assert isinstance(fact, LuFactorization)
    assert fact.perm_sign == 1
    assert np.array_equal(fact.perm, np.arange(5))
    assert np.array_equal(fact.packed, tri)


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
        if n <= 2:
            # Every 1x1 and 2x2 matrix is tridiagonal: band kernel.
            assert isinstance(fact, BandLuFactorization)
            perm, lower, upper = band_factors(fact)
            assert fact.perm_sign == (-1) ** sum(fact.swapped)
            assert fact.perm_sign == int(np.linalg.det(np.eye(n)[perm]))
            product = lower @ upper
            # The same facts from the dense kernel on the same input.
            dense = dense_factor(a)
            assert np.array_equal(perm, dense.perm)
            assert fact.perm_sign == dense.perm_sign
            gap = np.max(np.abs(reconstruct(dense) - a[dense.perm]))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(a))), f"dense n={n}: {gap:.3e}"
        else:
            assert isinstance(fact, LuFactorization)
            perm, product = fact.perm, reconstruct(fact)
        gap = np.max(np.abs(product - a[perm]))
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
# tridiagonal band kernel (reference: the dense kernel on the same matrix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("closure", ["symmetric", "onesided-right"])
@pytest.mark.parametrize("kind", ["ac", "ch"])
def test_band_kernel_matches_dense_on_model_jacobians(kind, closure):
    rng = np.random.default_rng(17)
    for n_cells in (4, 20, 100, 800):
        grid = GridSpec(n_cells)
        model = model_by_kind(kind, grid, closure=closure)
        for eps in (0.05, 0.1, 0.3, 0.7):
            states = (
                np.zeros(grid.n_nodes),
                0.9 * np.tanh(grid.nodes / eps),
                rng.uniform(-1.2, 1.2, grid.n_nodes),
            )
            for state in states:
                jac = model.jacobian(state, ModelParams(epsilon=eps))
                for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL):
                    band = lu_factor(jac, pivot_rtol=rtol)
                    dense = dense_factor(jac, rtol)
                    assert isinstance(band, BandLuFactorization)
                    assert det_sign(band) == det_sign(dense), f"N={n_cells} eps={eps}"
                    assert band.singular == dense.singular
                    if band.singular:
                        continue
                    b = rng.standard_normal(grid.n_nodes)
                    x_band, x_dense = lu_solve(band, b), lu_solve(dense, b)
                    assert np.max(np.abs(x_band - x_dense)) <= 1e-9 * np.max(np.abs(x_dense))


def test_band_pivoting_tie_break_and_swap_match_dense():
    # |sub| == |diag|: like the dense argmax, keep the row (no swap).
    tie = np.array([[1.0, 2.0], [-1.0, 3.0]])
    fact = lu_factor(tie)
    assert isinstance(fact, BandLuFactorization)
    assert fact.swapped == [False] and fact.perm_sign == 1
    assert np.array_equal(dense_factor(tie).perm, [0, 1])
    # |sub| > |diag| at step 0: swap, leaving fill on the second superdiagonal.
    a = tridiagonal([3.0, 0.5], [1.0, 4.0, 7.0], [2.0, 5.0])
    fact = lu_factor(a)
    dense = dense_factor(a)
    assert fact.swapped == [True, False]
    assert fact.perm_sign == dense.perm_sign == -1
    assert fact.upper2 == [5.0]
    perm, lower, upper = band_factors(fact)
    assert np.array_equal(perm, dense.perm)
    assert np.max(np.abs(lower @ upper - a[perm])) <= 1e-14 * np.max(np.abs(a))
    assert det_sign(fact) == det_sign(dense) == int(np.linalg.slogdet(a)[0])


def test_band_singular_flag_and_solve_raises():
    rank_two = tridiagonal([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0])
    fact = lu_factor(rank_two)
    assert isinstance(fact, BandLuFactorization)
    assert fact.singular and dense_factor(rank_two).singular
    assert det_sign(rank_two) == 0
    with pytest.raises(SingularMatrixError):
        lu_solve(fact, np.ones(3))
    # A zero first column: zero pivot, no swap, no elimination.
    zero_col = tridiagonal([0.0, 2.0], [0.0, 3.0, 4.0], [1.0, 5.0])
    assert lu_factor(zero_col, pivot_rtol=0.0).singular
    assert det_sign(zero_col, pivot_rtol=0.0) == 0


def test_band_pivot_floor_matches_dense():
    a = np.diag([1.0, 1e-300])
    assert isinstance(lu_factor(a), BandLuFactorization)
    assert lu_factor(a).singular and not lu_factor(a, pivot_rtol=0.0).singular
    assert det_sign(a, pivot_rtol=0.0) == 1
    # The floor is pivot_rtol times the max absolute row sum, as in the dense path.
    # The last row is decoupled, so its pivot is exactly 1e-9.
    b = tridiagonal([-2.0, 0.5, 0.0], [4.0, 3.0, -6.0, 1e-9], [1.0, -0.25, 0.0])
    for rtol in (0.0, 1e-12, 1e-9):
        band, dense = lu_factor(b, pivot_rtol=rtol), dense_factor(b, rtol)
        assert band.pivot_floor == dense.pivot_floor == rtol * 6.5
        assert band.singular == dense.singular
    assert not lu_factor(b, pivot_rtol=1e-12).singular
    assert lu_factor(b, pivot_rtol=1e-9).singular


def test_band_rejects_nonfinite_entries():
    for i, j, value in ((1, 1, np.nan), (2, 1, np.inf), (0, 1, -np.inf)):
        a = tridiagonal([1.0, 1.0, 1.0], [4.0, 4.0, 4.0, 4.0], [1.0, 1.0, 1.0])
        a[i, j] = value
        with pytest.raises(ValueError):
            lu_factor(a)
    off_band = np.eye(4)
    off_band[0, 3] = np.nan  # not on the band: the dense path rejects it
    with pytest.raises(ValueError):
        lu_factor(off_band)


def test_band_solve_two_dimensional_rhs():
    rng = np.random.default_rng(8)
    a = tridiagonal(rng.standard_normal(9), rng.standard_normal(10), rng.standard_normal(9))
    fact = lu_factor(a)
    rhs = rng.standard_normal((10, 3))
    x = lu_solve(fact, rhs)
    assert x.shape == (10, 3)
    for j in range(3):
        assert np.array_equal(x[:, j], lu_solve(fact, rhs[:, j]))
    assert np.max(np.abs(a @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs)) * np.linalg.cond(a)
    assert lu_solve(fact, np.zeros((10, 0))).shape == (10, 0)
    with pytest.raises(ValueError):
        lu_solve(fact, np.zeros(9))


def test_band_solve_is_reflection_equivariant_bitwise():
    """solve(P J P, P b) == P solve(J, b) exactly, P the order reversal."""
    rng = np.random.default_rng(23)
    cases = []
    for n in (1, 2, 3, 10, 101):
        # Random bands pivot both ways and have no mirror symmetry of their own.
        cases.append(tridiagonal(rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)))
    grid = GridSpec(100)
    model = model_by_kind("ac", grid, closure="onesided-right")
    cases.append(model.jacobian(rng.uniform(-1.0, 1.0, grid.n_nodes), ModelParams(epsilon=0.08)))
    for a in cases:
        n = a.shape[0]
        mirrored = a[::-1, ::-1].copy()
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            x = lu_solve(lu_factor(a), b)
            y = lu_solve(lu_factor(mirrored), b[::-1].copy())
            assert np.array_equal(y, x[::-1]), f"n={n}"


def test_band_mirror_is_factored_on_first_solve_only():
    a = tridiagonal([1.0, -2.0, 0.5], [3.0, 1.0, 4.0, -1.0], [0.25, 2.0, 1.0])
    fact = lu_factor(a)
    assert weakref.ref(fact)() is fact
    assert det_sign(fact) == int(np.linalg.slogdet(a)[0])
    assert fact.mirror is None  # sign-only use pays for one elimination
    x = lu_solve(fact, np.ones(4))
    mirror = fact.mirror
    assert isinstance(mirror, BandLuFactorization)
    assert np.array_equal(lu_solve(fact, np.ones(4)), x)
    assert fact.mirror is mirror
    assert np.max(np.abs(a @ x - 1.0)) <= 1e-13


def test_band_solve_falls_back_to_top_down_when_only_the_mirror_is_floored():
    # No swaps either way and det = 1e-13: the last pivot is det/0.5
    # top-down but det/1 mirrored, so a floor of 1.5e-13 flags only the
    # mirrored elimination.
    a = np.array([[0.5, 1.0], [0.5, 1.0 + 2e-13]])
    fact = lu_factor(a, pivot_rtol=1e-13)
    assert not fact.singular
    x = lu_solve(fact, np.array([1.0, 2.0]))
    assert fact.mirror.singular
    assert np.array_equal(x, linalg._band_solve(fact, [1.0, 2.0]))


def test_off_band_nonzero_takes_dense_path():
    grid = GridSpec(20)
    model = model_by_kind("ac", grid)
    params = ModelParams(epsilon=0.2)
    state = 0.5 * np.tanh(grid.nodes / 0.2)
    jac = model.jacobian(state, params)
    assert isinstance(lu_factor(jac), BandLuFactorization)
    one_off = jac.copy()
    one_off[0, -1] = 1e-3
    assert isinstance(lu_factor(one_off), LuFactorization)
    # A bordered pseudo-arclength matrix [[J, F_mu], [t/n, t_mu]].
    n = grid.n_nodes
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = jac
    bordered[:n, n] = model.param_derivative(state, params)
    bordered[n, :n] = np.ones(n) / n
    bordered[n, n] = 0.5
    fact = lu_factor(bordered)
    assert isinstance(fact, LuFactorization)
    assert det_sign(fact) == int(np.linalg.slogdet(bordered)[0])


# ---------------------------------------------------------------------------
# band-plus-border kernel (references: numpy.linalg and the dense kernel)
# ---------------------------------------------------------------------------

#: Relative solve tolerance against numpy.linalg.solve on the full bordered
#: matrix, for the systems whose band block is (numerically) singular.
BORDERED_RTOL = 1e-11


def assert_bordered_matches_numpy(system, rng, pivot_rtol=linalg.DEFAULT_PIVOT_RTOL):
    """Solve and det sign of a fully visible ``BandBorder`` against numpy."""
    full = system.to_dense()
    fact = lu_factor(system, pivot_rtol=pivot_rtol)
    assert isinstance(fact, BorderedLuFactorization)
    assert not fact.singular
    assert det_sign(fact) == int(np.linalg.slogdet(full)[0])
    b = rng.standard_normal(len(full))
    x, ref = lu_solve(fact, b), np.linalg.solve(full, b)
    gap = np.max(np.abs(x - ref)) / np.max(np.abs(ref))
    assert gap <= BORDERED_RTOL, f"relative gap {gap:.2e}"


def neumann_system(grid, sign=1.0):
    """``[[A, sign * 1], [w^T, 0]]``: the Neumann problem's bordered matrix."""
    lap = BandBorder.from_dense(laplacian_matrix(grid))
    return lap.bordered(sign * np.ones(grid.n_nodes), grid.trapezoid_weights, 0.0)


def test_bordered_kernel_matches_numpy_on_random_band_and_borders():
    rng = np.random.default_rng(5)
    for _ in range(200):
        nb, kl, ku, k = (int(v) for v in rng.integers((1, 0, 0, 0), (25, 4, 4, 3)))
        system = BandBorder(
            band=rng.standard_normal((nb, kl + ku + 1)), kl=kl,
            cols=rng.standard_normal((nb, k)), rows=rng.standard_normal((k, nb)),
            corner=rng.standard_normal((k, k)),
        )
        full = system.to_dense()
        fact = lu_factor(system)
        assert det_sign(fact) == int(np.linalg.slogdet(full)[0])
        b = rng.standard_normal((len(full), 2))
        ref = np.linalg.solve(full, b)
        assert np.max(np.abs(lu_solve(fact, b) - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert np.array_equal(lu_solve(fact, b[:, 0]), lu_solve(fact, b)[:, 0])
    # The border row repeats the sum of the rows above it: det == 0 exactly.
    system = BandBorder(band=np.array([[0.0, 2.0, 1.0], [1.0, 3.0, 0.0]]), kl=1,
                        cols=np.array([[1.0], [1.0]]), rows=np.array([[3.0, 4.0]]), corner=np.array([[2.0]]))
    assert np.linalg.matrix_rank(system.to_dense()) == 2
    for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL):
        fact = lu_factor(system, pivot_rtol=rtol)
        assert fact.singular and det_sign(fact) == 0
        with pytest.raises(SingularMatrixError):
            lu_solve(fact, np.ones(3))


def test_bordered_kernel_on_the_neumann_system():
    rng = np.random.default_rng(11)
    for n_cells in (4, 50, 200, 800):
        grid = GridSpec(n_cells)
        # The band block, the Neumann Laplacian, is exactly singular.
        assert det_sign(laplacian_matrix(grid), pivot_rtol=0.0) == 0
        for sign in (1.0, -1.0):
            assert_bordered_matches_numpy(neumann_system(grid, sign), rng)
        f = np.cos(np.pi * grid.nodes)
        ref = np.linalg.solve(neumann_system(grid).to_dense(), np.append(f, 0.0))[:-1]
        u = poisson_neumann_solve(f, grid)
        assert np.max(np.abs(u - ref)) <= BORDERED_RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("closure", ["symmetric", "onesided-right"])
def test_bordered_kernel_on_acok_at_zero_gamma(closure):
    rng = np.random.default_rng(13)
    grid = GridSpec(100)
    model = model_by_kind("acok", grid, closure=closure)
    params = ModelParams(epsilon=0.3, gamma=0.0)
    for state in (np.full(grid.n_nodes, 0.5), 0.5 + 0.3 * np.tanh(grid.nodes / 0.1)):
        lin = model.linearize(state, params)
        # Without the nonlocal term the band block holds the Neumann
        # Laplacian uncoupled: an exactly zero pivot.
        band_only = BandBorder(band=lin.band, kl=lin.kl)
        assert det_sign(band_only, pivot_rtol=0.0) == 0
        for orientation in (1.0, -1.0):  # the border column either way round
            full = BandBorder(band=lin.band, kl=lin.kl, cols=orientation * lin.cols, rows=lin.rows,
                              corner=lin.corner)
            assert_bordered_matches_numpy(full, rng)
        # The visible system is the Jacobian itself.
        jac = model.jacobian(state, params)
        assert det_sign(lin) == int(np.linalg.slogdet(jac)[0])
        r = rng.standard_normal(grid.n_nodes)
        ref = np.linalg.solve(jac, r)
        assert np.max(np.abs(lu_solve(lu_factor(lin), r) - ref)) <= BORDERED_RTOL * np.max(np.abs(ref))


def test_bordered_kernel_at_a_detected_ac_bifurcation_point():
    rng = np.random.default_rng(17)
    grid = GridSpec(100)
    model = model_by_kind("ac", grid)
    target = ac_bifurcation(1, "sine").param_value
    settings = default_settings("ac", param_min=0.99 * target, param_max=1.01 * target,
                                initial_step=0.004 * target, max_step=0.01 * target)
    zero = np.zeros(grid.n_nodes)
    (bif,) = detect_bifurcations_on_trivial(model, ModelParams(epsilon=0.2), settings, lambda eps: zero)
    jac = model.linearize(zero, ModelParams(epsilon=bif.param))
    assert lu_factor(jac).singular
    # Bordered by its null mode, the Jacobian is well conditioned again.
    system = jac.bordered(bif.null_mode, bif.null_mode, 0.0)
    for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL):
        assert_bordered_matches_numpy(system, rng, pivot_rtol=rtol)


def test_bordered_kernel_on_the_fold_toy_at_its_fold():
    # x1^2 + mu - 1 = 0, x2 - x1 = 0 at the fold (x1, mu) = (0, 1), bordered
    # by F_mu and the arclength row along either orientation of the tangent.
    rng = np.random.default_rng(19)
    jac = np.array([[0.0, 0.0], [-1.0, 1.0]])
    assert det_sign(jac, pivot_rtol=0.0) == 0
    tangent = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for orientation in (1.0, -1.0):
        system = BandBorder.from_dense(jac).bordered(np.array([1.0, 0.0]), orientation * tangent / 2.0, 0.0)
        for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL):
            assert_bordered_matches_numpy(system, rng, pivot_rtol=rtol)


@pytest.mark.parametrize("closure", ["symmetric", "onesided-right"])
def test_bordered_kernel_matches_dense_on_acok_jacobians(closure):
    rng = np.random.default_rng(23)
    for n_cells in (4, 20, 100, 800):
        grid = GridSpec(n_cells)
        model = model_by_kind("acok", grid, closure=closure)
        x = grid.nodes
        states = (np.full(grid.n_nodes, 0.5), 0.5 + 0.3 * np.tanh(x / 0.1), 0.5 + 0.2 * np.cos(np.pi * x))
        for gamma in (0.0, 100.0, 3000.0):
            params = ModelParams(epsilon=0.3, gamma=gamma)
            for state in states:
                lin, jac = model.linearize(state, params), model.jacobian(state, params)
                for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL):
                    fact = lu_factor(lin, pivot_rtol=rtol)
                    dense = dense_factor(jac, rtol)
                    where = f"N={n_cells} gamma={gamma} rtol={rtol}"
                    assert det_sign(fact) == det_sign(dense), where
                    assert fact.singular == dense.singular, where
                    if fact.singular:
                        continue
                    b = rng.standard_normal(grid.n_nodes)
                    x_new, x_dense = lu_solve(fact, b), lu_solve(dense, b)
                    assert np.max(np.abs(x_new - x_dense)) <= 1e-9 * np.max(np.abs(x_dense)), where


# ---------------------------------------------------------------------------
# batched det signs (reference: the scalar map det_sign(lu_factor(s)))
# ---------------------------------------------------------------------------

RTOLS = (0.0, linalg.DEFAULT_PIVOT_RTOL)


def scalar_signs(systems, pivot_rtol):
    return [det_sign(lu_factor(s, pivot_rtol=pivot_rtol)) for s in systems]


def assert_signs_match_scalar_map(systems, monkeypatch, pivot_rtol):
    """``det_signs`` equals the scalar map, and every border solve that
    reaches the Schur step is the scalar kernel's bit for bit.  Returns how
    many systems the batched pass signed without ``lu_factor``."""
    rights, redone = [], []
    schur_factor, bordered_factor = linalg._schur_factor, linalg._bordered_factor

    def schur_spy(corner, rows, right):
        rights.append(right)
        return schur_factor(corner, rows, right)

    def bordered_spy(system, rtol):
        redone.append(system)
        return bordered_factor(system, rtol)

    monkeypatch.setattr(linalg, "_schur_factor", schur_spy)
    monkeypatch.setattr(linalg, "_bordered_factor", bordered_spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signs = linalg.det_signs(iter(systems), pivot_rtol=pivot_rtol)
    monkeypatch.setattr(linalg, "_schur_factor", schur_factor)
    monkeypatch.setattr(linalg, "_bordered_factor", bordered_factor)
    assert signs == scalar_signs(systems, pivot_rtol)
    assert all(type(s) is int for s in signs)
    scalar_rights = [bordered_factor(s, pivot_rtol).right for s in systems if isinstance(s, BandBorder)]
    for right in rights:
        assert any(np.array_equal(np.array(right), np.array(r)) for r in scalar_rights), \
            "a border solve differs from every scalar one"
    # lu_factor signs exactly the systems whose band pivots it would boost.
    bordered = [s for s in systems if isinstance(s, BandBorder) and not linalg._plain_tridiagonal(s)]
    boosted = [s for s in bordered if len(bordered_factor(s, pivot_rtol).cols) > s.k]
    assert [id(s) for s in redone] == [id(s) for s in boosted]
    return len(bordered) - len(redone)


def isolate_pivot(system, r, value):
    """Decouple unknown ``r`` of the band block: row and column ``r`` hold
    only ``value`` on the diagonal, which makes it the pivot of step ``r``."""
    kl, ku = system.kl, system.ku
    system.band[r, :] = 0.0
    for i in range(max(0, r - ku), min(len(system.band), r + kl + 1)):
        system.band[i, kl + r - i] = 0.0
    system.band[r, kl] = value


def random_stack(rng, count, nb, kl, ku, k, swap_heavy=False):
    """Systems of one structure; ``swap_heavy`` shrinks the main diagonal
    so that most elimination steps interchange rows."""
    out = []
    for _ in range(count):
        band = rng.standard_normal((nb, kl + ku + 1))
        if swap_heavy:
            band[:, kl] *= 1e-3
        out.append(BandBorder(band=band, kl=kl, cols=rng.standard_normal((nb, k)),
                              rows=rng.standard_normal((k, nb)), corner=rng.standard_normal((k, k)),
                              hidden_sign=int(rng.choice([-1, 1]))))
    return out


@pytest.mark.parametrize("closure", ["symmetric", "onesided-right"])
@pytest.mark.parametrize("pass_bytes", [1, 100_000, None], ids=["one-per-pass", "small-passes", "default"])
def test_det_signs_match_scalar_map_on_acok_linearizations(closure, pass_bytes, monkeypatch):
    if pass_bytes is not None:
        monkeypatch.setattr(linalg, "_SIGN_PASS_BYTES", pass_bytes)
    for n_cells in (20, 100):
        grid = GridSpec(n_cells)
        model = model_by_kind("acok", grid, closure=closure)
        x = grid.nodes
        states = (np.full(grid.n_nodes, 0.5), np.zeros(grid.n_nodes), 0.5 + 0.3 * np.tanh(x / 0.1),
                  0.5 + 0.2 * np.cos(np.pi * x))
        gammas = np.linspace(0.0, 3000.0, 25) + 3.7
        seen = set()
        for state in states:
            systems = [model.linearize(state, ModelParams(epsilon=0.3, gamma=g)) for g in gammas]
            for rtol in RTOLS:
                assert assert_signs_match_scalar_map(systems, monkeypatch, rtol) == len(systems)
                seen.update(scalar_signs(systems, rtol))
        assert seen == {-1, 1}


@pytest.mark.parametrize("kl", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_det_signs_match_scalar_map_on_random_stacks(kl, k, monkeypatch):
    rng = np.random.default_rng(100 * kl + k)
    swapped = 0
    for trial in range(6):
        nb, ku = int(rng.integers(kl + 1, 30)), int(rng.integers(0, 4))
        systems = random_stack(rng, 9, nb, kl, ku, k, swap_heavy=trial % 2 == 1)
        for rtol in RTOLS:
            assert_signs_match_scalar_map(systems, monkeypatch, rtol)
        swapped += sum(sum(p != j for j, p in enumerate(linalg._bordered_factor(s, 0.0).swaps)) for s in systems)
    assert swapped > 100  # the interchanges really were exercised


def test_det_signs_hand_boosted_pivots_to_lu_factor(monkeypatch):
    rng = np.random.default_rng(29)
    systems = random_stack(rng, 8, 12, 2, 1, 1)
    # Step 3's pivot: exactly zero, at rounding level (both boosted), or
    # well above the boost floor (kept).
    for s, rel in zip(systems[1:5], (0.0, 1e-16, -3e-15, 1e-10)):
        isolate_pivot(s, 3, 0.0)
        s.band[3, s.kl] = rel * np.max(np.sum(np.abs(s.band), axis=1))
    for rtol in RTOLS:
        boosted = [len(linalg._bordered_factor(s, rtol).cols) > s.k for s in systems]
        assert boosted == [False, True, True, True, False, False, False, False]
        assert assert_signs_match_scalar_map(systems, monkeypatch, rtol) == len(systems) - 3
    # Under the ACOK model at gamma = 0 the Poisson block decouples and
    # leaves an exactly zero pivot.
    model = model_by_kind("acok", GridSpec(40))
    state = np.full(41, 0.5)
    systems = [model.linearize(state, ModelParams(epsilon=0.3, gamma=g)) for g in (0.0, 10.0, 0.0, 20.0)]
    for rtol in RTOLS:
        assert assert_signs_match_scalar_map(systems, monkeypatch, rtol) == 2


def test_det_signs_of_an_exactly_singular_schur_block(monkeypatch):
    # The border row repeats the sum of the rows above it: the Schur block is 0.
    singular = BandBorder(band=np.array([[0.0, 2.0, 1.0], [1.0, 3.0, 0.0]]), kl=1,
                          cols=np.array([[1.0], [1.0]]), rows=np.array([[3.0, 4.0]]), corner=np.array([[2.0]]))
    regular = BandBorder(band=singular.band, kl=1, cols=singular.cols, rows=singular.rows,
                         corner=np.array([[2.5]]))
    for rtol in RTOLS:
        systems = [regular, singular, regular]
        assert linalg.det_signs(systems, pivot_rtol=rtol)[1] == 0
        assert assert_signs_match_scalar_map(systems, monkeypatch, rtol) == 3


def test_det_signs_sign_tridiagonal_and_dense_systems_one_at_a_time(monkeypatch):
    grid = GridSpec(60)
    model = model_by_kind("ac", grid)
    systems = [model.linearize(np.zeros(grid.n_nodes), ModelParams(epsilon=e)) for e in np.linspace(0.05, 0.7, 40)]
    systems.insert(7, systems[7].to_dense())
    rng = np.random.default_rng(31)
    systems[20:20] = random_stack(rng, 3, 10, 2, 2, 1)  # a different structure in between
    passes = []
    sign_pass = linalg._sign_pass

    def spy(batch, rtol):
        passes.append(len(batch))
        return sign_pass(batch, rtol)

    monkeypatch.setattr(linalg, "_sign_pass", spy)
    for rtol in RTOLS:
        assert linalg.det_signs(systems, pivot_rtol=rtol) == scalar_signs(systems, rtol)
    assert sorted(set(passes)) == [0, 3]


def test_det_signs_consume_one_pass_at_a_time(monkeypatch):
    rng = np.random.default_rng(37)
    systems = random_stack(rng, 50, 40, 3, 3, 1)
    monkeypatch.setattr(linalg, "_SIGN_PASS_BYTES", 200_000)
    size = linalg._pass_size(systems[0])
    assert 1 < size < 50
    drawn, passes = [], []
    sign_pass = linalg._sign_pass

    def spy(batch, rtol):
        passes.append((len(batch), len(drawn)))
        return sign_pass(batch, rtol)

    def lazily():
        for s in systems:
            drawn.append(s)
            yield s

    monkeypatch.setattr(linalg, "_sign_pass", spy)
    assert linalg.det_signs(lazily()) == scalar_signs(systems, linalg.DEFAULT_PIVOT_RTOL)
    assert [n for n, _ in passes] == [size] * (50 // size) + [50 % size]
    # Each pass runs before more than one further system has been drawn.
    assert all(d <= size * (i + 1) + 1 for i, (_, d) in enumerate(passes))


def test_det_signs_reject_non_finite_entries():
    rng = np.random.default_rng(41)
    for where in ("band", "cols"):
        systems = random_stack(rng, 5, 12, 2, 1, 1)
        getattr(systems[3], where)[2, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.det_signs(systems)
    grid = GridSpec(20)
    tri = model_by_kind("ac", grid).linearize(np.zeros(grid.n_nodes), ModelParams(epsilon=0.2))
    tri.band[4, 1] = np.inf
    with pytest.raises(ValueError):
        linalg.det_signs([tri])


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
