"""Unit tests for the LU core: factorization, solves, det signs, and the
null modes the detector reads off its factorizations.  Oracles are
numpy.linalg, hand-built matrices and, for the tridiagonal and
band-plus-border kernels, the dense kernel on the same matrix; both band
kernels in bordered use are checked against a test-local list-based band
LU, and the scalar Schur factorization against the dense kernel."""

import hashlib
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from phase_bifurcate import (
    BandBorder,
    BandLuFactorization,
    BorderedLuFactorization,
    GridSpec,
    ModelParams,
    SingularMatrixError,
    ac_bifurcation,
    ac_bifurcations_in_range,
    ch_bifurcation,
    ch_trivial_roots,
    default_settings,
    det_sign,
    detect_bifurcations_on_trivial,
    eigenmode,
    laplacian_matrix,
    linalg,
    log_abs_det,
    LuFactorization,
    lu_factor,
    lu_solve,
    model_by_kind,
    null_vector,
    ParityLuFactorization,
    poisson_neumann_solve,
)
from phase_bifurcate.models import _laplacian_band, _neumann_system


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


def full_band_factor(system, pivot_rtol=linalg.DEFAULT_PIVOT_RTOL):
    """The whole of ``system`` factored, own mirror or not: ``_band_factor`` for an unbordered tridiagonal band, ``_bordered_factor`` otherwise.

    That is ``lu_factor``'s result for a band that is not its own mirror,
    and ``band_det_pass``'s elimination for every band it takes.
    """
    if not linalg._plain_tridiagonal(system):
        return linalg._bordered_factor(system, pivot_rtol)
    band = linalg._diagonals(system.band)
    return linalg._band_factor(tuple(d.tolist() for d in band), linalg._band_floor(band, pivot_rtol))


# ---------------------------------------------------------------------------
# factorization and solve
# ---------------------------------------------------------------------------


def test_identity_factors_to_itself():
    # The identity is tridiagonal, so lu_factor takes the band kernel.  Of
    # order 4 it is factored whole; of order 5, its own mirror, as its even
    # and odd blocks, the identities of order 3 and 2.
    whole, split = lu_factor(np.eye(4)), lu_factor(np.eye(5))
    assert isinstance(whole, BandLuFactorization) and isinstance(split, ParityLuFactorization)
    assert not whole.singular and not split.singular
    for fact, n in ((whole, 4), (split.block(0), 3), (split.block(1), 2)):
        assert fact.perm_sign == 1
        assert not any(fact.swapped)
        perm, lower, upper = band_factors(fact)
        assert np.array_equal(perm, np.arange(n))
        assert np.array_equal(lower, np.eye(n))
        assert np.array_equal(upper, np.eye(n))
    assert det_sign(split) == 1 and log_abs_det(split) == 0.0
    assert np.array_equal(lu_solve(split, np.arange(5.0)), np.arange(5.0))
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
    assert det_sign(fact) == -1


def test_diagonal_matrix_det_sign_counts_negative_entries():
    assert det_sign(lu_factor(np.diag([2.0, 3.0, 4.0]))) == 1
    assert det_sign(lu_factor(np.diag([2.0, -3.0, 4.0]))) == -1
    assert det_sign(lu_factor(np.diag([-2.0, -3.0, 4.0]))) == 1
    assert det_sign(lu_factor(np.diag([2.0, 0.0, 4.0]))) == 0


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
    rng = np.random.default_rng(41)
    for where in ("band", "cols"):
        bordered = BandBorder(band=rng.standard_normal((12, 4)), kl=2, cols=rng.standard_normal((12, 1)),
                              rows=rng.standard_normal((1, 12)), corner=rng.standard_normal((1, 1)))
        getattr(bordered, where)[2, 0] = np.nan
        with pytest.raises(ValueError):
            lu_factor(bordered)
    grid = GridSpec(20)
    tri = model_by_kind("ac", grid).linearize(np.zeros(grid.n_nodes), ModelParams(epsilon=0.2))
    tri.band[4, 1] = np.inf
    with pytest.raises(ValueError):
        lu_factor(tri)


# ---------------------------------------------------------------------------
# singularity handling
# ---------------------------------------------------------------------------


def test_singular_matrix_is_flagged_and_solve_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    fact = lu_factor(a)
    assert fact.singular
    assert det_sign(fact) == 0
    with pytest.raises(SingularMatrixError):
        lu_solve(fact, np.ones(2))


def test_pivot_floor_scales_with_matrix():
    # diag(1, 1e-300): the tiny pivot is below the relative floor by default
    # but a genuine nonzero, so pivot_rtol=0 keeps the factorization regular.
    a = np.diag([1.0, 1e-300])
    assert lu_factor(a).singular
    assert det_sign(lu_factor(a)) == 0
    loose = lu_factor(a, pivot_rtol=0.0)
    assert not loose.singular
    assert det_sign(loose) == 1


def test_det_sign_matches_slogdet_on_random_matrices():
    rng = np.random.default_rng(2026)
    for n in (2, 5, 17, 50):
        for _ in range(6):
            a = rng.standard_normal((n, n))
            expected = int(np.linalg.slogdet(a)[0])
            assert det_sign(lu_factor(a)) == expected, f"n={n}"


def test_det_sign_accepts_existing_factorization():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((12, 12))
    fact = lu_factor(a)
    assert det_sign(fact) == det_sign(fact) == int(np.linalg.slogdet(a)[0])


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


# The ids name the boundary closure, the symmetric folded Neumann one.
@pytest.mark.parametrize("kind", ["ac", "ch"], ids=["ac-symmetric", "ch-symmetric"])
def test_band_kernel_matches_dense_on_model_jacobians(kind):
    rng = np.random.default_rng(17)
    mirrored = 0
    for n_cells in (4, 20, 100, 800):
        grid = GridSpec(n_cells)
        model = model_by_kind(kind, grid)
        for eps in (0.05, 0.1, 0.3, 0.7):
            states = (
                np.zeros(grid.n_nodes),
                0.9 * np.tanh(grid.nodes / eps),
                rng.uniform(-1.2, 1.2, grid.n_nodes),
            )
            for state in states:
                jac = model.jacobian(state, ModelParams(epsilon=eps))
                # An even or odd state's Jacobian is its own mirror: two blocks.
                split = linalg._own_mirror(linalg._tridiagonal_band(jac))
                mirrored += split
                for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL):
                    band = lu_factor(jac, pivot_rtol=rtol)
                    dense = dense_factor(jac, rtol)
                    assert isinstance(band, ParityLuFactorization if split else BandLuFactorization)
                    assert det_sign(band) == det_sign(dense), f"N={n_cells} eps={eps}"
                    assert band.singular == dense.singular
                    if band.singular:
                        continue
                    b = rng.standard_normal(grid.n_nodes)
                    x_band, x_dense = lu_solve(band, b), lu_solve(dense, b)
                    assert np.max(np.abs(x_band - x_dense)) <= 1e-9 * np.max(np.abs(x_dense))
    assert mirrored == 32  # the zero and tanh states


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
    assert det_sign(fact) == 0
    with pytest.raises(SingularMatrixError):
        lu_solve(fact, np.ones(3))
    # A zero first column: zero pivot, no swap, no elimination.
    zero_col = tridiagonal([0.0, 2.0], [0.0, 3.0, 4.0], [1.0, 5.0])
    assert lu_factor(zero_col, pivot_rtol=0.0).singular
    assert det_sign(lu_factor(zero_col, pivot_rtol=0.0)) == 0


def test_band_pivot_floor_matches_dense():
    a = np.diag([1.0, 1e-300])
    assert isinstance(lu_factor(a), BandLuFactorization)
    assert lu_factor(a).singular and not lu_factor(a, pivot_rtol=0.0).singular
    assert det_sign(lu_factor(a, pivot_rtol=0.0)) == 1
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
    # Finite entries whose row sum overflows: the same ValueError, with no
    # RuntimeWarning before it (the suite makes one an error).
    plain = BandBorder(band=np.array([[0.0, 1e308, 1e308], [1.0, 4.0, 1.0], [1.0, 4.0, 0.0]]), kl=1)
    bordered = plain.bordered(np.ones(3), np.ones(3), 1.0)
    own_mirror = BandBorder(band=np.full((3, 3), 1e308), kl=1)  # the parity blocks' floor
    for system in (plain, bordered, own_mirror):
        with pytest.raises(ValueError, match="non-finite"):
            lu_factor(system)


def test_lu_solve_takes_one_right_hand_side():
    """A matrix of stacked right-hand sides, or a vector of the wrong length, raises."""
    rng = np.random.default_rng(8)
    n = 10
    tri = tridiagonal(rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1))
    system = BandBorder.from_dense(tri).bordered(rng.standard_normal(n), rng.standard_normal(n), 1.0)
    facts = [
        (lu_factor(rng.standard_normal((n, n))), LuFactorization, n),
        (lu_factor(tri), BandLuFactorization, n),
        (lu_factor(system), BorderedLuFactorization, n + 1),
    ]
    for fact, kind, m in facts:
        assert isinstance(fact, kind) and not fact.singular
        assert lu_solve(fact, np.ones(m)).shape == (m,)
        for rhs in (np.ones((m, 1)), np.ones((m, 3)), np.ones((m, 0)), np.ones(m - 1), np.ones(m + 1), 1.0):
            with pytest.raises(ValueError):
                lu_solve(fact, rhs)


def test_band_floor_is_the_max_row_sum_and_mirror_invariant():
    """The floor of an unbordered tridiagonal band, dense or in band storage.

    Each row sums ``|sub| + |sup|`` first and then ``|diag|``, so ``J`` and
    its mirror ``P J P`` get the same floor bit for bit.
    """
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 7, 40):
        for _ in range(40):
            sub, diag, sup = (rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m) for m in (n - 1, n, n - 1))
            a = tridiagonal(sub, diag, sup)
            rows = [
                ((abs(sub[i - 1]) if i else 0.0) + (abs(sup[i]) if i < n - 1 else 0.0)) + abs(diag[i])
                for i in range(n)
            ]
            for rtol in (linalg.DEFAULT_PIVOT_RTOL, 1e-3):
                expected = rtol * max(rows)
                for matrix in (a, a[::-1, ::-1]):
                    band = np.zeros((n, 3))
                    band[1:, 0] = np.diagonal(matrix, -1)
                    band[:, 1] = np.diagonal(matrix)
                    band[:-1, 2] = np.diagonal(matrix, 1)
                    for given in (matrix, BandBorder(band=band, kl=1)):
                        fact = lu_factor(given, pivot_rtol=rtol)
                        assert isinstance(fact, BandLuFactorization)
                        assert fact.pivot_floor == expected, f"n={n}"


def test_band_solve_is_reflection_equivariant_bitwise():
    """solve(J, P b) == P solve(J, b) exactly for a band J equal to its mirror P J P, P the order reversal.

    Bit for bit where ``b`` has no zero, by value for the right-hand sides
    that are even or odd by value only.  Own-mirror bands of even order,
    which no AC/CH grid has, are not split and solve top-down
    (``test_bands_outside_the_parity_split_solve_top_down_bitwise``).
    """
    rng = np.random.default_rng(23)
    cases = [tridiagonal(*_self_mirror_band(rng, n)) for n in (1, 3, 5, 101) for _ in range(3)]
    grid = GridSpec(100)
    model = model_by_kind("ac", grid)
    odd = rng.uniform(-1.0, 1.0, grid.n_nodes)
    odd = 0.5 * (odd - odd[::-1])
    cases.append(model.jacobian(odd, ModelParams(epsilon=0.08)))
    for a in cases:
        n = a.shape[0]
        assert np.array_equal(a, a[::-1, ::-1])
        fact = lu_factor(a)
        assert isinstance(fact, ParityLuFactorization) or n == 1
        for b in (*rng.standard_normal((3, n)), *_parity_cases(rng, n)):
            x, y = lu_solve(fact, b), lu_solve(fact, b[::-1].copy())
            assert np.array_equal(y, x[::-1]), f"n={n}"
            assert 0.0 in b or y.tobytes() == x[::-1].tobytes(), f"n={n}"


def test_band_mirror_is_factored_on_first_solve_only(monkeypatch):
    # A band that is not its own mirror is eliminated once, by lu_factor;
    # neither the first solve nor any later one factors its mirror.
    factored = []
    band_factor = linalg._band_factor

    def counting_band_factor(*args, **kwargs):
        factored.append(args)
        return band_factor(*args, **kwargs)

    monkeypatch.setattr(linalg, "_band_factor", counting_band_factor)
    a = tridiagonal([1.0, -2.0, 0.5], [3.0, 1.0, 4.0, -1.0], [0.25, 2.0, 1.0])
    fact = lu_factor(a)
    assert weakref.ref(fact)() is fact
    assert det_sign(fact) == int(np.linalg.slogdet(a)[0])
    assert len(factored) == 1 and isinstance(fact, BandLuFactorization)  # sign-only use pays for one elimination
    x = lu_solve(fact, np.ones(4))
    assert len(factored) == 1
    assert np.array_equal(lu_solve(fact, np.ones(4)), x)
    assert len(factored) == 1
    assert np.max(np.abs(a @ x - 1.0)) <= 1e-13


def test_band_solve_falls_back_to_top_down_when_only_the_mirror_is_floored():
    # No swaps either way and det = 1e-13: the last pivot is det/0.5
    # top-down but det/1 mirrored, so a floor of 1.5e-13 flags only the
    # mirrored elimination; the solve is the top-down one bit for bit.
    a = np.array([[0.5, 1.0], [0.5, 1.0 + 2e-13]])
    fact = lu_factor(a, pivot_rtol=1e-13)
    assert not fact.singular and isinstance(fact, BandLuFactorization)
    mirror = linalg._band_factor(([1.0], [1.0 + 2e-13, 0.5], [0.5]), fact.pivot_floor)
    assert mirror.singular
    x = lu_solve(fact, np.array([1.0, 2.0]))
    assert x.tobytes() == np.array(linalg._band_solve(fact, [1.0, 2.0])).tobytes()


def test_band_that_is_not_its_own_mirror_solves_top_down_with_one_elimination(monkeypatch):
    factored = []
    band_factor = linalg._band_factor

    def counting_band_factor(*args, **kwargs):
        factored.append(args)
        return band_factor(*args, **kwargs)

    monkeypatch.setattr(linalg, "_band_factor", counting_band_factor)
    rng = np.random.default_rng(29)
    grid = GridSpec(40)
    cases = [tridiagonal([1.0, -2.0, 0.5], [3.0, 1.0, 4.0, -1.0], [0.25, 2.0, 1.0]),
             np.array([[0.5, 1.0], [0.5, 1.0 + 2e-13]]),  # det 1e-13: the mirrored elimination's last pivot is floored
             model_by_kind("ac", grid).linearize(np.tanh(grid.nodes / 0.2 + 0.1), ModelParams(epsilon=0.2))]
    cases += [tridiagonal(rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1))
              for n in (2, 3, 10, 101)]
    for matrix in cases:
        factored.clear()
        fact = lu_factor(matrix, pivot_rtol=1e-13)
        assert isinstance(fact, BandLuFactorization) and not fact.singular
        n = len(fact.pivots)
        for b in (np.ones(n), rng.standard_normal(n)):
            assert lu_solve(fact, b).tobytes() == np.array(linalg._band_solve(fact, b.tolist())).tobytes()
        assert len(factored) == 1


def _band_border(sub, diag, sup):
    """The tridiagonal ``(sub, diag, sup)`` as an unbordered ``BandBorder``, its entries' bits kept."""
    return BandBorder(band=np.column_stack((np.r_[0.0, sub], diag, np.r_[sup, 0.0])), kl=1)


def _self_mirror_band(rng, n):
    """Random tridiagonal ``(sub, diag, sup)`` arrays equal to their mirror bit for bit."""
    sub = rng.standard_normal(n - 1)
    diag = rng.standard_normal(n)
    diag[n - 1 - np.arange(n // 2)] = diag[: n // 2]
    return sub, diag, sub[::-1].copy()


def _parity_cases(rng, n):
    """Right-hand sides: general, even and odd, and even and odd by value only (zeros of both signs)."""
    half = n // 2
    lo, hi = np.arange(half), n - 1 - np.arange(half)
    even, odd = rng.standard_normal(n), rng.standard_normal(n)
    even[hi], odd[hi] = even[lo], -odd[lo]
    if n % 2:
        odd[half] = 0.0
    cases = [rng.standard_normal(n), even, odd, -even, -odd, np.zeros(n), -np.zeros(n)]
    if n >= 4:
        zeros_even, zeros_odd = even.copy(), odd.copy()
        zeros_even[[0, 1]], zeros_even[[-1, -2]] = 0.0, -0.0  # even by value, not bitwise
        zeros_odd[0], zeros_odd[-1] = 0.0, 0.0  # odd by value, not bitwise
        general = rng.standard_normal(n)
        general[[0, -1]] = -0.0, 0.0
        cases += [zeros_even, zeros_odd, general]
    return cases


def test_own_mirror_band_solves_with_one_elimination_as_the_mirrored_one_would(monkeypatch):
    # lu_factor eliminates nothing on an own-mirror band of odd order
    # n = 2m + 1.  An even right-hand side (by value) factors the even block
    # alone, of order m + 1, an odd one the odd block alone, of order m, and
    # any other both; each on the full band's floor, once per factorization.
    # The solution is exactly even or odd with the right-hand side, and
    # agrees with the whole band's top-down solve to rounding.
    rng = np.random.default_rng(2022)
    orders = _block_orders(monkeypatch)
    singles = 0
    for n in (3, 5, 101):
        m = n // 2
        for _ in range(4):
            sub, diag, sup = _self_mirror_band(rng, n)
            for given in (tridiagonal(sub, diag, sup), _band_border(sub, diag, sup)):
                system = BandBorder.from_dense(given) if isinstance(given, np.ndarray) else given
                whole = full_band_factor(system)
                for b in _parity_cases(rng, n):
                    orders.clear()
                    fact = lu_factor(given)
                    assert isinstance(fact, ParityLuFactorization) and not orders
                    got = lu_solve(fact, b)
                    if _is_even(b):
                        want = [(m + 1, whole.pivot_floor)]
                        assert _is_even(got)
                    elif _is_odd(b):
                        want = [(m, whole.pivot_floor)]
                        assert _is_odd(got)
                    else:
                        want = [(m + 1, whole.pivot_floor), (m, whole.pivot_floor)]
                    assert orders == want, f"n={n}, b={b}"
                    singles += len(orders) == 1
                    assert np.array_equal(lu_solve(fact, b), got) and orders == want  # nothing factored again
                    ref = np.array(linalg._band_solve(whole, b.tolist()))
                    assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
    assert singles > 100  # the even and odd right-hand sides take one block


def test_own_mirror_counts_signed_zeros():
    sub, diag, sup = np.array([1.0, 0.0, 0.0, 2.0]), np.array([3.0, -0.0, 5.0, -0.0, 3.0]), np.array([2.0, 0.0, 0.0, 1.0])
    assert isinstance(lu_factor(_band_border(sub, diag, sup)), ParityLuFactorization)
    for band in ((sub, np.array([3.0, 0.0, 5.0, -0.0, 3.0]), sup),
                 (np.array([1.0, -0.0, 0.0, 2.0]), diag, sup),
                 (sub, diag, np.array([2.0, 0.0, 0.0, 1.5]))):
        assert isinstance(lu_factor(_band_border(*band)), BandLuFactorization)
    grid = GridSpec(40)
    model = model_by_kind("ac", grid)
    params = ModelParams(epsilon=0.2)
    odd = np.tanh(grid.nodes / 0.2)
    odd = 0.5 * (odd - odd[::-1])
    assert isinstance(lu_factor(model.linearize(odd, params)), ParityLuFactorization)
    assert isinstance(lu_factor(model.linearize(np.linspace(-0.3, 0.5, grid.n_nodes), params)), BandLuFactorization)


def _parity_parts(v):
    """The exactly even and exactly odd parts of ``v``."""
    return 0.5 * (v + v[::-1]), 0.5 * (v - v[::-1])


def _is_even(v):
    return np.array_equal(v, v[::-1])


def _is_odd(v):
    return np.array_equal(v, -v[::-1])


def _block_orders(monkeypatch):
    """Spy on ``linalg._band_factor``: the list of the orders it factors, with their pivot floors."""
    orders, band_factor = [], linalg._band_factor

    def spy(band, floor, *args, **kwargs):
        orders.append((len(band[1]), floor))
        return band_factor(band, floor, *args, **kwargs)

    monkeypatch.setattr(linalg, "_band_factor", spy)
    return orders


@pytest.mark.parametrize("n_cells", [4, 40, 100, 200, 800])
def test_solve_once_on_a_parity_block_agrees_with_the_full_solve(n_cells, monkeypatch):
    # AC and CH Jacobians at exactly even and odd states are their own mirror;
    # an even or odd right-hand side is solved once, on its block of order
    # m + 1 or m alone, and the result is exactly even or odd.  The full
    # solve is the whole band's, top-down.  Both solves are backward
    # stable (residual within 10 u here), so they differ by rounding times
    # the condition number kappa, which grows like N^2: within 1e-13
    # relative up to N = 100, within 4 u kappa at every N.
    grid = GridSpec(n_cells)
    n, m = grid.n_nodes, grid.n_nodes // 2
    x = grid.nodes
    even, odd = _parity_parts(0.8 - 1.6 * x * x)[0], _parity_parts(0.9 * x / np.sqrt(x * x + 0.01))[1]
    cases = [("ac", 0.0, even), ("ac", 0.0, odd), ("ch", 0.0, even), ("ch", 0.0, odd), ("ch", 0.05, 0.05 + even)]
    rng = np.random.default_rng(n_cells)
    orders = _block_orders(monkeypatch)
    for kind, mu0, state in cases:
        model = model_by_kind(kind, grid)
        for epsilon in (0.1, 0.3):
            params = ModelParams(epsilon=epsilon, mu0=mu0)
            system = model.linearize(state, params)
            dense = system.to_dense()
            norm = np.max(np.sum(np.abs(dense), axis=1))
            kappa = norm * np.max(np.sum(np.abs(np.linalg.inv(dense)), axis=1))
            even_case, odd_case = (_is_even, m + 1), (_is_odd, m)
            r_even, r_odd = _parity_parts(rng.standard_normal(n))
            newton = (-model.residual(state, params), *(odd_case if state is odd else even_case))
            for b, is_parity, order in ((r_even, *even_case), (r_odd, *odd_case), newton):
                assert is_parity(b)
                full = full_band_factor(system)
                want = np.array(linalg._band_solve(full, b.tolist()))
                orders.clear()
                got = lu_solve(lu_factor(system), b)
                assert orders == [(order, full.pivot_floor)], f"{kind} mu0={mu0} eps={epsilon}"
                assert is_parity(got)
                gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert gap <= 4.0 * np.finfo(float).eps * kappa
                assert n_cells > 100 or gap <= 1e-13
                assert np.max(np.abs(b - dense @ got)) <= 10.0 * np.finfo(float).eps * norm * np.max(np.abs(got))


def test_bands_outside_the_parity_split_solve_top_down_bitwise():
    # A band off its mirror by one signed zero, and an own-mirror band of
    # even order (no AC/CH grid has one), are factored whole and solved
    # top-down; bordered systems (the pseudo-arclength one, ACOK's band) go
    # through the bordered kernel.
    rng = np.random.default_rng(30)
    grid = GridSpec(40)
    n = grid.n_nodes
    x = grid.nodes
    ac = model_by_kind("ac", grid)
    system = ac.linearize(_parity_parts(np.tanh(x / 0.2))[1], ModelParams(epsilon=0.2))
    assert isinstance(lu_factor(system), ParityLuFactorization)
    sub, diag, sup = _self_mirror_band(rng, 9)
    diag[1], diag[-2] = 0.0, -0.0
    sub2, diag2, sup2 = _self_mirror_band(rng, 10)
    for whole in (_band_border(sub, diag, sup), _band_border(sub2, diag2, sup2)):
        fact = lu_factor(whole)
        assert isinstance(fact, BandLuFactorization)
        for b in (*_parity_parts(rng.standard_normal(len(whole))), rng.standard_normal(len(whole))):
            assert lu_solve(fact, b).tobytes() == np.array(linalg._band_solve(fact, b.tolist())).tobytes()
    assert isinstance(lu_factor(system.bordered(np.ones(n), np.ones(n), 0.0)), BorderedLuFactorization)
    # ACOK's augmented band splits only where it is its own pair mirror: not
    # at a state without that symmetry, nor with a caller's border added.
    acok = model_by_kind("acok", grid).engine()
    acok_params = ModelParams(epsilon=0.3, gamma=300.0)
    for state in (np.zeros(n), *_parity_parts(0.4 * np.cos(np.pi * x) + 0.3 * np.sin(np.pi * x))):
        system = acok.linearize(state, acok_params)
        assert isinstance(lu_factor(system), ParityLuFactorization)
        assert isinstance(lu_factor(system.bordered(np.ones(n), np.ones(n), 0.0)), BorderedLuFactorization)
    lopsided = acok.linearize(0.4 * np.cos(np.pi * x) + 0.3 * np.sin(np.pi * x), acok_params)
    assert isinstance(lu_factor(lopsided), BorderedLuFactorization)


def _odd_singular_band(offset=0.0):
    """An own mirror band of order 5 whose odd block ``[[1, 1], [1, 1 + offset]]`` is singular at offset 0.

    Its even block ``[[1, 1, 0], [1, 1 + offset, 3], [0, 4, 5]]`` has det
    ``5 offset - 12``.
    """
    sub, diag = np.array([1.0, 2.0, 3.0, 1.0]), np.array([1.0, 1.0 + offset, 5.0, 1.0 + offset, 1.0])
    return _band_border(sub, diag, sub[::-1].copy())


def test_parity_solve_on_a_regular_block_of_a_singular_band():
    # Exactly singular, and with the odd block's pivot 2^-44 under the
    # floor 1e-12 * 9 (the full band's): either way the factorization is
    # flagged singular with det sign 0, an even right-hand side solves, and
    # an odd one, or one with an odd part, raises.
    b_even, b_odd = np.array([1.0, 2.0, 3.0, 2.0, 1.0]), np.array([1.0, 2.0, 0.0, -2.0, -1.0])
    for offset in (0.0, 2.0**-44):
        system = _odd_singular_band(offset)
        fact = lu_factor(system)
        assert fact.singular and det_sign(fact) == 0 and log_abs_det(fact) == -math.inf
        assert full_band_factor(system).singular
        got = lu_solve(lu_factor(system), b_even)
        assert _is_even(got)
        residual = system.to_dense() @ got - b_even
        assert np.max(np.abs(residual)) <= (0.0 if offset == 0.0 else 1e-15)
        for b in (b_odd, b_even + b_odd):
            with pytest.raises(SingularMatrixError):
                lu_solve(lu_factor(system), b)


def test_off_band_nonzero_takes_dense_path():
    grid = GridSpec(20)
    model = model_by_kind("ac", grid)
    params = ModelParams(epsilon=0.2)
    state = 0.5 * np.tanh(grid.nodes / 0.2)
    jac = model.jacobian(state, params)
    assert isinstance(lu_factor(jac), ParityLuFactorization)  # an odd state: its own mirror
    assert isinstance(lu_factor(model.jacobian(state + 0.1, params)), BandLuFactorization)
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
        nb, kl, ku, k = (int(v) for v in rng.integers((1, 0, 0, 0), (25, 3, 3, 3)))
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
        x = np.column_stack([lu_solve(fact, col) for col in b.T])
        assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))
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
        assert det_sign(lu_factor(laplacian_matrix(grid), pivot_rtol=0.0)) == 0
        for sign in (1.0, -1.0):
            assert_bordered_matches_numpy(neumann_system(grid, sign), rng)
        f = np.cos(np.pi * grid.nodes)
        ref = np.linalg.solve(neumann_system(grid).to_dense(), np.append(f, 0.0))[:-1]
        u = poisson_neumann_solve(f, grid)
        assert np.max(np.abs(u - ref)) <= BORDERED_RTOL * np.max(np.abs(ref))


def test_bordered_kernel_on_acok_at_zero_gamma():
    rng = np.random.default_rng(13)
    grid = GridSpec(100)
    model = model_by_kind("acok", grid)
    params = ModelParams(epsilon=0.3, gamma=0.0)
    for state in (np.full(grid.n_nodes, 0.5), 0.5 + 0.3 * np.tanh(grid.nodes / 0.1)):
        lin = model.linearize(state, params)
        # Without the nonlocal term the band block holds the Neumann
        # Laplacian uncoupled: an exactly zero pivot.
        band_only = BandBorder(band=lin.band, kl=lin.kl)
        assert det_sign(lu_factor(band_only, pivot_rtol=0.0)) == 0
        for orientation in (1.0, -1.0):  # the border column either way round
            full = BandBorder(band=lin.band, kl=lin.kl, cols=orientation * lin.cols, rows=lin.rows,
                              corner=lin.corner)
            assert_bordered_matches_numpy(full, rng)
        # The visible system is the Jacobian itself.
        jac = model.jacobian(state, params)
        assert det_sign(lu_factor(lin)) == int(np.linalg.slogdet(jac)[0])
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
    assert det_sign(lu_factor(jac, pivot_rtol=0.0)) == 0
    tangent = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for orientation in (1.0, -1.0):
        system = BandBorder.from_dense(jac).bordered(np.array([1.0, 0.0]), orientation * tangent / 2.0, 0.0)
        for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL):
            assert_bordered_matches_numpy(system, rng, pivot_rtol=rtol)


def test_bordered_kernel_matches_dense_on_acok_jacobians():
    rng = np.random.default_rng(23)
    for n_cells in (4, 20, 100, 800):
        grid = GridSpec(n_cells)
        model = model_by_kind("acok", grid)
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


def acok_crossing(m, grid, epsilon):
    """Closed-form gamma at which cosine mode ``m`` crosses zero on ``phi = 1/2``.

    The mode is an exact eigenvector of ``A``, ``B`` and ``G`` (eigenvalues
    ``-a``, ``b = 1 - h^2 a / 12`` and ``1/a``) and ``W''(1/2) = -18``, so
    the Jacobian's eigenvalue ``-eps a + 18 b / eps - gamma b^2 / a``
    vanishes at the returned gamma.
    """
    a = (4.0 / grid.h**2) * math.sin(m * math.pi * grid.h / 4.0) ** 2
    b = 1.0 - grid.h**2 * a / 12.0
    return a * (18.0 * b / epsilon - epsilon * a) / (b * b)


def _acok_symmetric_states(grid):
    """An R-even and an R-odd ACOK state in u, built without transcendental functions."""
    x = grid.nodes
    return 0.9 - 1.6 * x * x * (1.0 - 0.4 * x * x), 0.7 * x * (1.0 - 0.5 * x * x)


@pytest.mark.parametrize("n_cells", [20, 100, 200])
def test_acok_correction_factors_only_the_block_of_its_parity(n_cells, monkeypatch):
    # A Newton correction at an exactly R-even state (residual R-even too)
    # factors the even block alone: pairs 0 .. m with the border; one at an
    # R-odd state the odd block alone: pairs 0 .. m - 1, no border, so no
    # Schur block and no transposed solve.  Each correction is the whole
    # system's to rounding and has its parity exactly.
    grid = GridSpec(n_cells)
    model = model_by_kind("acok", grid).engine()
    params = ModelParams(epsilon=0.3, gamma=300.0)
    m = n_cells // 2
    factored, transposed = [], []
    bordered_factor, solve_t = linalg._bordered_factor, linalg._band_lu_solve_t

    def spy(system, *args, **kwargs):
        factored.append((system.band.shape[0], system.k))
        return bordered_factor(system, *args, **kwargs)

    monkeypatch.setattr(linalg, "_bordered_factor", spy)
    monkeypatch.setattr(linalg, "_band_lu_solve_t", lambda *a: transposed.append(1) or solve_t(*a))
    for parity, state in enumerate(_acok_symmetric_states(grid)):
        factored.clear()
        transposed.clear()
        residual = model.residual(state, params)
        assert np.array_equal(residual[::-1], -residual if parity else residual)
        system = model.linearize(state, params)
        step = lu_solve(lu_factor(system), -residual)
        assert factored == [(2 * m + 2, 1)] if parity == 0 else [(2 * m, 0)]
        assert len(transposed) == (0 if parity else 1)
        assert np.array_equal(step[::-1], -step if parity else step)
        whole = lu_solve(full_band_factor(system), -residual)
        assert np.max(np.abs(step - whole)) <= 1e-11 * np.max(np.abs(whole))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_acok_singular_block_of_the_other_parity_does_not_stop_a_solve(m):
    # At a closed-form crossing on u = 0 the block of the crossing mode's
    # parity (odd for odd m, the sine family) is flagged singular.  A
    # right-hand side of the other parity is solved on the other block; one
    # of the crossing's parity, or of both, raises.
    grid = GridSpec(40)
    model = model_by_kind("acok", grid).engine()
    params = ModelParams(epsilon=0.3, gamma=acok_crossing(m, grid, 0.3))
    fact = lu_factor(model.linearize(np.zeros(grid.n_nodes), params))
    singular = m % 2
    assert fact.block(singular).singular and not fact.block(1 - singular).singular
    assert fact.singular and det_sign(fact) == 0
    parts = _parity_parts(np.random.default_rng(m).standard_normal(grid.n_nodes))
    x = lu_solve(fact, parts[1 - singular])
    assert np.max(np.abs(model.jacobian(np.zeros(grid.n_nodes), params) @ x - parts[1 - singular])) <= 1e-9
    for b in (parts[singular], parts[0] + parts[1]):
        with pytest.raises(SingularMatrixError):
            lu_solve(fact, b)


def refined_solve(matrix, rhs, sweeps=4):
    """``numpy.linalg.solve`` refined ``sweeps`` times with ``longdouble`` residuals."""
    x = np.linalg.solve(matrix, rhs)
    wide = matrix.astype(np.longdouble)
    for _ in range(sweeps):
        residual = rhs.astype(np.longdouble) - wide @ x.astype(np.longdouble)
        x = x + np.linalg.solve(matrix, residual.astype(float))
    return x


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("offset", [1e-6, 1e-9])
def test_acok_solve_next_to_a_crossing_is_accurate(m, offset):
    # Next to a crossing J is nearly singular (condition number about 2e11
    # at m = 1 and the 1e-9 offset), so the forward error is about that
    # times the backward error: the test bounds both.
    grid = GridSpec(200)
    model = model_by_kind("acok", grid)
    state = np.full(grid.n_nodes, 0.5)
    params = ModelParams(epsilon=0.3, gamma=(1.0 + offset) * acok_crossing(m, grid, 0.3))
    jac = model.jacobian(state, params)
    rhs = np.random.default_rng(97).standard_normal(grid.n_nodes)
    ref = refined_solve(jac, rhs)
    x = lu_solve(lu_factor(model.linearize(state, params)), rhs)
    forward = np.max(np.abs(x - ref)) / np.max(np.abs(ref))
    assert forward <= 1e-4, f"forward error {forward:.2e}"
    backward = np.max(np.abs(jac @ x - rhs)) / (
        np.max(np.sum(np.abs(jac), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    assert backward <= 1e-14, f"backward error {backward:.2e}"


def test_bordered_tridiagonal_band_takes_the_tridiagonal_kernel(monkeypatch):
    monkeypatch.setattr(linalg, "_band_lu", None)  # any call would fail
    grid = GridSpec(40)
    fact = lu_factor(neumann_system(grid))
    assert isinstance(fact.band, BandLuFactorization) and fact.band.boosts
    assert (fact.solve, fact.solve_t) == (linalg._band_solve, linalg._band_solve_t)
    assert_bordered_matches_numpy(neumann_system(grid), np.random.default_rng(41))


# The Neumann problem's solve at N=100, recorded before bordered tridiagonal
# bands left the general band kernel.  Its one BLAS call, the mean check's
# dot product, only gates, so the bytes depend on no BLAS kernel.
_NEUMANN_SOLVE_N100_SHA256 = "58c4fd10bc1fe046ecf78f23450bd641719f852fdd9fbf7acd23b309f7061bfb"


def test_neumann_solve_is_pinned_bitwise():
    grid = GridSpec(100)
    f = np.cos(np.pi * grid.nodes) + 0.3 * np.sin(3.0 * grid.nodes)
    u = poisson_neumann_solve(f, grid)
    assert hashlib.sha256(u.tobytes()).hexdigest() == _NEUMANN_SOLVE_N100_SHA256


def float_lu_solve(packed, perm, b):
    """Forward and back substitution through packed LU factors on Python
    floats, each dot product summed left to right from 0.0."""
    x = [b[p] for p in perm]
    k = len(x)
    for i in range(k):
        s = 0.0
        for j in range(i):
            s += packed[i][j] * x[j]
        x[i] -= s
    for i in range(k - 1, -1, -1):
        s = 0.0
        for j in range(i + 1, k):
            s += packed[i][j] * x[j]
        x[i] = (x[i] - s) / packed[i][i]
    return x


def bordered_pin_systems():
    """One bordered system per use of the bordered path, built without
    numpy's transcendental functions (their SIMD paths differ by CPU)."""
    grid = GridSpec(100)
    n, x = grid.n_nodes, grid.nodes
    t = 1.0 - 2.0 * x * x
    ac, ac_params = model_by_kind("ac", grid), ModelParams(epsilon=0.3)
    phi = 0.8 * x / np.sqrt(x * x + 0.09)
    acok = model_by_kind("acok", grid)
    psi = 0.5 + 0.3 * x / np.sqrt(x * x + 0.01)
    lin = acok.linearize(psi, ModelParams(epsilon=0.3, gamma=100.0))
    # At gamma = 0 the band holds the Neumann Laplacian uncoupled: one boost.
    lin0 = acok.linearize(psi, ModelParams(epsilon=0.3, gamma=0.0))
    col = 0.01 * x * (1.0 - x * x)
    rng = np.random.default_rng(53)
    band = rng.standard_normal((30, 3))
    band[:, 1] += 4.0 * np.sign(band[:, 1])
    band[0, 0] = band[-1, 2] = 0.0
    for i in (7, 19):  # a zero row and column each: A has nullity 2
        band[i] = 0.0
        band[i - 1, 2] = band[i + 1, 0] = 0.0
    return {
        "ac-arclength": ac.linearize(phi, ac_params).bordered(ac.param_derivative(phi, ac_params), t / n, 0.3),
        "acok-linearize": lin,
        "acok-arclength": lin.bordered(col, t / n, 0.3 / 700.0**2),
        "acok-arclength-boosted": lin0.bordered(col, t / n, 0.3 / 700.0**2),
        "boosted-twice": BandBorder(band=band, kl=1, cols=rng.standard_normal((30, 2)),
                                    rows=rng.standard_normal((2, 30)), corner=rng.standard_normal((2, 2))),
        "neumann": _neumann_system(grid)[0],
    }


# Per system: the Schur block's order k (boosts included), det_sign,
# log_abs_det(...).hex(), pivot_floor.hex(), singular, and the sha256 of
# one solve, recorded before the bordered path stopped converting between
# numpy arrays and lists around its kernels.  A k >= 3 Schur solve then
# went through BLAS dot products, whose bits depend on the CPU's kernel
# (the k = 4 solve below read b9298c2c... under OpenBLAS's SkylakeX kernel
# and 619e9d73... under Prescott), so those two hashes are float_lu_solve's.
# Every other value held under the SkylakeX, Haswell, Sandybridge and
# Prescott kernels and without numpy's AVX2 and AVX-512 paths.  The three
# ACOK rows are those of the kl = ku = 2 linearization.
_BORDERED_PINS = {
    "ac-arclength": (1, -1, "0x1.8aaa9ef15e7d4p+9", "0x1.58a0692f27f1dp-27", False,
                     "da21f5b097b531cc149526c4a470a20d8c3b23eb07ce923dd627fc7f295e2ed2"),
    "acok-linearize": (1, 1, "0x1.6e16cbba2eb36p+10", "0x1.57aa85bc89f18p-27", False,
                       "2bf2905701b275ab46392ca3e53966c728537dc001744b5802a4a174abc1cab7"),
    "acok-arclength": (2, 1, "0x1.6a833409537f4p+10", "0x1.57aa85bc89f18p-27", False,
                       "3db626b6f758cd3cb5384f66d306baf3ee3bc8685d7e25f3e74f02660dd09671"),
    "acok-arclength-boosted": (3, -1, "0x1.68c9ad75f9204p+10", "0x1.57aa85bc89f18p-27", False,
                               "d394b0a41e4db67dfa8b1baa49c87493681a3157ae8959efff5aafd4fb0b9873"),
    "boosted-twice": (4, -1, "0x1.5cf49882e0ef4p+5", "0x1.f96406e712141p-36", False,
                      "f1dfaecf3f34380c46f6c2a0bb08639c54a2a1d50b6d8c530f3535aa0445e2f6"),
    "neumann": (2, -1, "0x1.8a8b6b5351bf5p+9", "0x1.57a1b9efc95a9p-27", False,
                "7cf7935b18a51629a62d84777815b9ba666edca3eabd27714d81566242e377db"),
}


@pytest.mark.parametrize("name", sorted(_BORDERED_PINS))
def test_bordered_path_is_pinned_bitwise(name):
    system = bordered_pin_systems()[name]
    k, sign, log_det, floor, singular, digest = _BORDERED_PINS[name]
    fact = lu_factor(system)
    assert len(fact.cols) == k
    assert (det_sign(fact), log_abs_det(fact).hex(), fact.pivot_floor.hex(), fact.singular) == (
        sign, log_det, floor, singular)
    b = np.random.default_rng(59).standard_normal(len(system))
    u = lu_solve(fact, b)
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest
    assert np.array_equal(lu_solve(fact, b), u)  # the second solve reuses the first's transposed side


def test_schur_floor_is_the_max_row_sum_over_the_extended_borders():
    # The floor comes from the caller's border arrays plus a closed form for
    # each boost's unit row; it must be the formula over the extended border
    # lists bit for bit.
    rng = np.random.default_rng(67)
    systems = list(bordered_pin_systems().values())
    for _ in range(300):
        nb, k = int(rng.integers(3, 30)), int(rng.integers(1, 4))
        band = random_tridiagonal_band(rng, nb)
        band[rng.integers(nb)] = 0.0  # a zero row: a boost
        systems.append(BandBorder(band=band, kl=1, cols=rng.standard_normal((nb, k)),
                                  rows=10.0 ** rng.uniform(-4.0, 2.0) * rng.standard_normal((k, nb)),
                                  corner=rng.standard_normal((k, k))))
    boosted = 0
    for system in systems:
        for rtol in (0.0, linalg.DEFAULT_PIVOT_RTOL, 1e-3):
            fact = lu_factor(system, pivot_rtol=rtol)
            terms = np.sum(np.abs(fact.corner), axis=1) + np.sum(
                np.abs(fact.rows) * np.sum(np.abs(fact.right), axis=0), axis=1)
            assert fact.schur_floor == rtol * float(np.max(terms)), system
            boosted += len(fact.cols) > system.k
    assert boosted >= 300


def test_schur_solve_is_the_left_to_right_float_solve():
    # BLAS kernels round dot products of length 2 and up differently: the
    # numpy solve this replaced gave other bits than this reference in 164
    # of the 1,000 3x3 and 386 of the 1,000 4x4 solves here under OpenBLAS's
    # SkylakeX kernel, in 121 of the 4x4 ones under Prescott, and in none
    # under Haswell or Sandybridge.  The Schur solve is the reference on
    # every CPU, and for k <= 2 (single-product dots) it is that numpy solve.
    rng = np.random.default_rng(61)
    solved = 0
    for k in (1, 2, 3, 4) * 1000:
        block = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-4.0, 4.0, (k, k))
        lu = linalg._schur_factor(block.tolist(), [[]] * k, [[]] * k)
        if lu.singular:
            continue
        b = (rng.standard_normal(k) * 10.0 ** rng.uniform(-4.0, 4.0, k)).tolist()
        got = linalg._schur_solve(lu, b)
        assert [v.hex() for v in got] == [v.hex() for v in float_lu_solve(lu.packed, lu.perm, b)]
        if k <= 2:
            dense = LuFactorization(packed=np.array(lu.packed), perm=np.array(lu.perm), perm_sign=lu.perm_sign,
                                    singular=False, pivot_floor=0.0)
            assert np.array_equal(linalg._dense_solve(dense, np.array(b)), got)
        assert np.allclose(block @ got, b, rtol=1e-6, atol=1e-6 * np.max(np.abs(block)) * np.max(np.abs(got)))
        solved += 1
    assert solved == 4000


# ---------------------------------------------------------------------------
# band kernels in bordered use (reference: the list-based dgbtf2-style band
# LU below, which both must reproduce value for value)
# ---------------------------------------------------------------------------


def reference_band_lu(system, boost_floor, boost):
    """Band LU with partial pivoting inside the band, for any ``kl`` and ``ku``.

    Row ``i`` is held as a list over columns ``i - kl .. i + kl + ku``: the
    band plus the fill the interchanges leave, so an interchange of rows
    ``j`` and ``p`` shifts both lists by ``p - j``.  The first strictly
    largest entry of column ``j`` pivots; a pivot of magnitude
    ``<= boost_floor`` is boosted by ``+-boost`` and listed as ``(original
    row, step, delta)``; zero multipliers and updates by zero ``U`` entries
    are skipped.  ``mults[j]`` and ``tails[j]`` stop at the matrix's edge.
    """
    kl, ku = system.kl, system.ku
    nb = system.band.shape[0]
    width = 2 * kl + ku + 1
    padded = np.zeros((nb + kl, width))  # with zero rows below the matrix
    padded[:nb, : kl + ku + 1] = system.band
    work = padded.tolist()
    origin = list(range(nb))
    pivots, tails, mults, swaps = [0.0] * nb, [None] * nb, [None] * nb, list(range(nb))
    boosts = []
    sign = 1
    below = [(t, kl - t) for t in range(1, kl + 1)]  # (row offset, index of column j)
    for j in range(nb):
        prow = work[j]
        p, best = j, abs(prow[kl])
        for t, at in below:
            v = abs(work[j + t][at])
            if v > best:
                p, best = j + t, v
        if p != j:
            d = p - j
            other = work[p]
            work[p] = prow[d:] + [0.0] * d
            prow = work[j] = [0.0] * d + other[: width - d]
            origin[j], origin[p] = origin[p], origin[j]
            sign = -sign
            swaps[j] = p
        piv = prow[kl]
        if abs(piv) <= boost_floor:
            delta = -boost if piv < 0.0 else boost
            boosts.append((origin[j], j, delta))
            piv = piv + delta
        tail = prow[kl + 1 :]
        ms = []
        for t, at in below:
            row = work[j + t]
            a = row[at]
            if a == 0.0:
                ms.append(0.0)
                continue
            f = a / piv
            ms.append(f)
            c = at + 1
            for y in tail:
                if y != 0.0:
                    row[c] -= f * y
                c += 1
        pivots[j], tails[j], mults[j] = piv, tail, ms
        work[j] = None
    # Drop what lies right of or below the matrix.
    for j in range(max(0, nb - kl - ku), nb):
        tails[j] = tails[j][: nb - 1 - j]
    for j in range(max(0, nb - kl), nb):
        mults[j] = mults[j][: nb - 1 - j]
    return SimpleNamespace(pivots=pivots, tails=tails, mults=mults, swaps=swaps, perm_sign=sign, boosts=boosts)


def reference_band_lu_solve(fact, x):
    """``A^-1 x`` through ``reference_band_lu``'s factors, in place."""
    for j, p in enumerate(fact.swaps):
        if p != j:
            x[j], x[p] = x[p], x[j]
        xj = x[j]
        if xj != 0.0:
            i = j + 1
            for f in fact.mults[j]:
                if f != 0.0:
                    x[i] -= f * xj
                i += 1
    tails, pivots = fact.tails, fact.pivots
    for j in range(len(x) - 1, -1, -1):
        v = x[j]
        c = j + 1
        for y in tails[j]:
            if y != 0.0:
                v -= y * x[c]
            c += 1
        x[j] = v / pivots[j]
    return x


def reference_band_lu_solve_t(fact, x):
    """``A^-T x`` through ``reference_band_lu``'s factors, in place."""
    for j, (piv, tail) in enumerate(zip(fact.pivots, fact.tails)):
        xj = x[j] = x[j] / piv
        if xj != 0.0:
            c = j + 1
            for y in tail:
                if y != 0.0:
                    x[c] -= y * xj
                c += 1
    for j in range(len(x) - 1, -1, -1):
        v = x[j]
        i = j + 1
        for f in fact.mults[j]:
            if f != 0.0:
                v -= f * x[i]
            i += 1
        x[j] = v
        p = fact.swaps[j]
        if p != j:
            x[j], x[p] = x[p], x[j]
    return x


def bits(values, length=None):
    """``float.hex`` of each value, padded with zeros to ``length``."""
    out = [v.hex() for v in values]
    return out + [(0.0).hex()] * ((length or len(out)) - len(out))


def assert_band_lu_is_the_reference(system, boost_floor, boost, rng):
    """``_band_lu`` and both its solves against the reference, bit for bit.

    Returns the numbers of boosts and interchanges.
    """
    nb = len(system.band)
    got = linalg._band_lu(system, boost_floor, boost)
    want = reference_band_lu(system, boost_floor, boost)
    assert (got.swaps, got.perm_sign, got.boosts) == (want.swaps, want.perm_sign, want.boosts)
    assert bits(got.pivots) == bits(want.pivots)
    assert [bits(t) for t in got.tails] == [bits(t, 4) for t in want.tails]
    assert [bits(m) for m in got.mults] == [bits(m, 2) for m in want.mults]
    b = rng.standard_normal(nb)
    b[rng.random(nb) < 0.25] = 0.0
    b[rng.random(nb) < 0.1] = -0.0
    for rhs in (b.tolist(), np.eye(nb)[rng.integers(nb)].tolist()):
        x, x_t = linalg._band_lu_solve(got, rhs), linalg._band_lu_solve_t(got, rhs)
        assert [v.hex() for v in x] == [v.hex() for v in reference_band_lu_solve(want, list(rhs))]
        assert [v.hex() for v in x_t] == [v.hex() for v in reference_band_lu_solve_t(want, list(rhs))]
    return len(want.boosts), sum(p != j for j, p in enumerate(want.swaps))


def boost_scale(band):
    """``_bordered_factor``'s boost: the band's max row sum (1.0 for a zero band)."""
    return float(np.max(np.sum(np.abs(band), axis=1))) or 1.0


def test_band_lu_is_the_reference_kernel_bitwise_on_random_bands():
    # Every storage entry is drawn, so the band carries junk outside A,
    # which the reference drops only at the end.
    rng = np.random.default_rng(71)
    boosts = swaps = 0
    for _ in range(1200):
        nb, kl, ku = (int(v) for v in rng.integers((1, 0, 0), (31, 3, 3)))
        band = rng.choice([-1.0, 1.0], (nb, kl + ku + 1)) * 10.0 ** rng.uniform(-3.0, 3.0, (nb, kl + ku + 1))
        band[rng.random(band.shape) < 0.25] = 0.0
        band[rng.random(band.shape) < 0.05] = -0.0
        scale = boost_scale(band)
        for boost_floor in (0.0, linalg._BOOST_RTOL * scale, 0.3 * scale):
            b, s = assert_band_lu_is_the_reference(BandBorder(band=band, kl=kl), boost_floor, scale, rng)
            boosts, swaps = boosts + b, swaps + s
    assert boosts >= 10000 and swaps >= 10000


def acok_states(grid):
    """Constant and non-constant ACOK states, built without numpy's transcendental functions."""
    x = grid.nodes
    return (
        np.full(grid.n_nodes, 0.5),
        0.5 + 0.3 * x / np.sqrt(x * x + 0.01),
        0.5 + 0.45 * (1.0 - 8.0 * x * x * (1.0 - x * x)),
        0.98 - 0.96 * x * x,
    )


def test_band_lu_is_the_reference_kernel_bitwise_on_acok_linearizations():
    # States built without numpy's transcendental functions (their SIMD
    # paths differ by CPU): constants interchange at almost every step.
    grid = GridSpec(100)
    model = model_by_kind("acok", grid)
    states = acok_states(grid)
    rng = np.random.default_rng(73)
    boosts = swaps = 0
    for gamma in (0.0, 146.2, 700.0, 3000.0):
        for epsilon in (0.1, 0.3):
            for state in states:
                system = model.linearize(state, ModelParams(epsilon=epsilon, gamma=gamma))
                scale = boost_scale(system.band)
                for boost_floor in (0.0, linalg._BOOST_RTOL * scale, 0.3 * scale):
                    b, s = assert_band_lu_is_the_reference(system, boost_floor, scale, rng)
                    boosts, swaps = boosts + b, swaps + s
    assert boosts >= 1000 and swaps >= 5000


@pytest.mark.parametrize("kl, ku, k", [(4, 3, 1), (3, 4, 0), (0, 5, 2), (6, 0, 0)])
def test_lu_factor_rejects_a_band_wider_than_three(kl, ku, k):
    rng = np.random.default_rng(79)
    system = BandBorder(band=rng.standard_normal((12, kl + ku + 1)), kl=kl, cols=rng.standard_normal((12, k)),
                        rows=rng.standard_normal((k, 12)), corner=rng.standard_normal((k, k)))
    with pytest.raises(ValueError, match=f"kl={kl}, ku={ku}"):
        lu_factor(system)


@pytest.mark.parametrize("kl, ku", [(3, 0), (0, 3), (3, 2), (2, 3), (3, 3)])
def test_lu_factor_rejects_three_sub_or_superdiagonals(kl, ku):
    # The band LU holds a 3-row by 5-column window: kl, ku <= 2.
    rng = np.random.default_rng(83)
    system = BandBorder(band=rng.standard_normal((12, kl + ku + 1)), kl=kl, cols=rng.standard_normal((12, 1)),
                        rows=rng.standard_normal((1, 12)), corner=rng.standard_normal((1, 1)))
    with pytest.raises(ValueError, match=f"at most 2 sub- and superdiagonals, got kl={kl}, ku={ku}"):
        lu_factor(system)


def random_tridiagonal_band(rng, n):
    """Row-wise band with 25 % exact zeros and magnitudes from 1e-3 to 1e3."""
    band = rng.choice([-1.0, 1.0], (n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 3))
    band[rng.random((n, 3)) < 0.25] = 0.0
    band[0, 0] = band[-1, 2] = 0.0
    return band


def assert_tridiagonal_kernel_is_the_general_one(band, boost_floor, boost, rng):
    """Factors and both solves of ``_band_factor`` in boost mode against the reference band LU's.

    Returns the numbers of boosts and interchanges.
    """
    n = len(band)
    general = reference_band_lu(BandBorder(band=band, kl=1), boost_floor, boost)
    tri = linalg._band_factor(linalg._diagonals(band), boost_floor, boost)
    assert not tri.singular
    assert tri.pivots == general.pivots
    assert [[m] for m in tri.lower] + [[]] == general.mults
    u_rows = [tri.upper[j:j + 1] + tri.upper2[j:j + 1] for j in range(n)]
    assert u_rows == general.tails
    assert [j + 1 if s else j for j, s in enumerate(tri.swapped)] + [n - 1] == general.swaps
    assert tri.perm_sign == general.perm_sign
    assert tri.boosts == general.boosts
    for b in (rng.standard_normal(n).tolist(), np.eye(n)[rng.integers(n)].tolist()):
        assert linalg._band_solve(tri, b) == reference_band_lu_solve(general, list(b))
        assert linalg._band_solve_t(tri, b) == reference_band_lu_solve_t(general, list(b))
    return len(tri.boosts), sum(tri.swapped)


def test_tridiagonal_kernel_in_boost_mode_is_the_general_band_kernel():
    rng = np.random.default_rng(43)
    bands = [random_tridiagonal_band(rng, n) for n in range(1, 13) for _ in range(60)]
    # Exact zero pivots: a zero band, and a zero main diagonal.
    bands += [np.zeros((n, 3)) for n in (1, 2, 5)]
    bands += [np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])]
    boosts = swaps = 0
    for band in bands:
        scale = boost_scale(band)
        for boost_floor in (linalg._BOOST_RTOL * scale, 1e-2 * scale):
            b, s = assert_tridiagonal_kernel_is_the_general_one(band, boost_floor, scale, rng)
            boosts, swaps = boosts + b, swaps + s
    assert boosts >= 1000 and swaps >= 2000
    # The Neumann Laplacian is exactly singular: its last pivot is boosted.
    for n_cells in (4, 10, 100):
        band = _laplacian_band(GridSpec(n_cells))
        scale = boost_scale(band)
        b, _ = assert_tridiagonal_kernel_is_the_general_one(band, linalg.DEFAULT_PIVOT_RTOL * scale, scale, rng)
        assert b == 1


def reference_band_factor(band, floor, boost=None):
    """``_band_factor`` as it indexed lists on every row: the reference for the kernel that holds them in locals."""
    sub, diag, sup = band
    n = len(diag)
    d = list(diag)
    du = list(sup)
    lower = [0.0] * max(n - 1, 0)
    upper2 = [0.0] * max(n - 2, 0)
    swapped = [False] * max(n - 1, 0)
    boosts = []
    sign = 1
    singular = False
    for k in range(n - 1):
        piv = d[k]
        below = sub[k]
        mag, mag_below = abs(piv), abs(below)
        if mag_below > mag:
            if mag_below <= floor:
                if boost is None:
                    singular = True
                else:
                    below += linalg._boosted(boosts, k + 1, k, below, boost)
            swapped[k] = True
            sign = -sign
            mult = piv / below
            d[k], du[k], d[k + 1] = below, d[k + 1], du[k] - mult * d[k + 1]
            if k + 2 < n:
                upper2[k] = du[k + 1]
                du[k + 1] = 0.0 - mult * upper2[k]
            lower[k] = mult
        else:
            if mag <= floor:
                if boost is None:
                    singular = True
                    if piv == 0.0:
                        continue
                else:
                    piv = d[k] = piv + linalg._boosted(boosts, linalg._origin(swapped, k), k, piv, boost)
            mult = below / piv
            d[k + 1] -= mult * du[k]
            lower[k] = mult
    if n and abs(d[n - 1]) <= floor:
        if boost is None:
            singular = True
        else:
            d[n - 1] += linalg._boosted(boosts, linalg._origin(swapped, n - 1), n - 1, d[n - 1], boost)
    return SimpleNamespace(lower=lower, pivots=d, upper=du, upper2=upper2, swapped=swapped,
                           perm_sign=sign, singular=singular, boosts=boosts)


def reference_band_solve(fact, b):
    """``_band_solve`` as it indexed the solution list on every row."""
    x = list(b)
    n = len(x)
    for k, (mult, swap) in enumerate(zip(fact.lower, fact.swapped)):
        if swap:
            x[k], x[k + 1] = x[k + 1], x[k]
        x[k + 1] -= mult * x[k]
    d, du, du2 = fact.pivots, fact.upper, fact.upper2
    if n:
        x[n - 1] /= d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for k in range(n - 3, -1, -1):
        x[k] = (x[k] - du[k] * x[k + 1] - du2[k] * x[k + 2]) / d[k]
    return x


def reference_band_solve_t(fact, b):
    """``_band_solve_t`` as it indexed the solution list on every row."""
    x = list(b)
    n = len(x)
    d, du, du2 = fact.pivots, fact.upper, fact.upper2
    if n:
        x[0] /= d[0]
    if n > 1:
        x[1] = (x[1] - du[0] * x[0]) / d[1]
    for k in range(2, n):
        x[k] = (x[k] - du2[k - 2] * x[k - 2] - du[k - 1] * x[k - 1]) / d[k]
    for k in range(n - 2, -1, -1):
        x[k] -= fact.lower[k] * x[k + 1]
        if fact.swapped[k]:
            x[k], x[k + 1] = x[k + 1], x[k]
    return x


def test_tridiagonal_kernels_in_locals_are_the_list_indexing_ones_bitwise():
    # Random bands with exact and signed zeros, pivot ties and zero columns,
    # unboosted (floors 0 and pivot_rtol-sized: zero pivots are skipped and
    # flagged) and boosted (every pivot on or below the floor).
    rng = np.random.default_rng(107)
    bands = [random_tridiagonal_band(rng, n) for n in range(1, 16) for _ in range(40)]
    bands += [rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], (n, 3)) for n in range(1, 16) for _ in range(40)]
    bands += [np.zeros((n, 3)) for n in (1, 2, 5)]
    singular = boosts = swaps = 0
    for band in bands:
        diagonals = tuple(d.tolist() for d in linalg._diagonals(band))
        scale = boost_scale(band)
        for floor, boost in ((0.0, None), (1e-2 * scale, None), (linalg._BOOST_RTOL * scale, scale),
                             (1e-2 * scale, scale)):
            got, want = linalg._band_factor(diagonals, floor, boost), reference_band_factor(diagonals, floor, boost)
            for name in ("lower", "pivots", "upper", "upper2"):
                assert bits(getattr(got, name)) == bits(getattr(want, name)), name
            assert (got.swapped, got.perm_sign, got.singular, got.boosts) == (
                want.swapped, want.perm_sign, want.singular, want.boosts)
            singular, boosts, swaps = singular + got.singular, boosts + len(got.boosts), swaps + sum(got.swapped)
            if got.singular:
                continue
            n = len(band)
            rhs = rng.standard_normal(n)
            rhs[rng.random(n) < 0.2] = 0.0
            rhs[rng.random(n) < 0.1] = -0.0
            for b in (rhs.tolist(), np.eye(n)[rng.integers(n)].tolist()):
                assert bits(linalg._band_solve(got, b)) == bits(reference_band_solve(want, b))
                assert bits(linalg._band_solve_t(got, b)) == bits(reference_band_solve_t(want, b))
    assert singular >= 1000 and boosts >= 3000 and swaps >= 10000


def test_scalar_schur_factor_is_the_dense_kernel_step_for_step():
    rng = np.random.default_rng(47)
    blocks = []
    for k in (1, 2, 3):
        for _ in range(600):
            blocks.append(rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-8.0, 8.0, (k, k)))
            # Small integers: ties for the pivot, and exactly singular blocks.
            blocks.append(rng.integers(-2, 3, (k, k)).astype(float))
            blocks.append(np.outer(rng.integers(-3, 4, k), rng.integers(-3, 4, k)).astype(float))
    singular = 0
    for block in blocks:
        k = len(block)
        got = linalg._schur_factor(block.tolist(), [[]] * k, [[]] * k)
        want = linalg._dense_factor(block.copy(), 0.0)
        assert np.array_equal(got.packed, want.packed), block
        assert np.array_equal(got.perm, want.perm), block
        assert (got.perm_sign, got.singular) == (want.perm_sign, want.singular), block
        singular += got.singular
    assert singular >= 500


# ---------------------------------------------------------------------------
# log|det| read off the factorization
# ---------------------------------------------------------------------------


def assert_log_abs_det_matches_slogdet(matrix, full, pivot_rtol=0.0):
    """``matrix`` factored as given against numpy's slogdet of ``full``."""
    fact = lu_factor(matrix, pivot_rtol=pivot_rtol)
    ref = np.linalg.slogdet(full)[1]
    assert abs(log_abs_det(fact) - ref) <= 1e-10 * max(1.0, abs(ref))
    return fact


def test_log_abs_det_matches_slogdet_on_tridiagonal_band_and_dense():
    rng = np.random.default_rng(29)
    for n in (3, 10, 200, 800):
        dense = tridiagonal(rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1))
        for matrix in (BandBorder.from_dense(dense), dense):
            fact = assert_log_abs_det_matches_slogdet(matrix, dense)
            assert isinstance(fact, BandLuFactorization)


def test_log_abs_det_matches_slogdet_on_random_band_with_borders_and_dense():
    rng = np.random.default_rng(31)
    for _ in range(100):
        nb, kl, ku, k = (int(v) for v in rng.integers((1, 0, 0, 0), (25, 3, 3, 3)))
        system = BandBorder(
            band=rng.standard_normal((nb, kl + ku + 1)), kl=kl,
            cols=rng.standard_normal((nb, k)), rows=rng.standard_normal((k, nb)),
            corner=rng.standard_normal((k, k)),
        )
        full = system.to_dense()
        for matrix in (system, full):
            assert_log_abs_det_matches_slogdet(matrix, full, pivot_rtol=linalg.DEFAULT_PIVOT_RTOL)


def test_log_abs_det_counts_a_boosted_zero_band_pivot_once():
    # A = diag(0, 2, 3) has an exactly zero first pivot; the border makes
    # the full matrix regular (det = -6).  The boost enters the band pivots
    # and its border's Schur pivot takes it back out.
    system = BandBorder(band=np.array([[0.0], [2.0], [3.0]]), kl=0,
                        cols=np.array([[1.0], [0.0], [0.0]]), rows=np.array([[1.0, 0.0, 0.0]]),
                        corner=np.array([[0.0]]))
    fact = assert_log_abs_det_matches_slogdet(system, system.to_dense())
    assert len(fact.cols) == system.k + 1  # one border per boost
    assert log_abs_det(fact) == pytest.approx(np.log(6.0), rel=1e-15)


def test_log_abs_det_of_a_singular_factorization_is_minus_infinity():
    fact = lu_factor(tridiagonal([1.0], [1.0, 1.0], [1.0]), pivot_rtol=0.0)
    assert fact.singular and det_sign(fact) == 0
    assert log_abs_det(fact) == -np.inf


def test_log_abs_det_on_acok_linearizations_is_the_jacobian_s_up_to_a_constant():
    # The visible system is the Jacobian; the factorization also holds the
    # hidden Poisson block, whose log|det| is the same at every gamma and
    # state.  Detection compares log|det| only along one branch, so that
    # constant drops out.
    for n_cells in (20, 100):
        grid = GridSpec(n_cells)
        model = model_by_kind("acok", grid)
        x = grid.nodes
        offsets = []
        for gamma in (0.0, 100.0, 3000.0):
            params = ModelParams(epsilon=0.3, gamma=gamma)
            for state in (np.full(grid.n_nodes, 0.5), 0.5 + 0.3 * np.tanh(x / 0.1)):
                lin = model.linearize(state, params)
                fact = assert_log_abs_det_matches_slogdet(lin, lin.to_dense())
                sign, log_jac = np.linalg.slogdet(model.jacobian(state, params))
                assert det_sign(fact) == int(sign)
                offsets.append(log_abs_det(fact) - log_jac)
        assert max(offsets) - min(offsets) <= 1e-9 * max(1.0, abs(offsets[0]))


# ---------------------------------------------------------------------------
# band_det_pass: many systems' det signs and log|det| in one vectorized pass
# ---------------------------------------------------------------------------


def scalar_det_bits(system):
    """``(det_sign, float.hex(log_abs_det))`` of ``lu_factor(system, 0.0)``: the pass's reference."""
    fact = lu_factor(system, pivot_rtol=0.0)
    return det_sign(fact), log_abs_det(fact).hex()


def full_band_det_bits(system):
    """``scalar_det_bits`` of the whole band (``full_band_factor``), own mirror or not."""
    fact = full_band_factor(system, pivot_rtol=0.0)
    return det_sign(fact), log_abs_det(fact).hex()


def pass_det_bits(systems):
    """``band_det_pass`` over ``systems`` (drawn from a generator), each result as ``scalar_det_bits`` gives it."""
    got = linalg.band_det_pass((s for s in systems), len(systems))
    assert len(got) == len(systems)
    return [None if r is None else (r[0], r[1].hex()) for r in got]


@pytest.mark.parametrize("n_cells", [20, 100, 200])
def test_band_det_pass_is_lu_factor_bitwise_on_acok_linearizations(n_cells):
    # The pass eliminates the whole system, where lu_factor splits one that
    # is its own pair mirror (the constant and the even states here) into
    # its parity blocks (the same sign: the next test), so its reference is
    # the whole system's elimination by lu_factor's kernel.
    grid = GridSpec(n_cells)
    model = model_by_kind("acok", grid)
    gammas = np.linspace(0.37, 3000.0, 41)
    signs = set()
    for epsilon in (0.1, 0.3):
        for state in acok_states(grid):
            systems = [model.linearize(state, ModelParams(epsilon=epsilon, gamma=g)) for g in gammas]
            want = [full_band_det_bits(s) for s in systems]
            assert pass_det_bits(systems) == want
            assert [scalar_det_bits(s)[0] for s in systems] == [sign for sign, _ in want]
            signs |= {sign for sign, _ in want}
    assert signs == {-1, 1}


@pytest.mark.parametrize("n_cells", [20, 100, 200, 800])
def test_parity_blocks_give_the_whole_system_det_sign_at_acok_constant_states(n_cells):
    # det M is the product of the blocks' dets.  At pivot_rtol = 0 the
    # blocks' det sign (times hidden_sign) is the whole system's _band_lu +
    # Schur det sign and band_det_pass's, at the three constant states
    # across gamma in [0, 3000], and within 1e-6 ... 1e-12 relative of each
    # closed-form crossing on u = 0, where the det is closest to zero.
    grid = GridSpec(n_cells)
    model = model_by_kind("acok", grid).engine()
    crossings = [acok_crossing(m, grid, 0.3) for m in range(1, n_cells + 1)]
    crossings = [c for c in crossings if 0.0 < c <= 3000.0]
    checked = set()
    for level in (-1.0, 0.0, 1.0):
        across = [*np.linspace(0.0, 3000.0, 31)]
        close = [c * (1.0 + side * rel) for c in crossings for side in (-1.0, 1.0) for rel in (1e-6, 1e-8, 1e-10, 1e-12)]
        gammas = across + (close if level == 0.0 else [])
        systems = [model.linearize(np.full(grid.n_nodes, level), ModelParams(epsilon=0.3, gamma=g)) for g in gammas]
        passed = pass_det_bits(systems)
        for gamma, system, in_pass in zip(gammas, systems, passed):
            fact = lu_factor(system, pivot_rtol=0.0)
            assert isinstance(fact, ParityLuFactorization)
            whole = full_band_factor(system, pivot_rtol=0.0)
            assert det_sign(fact) == det_sign(whole), f"u={level} gamma={gamma!r}"
            assert in_pass is None or in_pass[0] == det_sign(whole), f"u={level} gamma={gamma!r}"
            if gamma in across and gamma > 0.0:
                assert abs(log_abs_det(fact) - log_abs_det(whole)) <= 1e-9 * abs(log_abs_det(whole))
            checked.add((level, det_sign(whole)))
    assert checked == {(-1.0, -1), (0.0, -1), (0.0, 1), (1.0, -1)}


def test_band_det_pass_is_lu_factor_bitwise_on_random_bordered_bands():
    # Entries over six decades, about one in eight zero (some -0.0): the
    # pivot moves at most steps, the skipped updates are exercised, and a
    # band with a zero column comes back None.
    rng = np.random.default_rng(83)
    swaps = boosted = kept = 0
    for kl, ku in ((1, 2), (2, 1), (2, 2)):
        for k in (1, 2):
            for _ in range(4):
                nb = int(rng.integers(1, 40))
                systems = []
                for _ in range(24):
                    band = rng.choice([-1.0, 1.0], (nb, kl + ku + 1)) * 10.0 ** rng.uniform(-3.0, 3.0, (nb, kl + ku + 1))
                    band[rng.random(band.shape) < 0.1] = 0.0
                    band[rng.random(band.shape) < 0.03] = -0.0
                    outer = np.sort(rng.choice(nb + k, size=nb, replace=False)) if rng.random() < 0.5 else None
                    systems.append(BandBorder(
                        band=band, kl=kl, cols=rng.standard_normal((nb, k)), rows=rng.standard_normal((k, nb)),
                        corner=rng.standard_normal((k, k)), outer=outer, hidden_sign=int(rng.choice([-1, 1])),
                    ))
                got = pass_det_bits(systems)
                for system, result in zip(systems, got):
                    fact = lu_factor(system, pivot_rtol=0.0)
                    swaps += sum(p != j for j, p in enumerate(fact.band.swaps))
                    if fact.band.boosts:
                        assert result is None
                        boosted += 1
                    else:
                        assert result == scalar_det_bits(system)
                        kept += 1
    assert swaps >= 5000 and boosted >= 30 and kept >= 400


def test_band_det_pass_breaks_pivot_ties_as_the_band_lu_does():
    # Entries from a few values tie the pivot candidates at many steps: the
    # first of the largest pivots, and another choice moves the bits.
    rng = np.random.default_rng(103)
    for kl, ku in ((1, 2), (2, 1), (2, 2)):
        for _ in range(4):
            systems = [BandBorder(band=rng.choice([-3.0, -1.0, 0.5, 1.0, 3.0], (30, kl + ku + 1)), kl=kl,
                                  cols=rng.choice([-1.0, 1.0, 2.0], (30, 1)), rows=rng.choice([-1.0, 1.0, 2.0], (1, 30)),
                                  corner=np.array([[0.5]])) for _ in range(20)]
            got = pass_det_bits(systems)
            assert sum(r is not None for r in got) >= 15
            assert got == [r if r is None else scalar_det_bits(s) for s, r in zip(systems, got)]


def test_band_det_pass_leaves_a_band_that_needs_a_boost_to_lu_factor():
    # At gamma = 0 the Poisson rows of ACOK's band decouple, and their
    # Neumann block is singular: _band_lu boosts a pivot.
    grid = GridSpec(40)
    model = model_by_kind("acok", grid)
    state = np.full(grid.n_nodes, 0.5)
    systems = [model.linearize(state, ModelParams(epsilon=0.3, gamma=g)) for g in (0.0, 100.0, 0.0, 250.0)]
    assert [bool(full_band_factor(s, pivot_rtol=0.0).band.boosts) for s in systems] == [True, False, True, False]
    got = pass_det_bits(systems)
    assert got[0] is None and got[2] is None
    assert [got[1], got[3]] == [full_band_det_bits(systems[1]), full_band_det_bits(systems[3])]


def test_band_det_pass_leaves_a_non_finite_system_to_lu_factor():
    rng = np.random.default_rng(89)
    systems = [BandBorder(band=rng.standard_normal((12, 5)), kl=2, cols=rng.standard_normal((12, 1)),
                          rows=rng.standard_normal((1, 12)), corner=rng.standard_normal((1, 1))) for _ in range(4)]
    systems[1].band[3, 2] = np.nan
    systems[2].rows[0, 5] = np.inf
    got = pass_det_bits(systems)
    assert got[1] is None and got[2] is None
    assert [got[0], got[3]] == [scalar_det_bits(systems[0]), scalar_det_bits(systems[3])]
    for system in systems[1:3]:
        with pytest.raises(ValueError, match="non-finite"):
            lu_factor(system, pivot_rtol=0.0)


def test_band_det_pass_signs_an_exactly_singular_schur_block_zero():
    # A diagonal band (kl = ku = 2 storage) with cols = d0 e0, rows = e0^T
    # and corner 1: A^-1 cols = e0 exactly, so the Schur block is 1 - 1 = 0.
    rng = np.random.default_rng(97)
    systems = []
    for singular in (True, False, True):
        band = np.zeros((9, 5))
        band[:, 2] = rng.uniform(1.0, 2.0, 9)
        cols = np.zeros((9, 1))
        cols[0, 0] = band[0, 2]
        rows = np.zeros((1, 9))
        rows[0, 0] = 1.0
        systems.append(BandBorder(band=band, kl=2, cols=cols, rows=rows,
                                  corner=np.array([[1.0 if singular else 3.0]])))
    want = [scalar_det_bits(s) for s in systems]
    assert want[0] == want[2] == (0, (-math.inf).hex()) and want[1][0] == 1
    assert pass_det_bits(systems) == want


def test_band_det_pass_results_do_not_depend_on_how_the_systems_are_split():
    grid = GridSpec(60)
    model = model_by_kind("acok", grid)
    state = acok_states(grid)[1]
    systems = [model.linearize(state, ModelParams(epsilon=0.3, gamma=g)) for g in np.linspace(1.0, 2000.0, 70)]
    whole = pass_det_bits(systems)
    assert whole == [scalar_det_bits(s) for s in systems]
    for size in (1, 7, 32, 69):
        assert sum((pass_det_bits(systems[i:i + size]) for i in range(0, len(systems), size)), []) == whole


def ac_ch_states(grid):
    """Constant and non-constant AC/CH states, built without numpy's transcendental functions."""
    x = grid.nodes
    return (
        np.zeros(grid.n_nodes),
        np.full(grid.n_nodes, -1.0),
        np.full(grid.n_nodes, -0.05),
        0.9 * x / np.sqrt(x * x + 0.01),
        0.8 - 1.6 * x * x,
    )


@pytest.mark.parametrize("n_cells", [20, 100, 200, 800])
def test_band_det_pass_is_lu_factor_bitwise_on_ac_and_ch_linearizations(n_cells):
    # The AC and CH Jacobians are plain tridiagonal bands, each its own
    # mirror at a constant state: the tridiagonal pass takes them.  The pass
    # eliminates the whole band, where lu_factor splits an own-mirror one
    # into its parity blocks (the same sign: the next test), so its
    # reference is the whole band's elimination by lu_factor's kernel.
    grid = GridSpec(n_cells)
    signs = set()
    for kind, mu0 in (("ac", 0.0), ("ch", 0.05)):
        model = model_by_kind(kind, grid)
        for state in ac_ch_states(grid):
            systems = [model.linearize(state, ModelParams(epsilon=e, mu0=mu0)) for e in np.linspace(0.05, 0.7, 41)]
            assert linalg.pass_size(systems[0], len(systems)) == len(systems)
            want = [full_band_det_bits(s) for s in systems]
            assert pass_det_bits(systems) == want
            signs |= {sign for sign, _ in want}
    assert signs == {-1, 1}


@pytest.mark.parametrize("n_cells", [20, 100, 200, 800])
def test_parity_blocks_give_the_whole_band_det_sign_at_ac_and_ch_constant_states(n_cells):
    # det J is the product of the blocks' dets.  At pivot_rtol = 0 the
    # blocks' det sign is the whole band's elimination's (band_det_pass's),
    # across the window and within 1e-6 ... 1e-12 relative of each
    # closed-form crossing, where the det is closest to zero.
    grid = GridSpec(n_cells)
    crossings = [b.param_value for b in ac_bifurcations_in_range(0.05, 0.7)]
    checked = set()
    for kind, mu0 in (("ac", 0.0), ("ch", 0.05)):
        model = model_by_kind(kind, grid)
        near = crossings if mu0 == 0.0 else [
            ch_bifurcation(b.mode_index, b.mode_family, mu0).param_value for b in ac_bifurcations_in_range(0.05, 0.7)]
        across = [*np.linspace(0.05, 0.7, 27)]
        close = [c * (1.0 + side * rel) for c in near for side in (-1.0, 1.0) for rel in (1e-6, 1e-8, 1e-10, 1e-12)]
        for eps in across + close:
            params = ModelParams(epsilon=eps, mu0=mu0)
            roots = ch_trivial_roots(params)
            level = roots.values[roots.middle_index] if mu0 else 0.0
            system = model.linearize(np.full(grid.n_nodes, level), params)
            fact = lu_factor(system, pivot_rtol=0.0)
            assert isinstance(fact, ParityLuFactorization)
            whole = full_band_factor(system, pivot_rtol=0.0)
            assert det_sign(fact) == det_sign(whole), f"{kind} eps={eps!r}"
            if eps in across:  # next to a crossing log|det| is that of a pivot cancelled to a few digits
                assert abs(log_abs_det(fact) - log_abs_det(whole)) <= 1e-9 * abs(log_abs_det(whole))
            checked.add((kind, det_sign(whole)))
    assert checked == {("ac", -1), ("ac", 1), ("ch", -1), ("ch", 1)}


def test_tridiagonal_pass_is_lu_factor_bitwise_on_random_bands_however_split():
    # Entries over six decades or from a few values (pivot ties), with exact
    # and signed zeros; junk (NaN too) outside the matrix, which lu_factor
    # never reads; exactly singular bands, at the first pivot or later; and
    # bands lu_factor refuses: a NaN or inf entry, or a row sum that
    # overflows.  Each result is lu_factor's, or None where it raises.
    rng = np.random.default_rng(109)
    for nb in (1, 2, 3, 17, 60):
        systems = []
        for i in range(90):
            if i % 3:
                band = rng.choice([-1.0, 1.0], (nb, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (nb, 3))
            else:
                band = rng.choice([-2.0, -1.0, 1.0, 2.0], (nb, 3))
            band[rng.random((nb, 3)) < 0.15] = 0.0
            band[rng.random((nb, 3)) < 0.05] = -0.0
            band[0, 0], band[-1, 2] = rng.choice([np.nan, 7.0, -0.0]), rng.choice([np.inf, 3.0])
            r = int(rng.integers(nb))
            if i % 10 == 1:  # a zero column
                band[r, 1] = 0.0
                if r > 0:
                    band[r - 1, 2] = 0.0
                if r + 1 < nb:
                    band[r + 1, 0] = 0.0
            elif i % 10 == 2:
                band[r, 1] = rng.choice([np.nan, np.inf, -np.inf])
            elif i % 10 == 3:
                band[r] = [1e308, 1e308, 1e308]
            systems.append(BandBorder(band=band, kl=1))
        want = []
        for system in systems:
            try:
                want.append(scalar_det_bits(system))
            except ValueError:
                want.append(None)
        whole = pass_det_bits(systems)
        assert whole == want
        if nb > 1:
            assert sum(w is None for w in want) >= 18 and sum(w == (0, (-math.inf).hex()) for w in want) >= 9
            assert {w[0] for w in want if w} == {-1, 0, 1}
        for size in (1, 7, 40, 89):
            assert sum((pass_det_bits(systems[i:i + size]) for i in range(0, len(systems), size)), []) == whole


def test_pass_size_takes_passes_by_band_width_and_count_within_the_byte_budget(monkeypatch):
    def acok(n_cells):
        grid = GridSpec(n_cells)
        return model_by_kind("acok", grid).linearize(np.full(grid.n_nodes, 0.5), ModelParams(epsilon=0.3, gamma=1.0))

    def ac(n_cells):
        grid = GridSpec(n_cells)
        return model_by_kind("ac", grid).linearize(np.zeros(grid.n_nodes), ModelParams(epsilon=0.3))

    # Plain tridiagonal bands: ac-slice's and ac-arclength's first levels
    # take one pass, ch-scan-n800's 19 probes none.
    assert linalg.pass_size(ac(100), 123) == 123 and linalg.pass_size(ac(100), 91) == 91
    assert linalg.pass_size(ac(800), 19) == 0
    assert linalg.pass_size(ac(100), linalg.MIN_TRIDIAGONAL_PASS_SYSTEMS - 1) == 0
    assert linalg.pass_size(ac(100), linalg.MIN_TRIDIAGONAL_PASS_SYSTEMS) == linalg.MIN_TRIDIAGONAL_PASS_SYSTEMS
    assert linalg.pass_size(ac(1024), 401) == 81  # five passes
    assert linalg.pass_size(ac(4096), 1000) == 0  # 21 fit the byte budget: below the minimum
    bordered = ac(100).bordered(np.ones(101), np.ones(101), 0.0)
    assert linalg.pass_size(bordered, 1000) == 0  # a tridiagonal band with a border: _bordered_factor's
    # Bands _band_lu factors.
    assert linalg.pass_size(acok(100), 141) == 141  # acok-slice's first level: one pass
    assert linalg.pass_size(acok(100), linalg.MIN_PASS_SYSTEMS - 1) == 0
    assert linalg.pass_size(acok(200), 601) == 151  # four passes
    assert linalg.pass_size(acok(1024), 401) == 34  # twelve passes
    assert linalg.pass_size(acok(4096), 21) == linalg.pass_size(acok(2048), 1000) == 0
    monkeypatch.setattr(linalg, "PASS_BYTES", 64 * 1024)
    assert linalg.pass_size(acok(100), 141) == 0  # 5 per pass: below the minimum
    assert linalg.pass_size(ac(100), 123) == 0  # 13 per pass


def test_band_det_pass_rejects_bands_it_does_not_take_and_mixed_shapes():
    rng = np.random.default_rng(101)

    def band(nb, kl, ku):
        return BandBorder(band=rng.standard_normal((nb, kl + ku + 1)), kl=kl, cols=rng.standard_normal((nb, 1)),
                          rows=rng.standard_normal((1, nb)), corner=rng.standard_normal((1, 1)))

    for kl, ku in ((1, 1), (3, 2), (0, 1)):
        with pytest.raises(ValueError, match="kl or ku = 2"):
            linalg.band_det_pass([band(10, kl, ku)], 1)
    for other in (band(11, 2, 2), band(10, 2, 1)):
        with pytest.raises(ValueError, match="share"):
            linalg.band_det_pass([band(10, 2, 2), other], 2)
    plain = BandBorder(band=rng.standard_normal((10, 3)), kl=1)
    for other in (BandBorder(band=rng.standard_normal((11, 3)), kl=1), band(10, 1, 1), band(10, 2, 2)):
        with pytest.raises(ValueError, match="share"):
            linalg.band_det_pass([plain, other], 2)


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
        assert det_sign(lu_factor(jac)) == (-1) ** negatives, f"eps={eps}"


# ---------------------------------------------------------------------------
# null modes at detected events
# ---------------------------------------------------------------------------


def test_null_vector_picks_smallest_eigenvalue_of_diagonal():
    band = np.array([[0.0, 3.0, 0.0], [0.0, 1e-12, 0.0], [0.0, 5.0, 0.0]])
    for matrix in (np.diag(band[:, 1]), BandBorder(band=band, kl=1)):
        v = null_vector(lu_factor(matrix, pivot_rtol=0.0))
        assert np.max(np.abs(v - np.array([0.0, 1.0, 0.0]))) <= 1e-10
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_null_vector_is_bitwise_repeatable():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 30))
    a = a + a.T
    assert np.array_equal(null_vector(lu_factor(a)), null_vector(lu_factor(a)))


def test_null_vector_handles_exactly_singular_matrix():
    """An exactly singular factorization has no solve; the detector moves off
    it instead (see the offset-rule tests below)."""
    fact = lu_factor(np.diag([1.0, 0.0, 2.0]), pivot_rtol=0.0)
    assert fact.singular
    with pytest.raises(SingularMatrixError):
        null_vector(fact)


def _unprojected_null_vector(fact):
    """``null_vector`` by one solve, through both blocks of a parity factorization: scaled and sign-fixed."""
    start = np.random.default_rng(1790).standard_normal(linalg._order(fact))
    w = lu_solve(fact, start / np.linalg.norm(start))
    return linalg._fix_sign(w / np.linalg.norm(w))


def test_null_vector_of_an_own_mirror_band_has_its_parity_exactly():
    # At phi = 0 the AC Jacobian is its own mirror, and the mode crossing at
    # eps = 1/k is sin(k x) (odd) or cos(k x) (even) on the symmetric grid.
    grid = GridSpec(100)
    model = model_by_kind("ac", grid)
    for family, parity in (("sine", -1.0), ("cosine", 1.0)):
        for n in range(family == "cosine", 4):
            eps = ac_bifurcation(n, family).param_value
            fact = lu_factor(model.linearize(np.zeros(grid.n_nodes), ModelParams(epsilon=eps)), pivot_rtol=0.0)
            assert isinstance(fact, ParityLuFactorization)
            v = null_vector(fact)
            assert np.array_equal(v[::-1], parity * v), f"{family} {n}"
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            assert abs(v @ eigenmode(n, family, grid)) >= 1.0 - 1e-6
            # Keeping one block's solve drops only the other's share of the one solve.
            assert np.max(np.abs(v - _unprojected_null_vector(fact))) <= 1e-4


def test_null_vector_projects_only_own_mirror_unbordered_bands():
    rng = np.random.default_rng(31)
    grid = GridSpec(40)
    model = model_by_kind("ac", grid)
    at_zero = model.linearize(np.zeros(grid.n_nodes), ModelParams(epsilon=2.0 / np.pi))
    ones = np.ones(grid.n_nodes)
    centro = rng.standard_normal((6, 6))
    centro = centro + centro[::-1, ::-1]  # its own mirror, but dense
    cases = [
        tridiagonal(rng.standard_normal(9), rng.standard_normal(10), rng.standard_normal(9)),
        model.linearize(np.tanh(grid.nodes / 0.2 + 0.1), ModelParams(epsilon=0.2)),
        at_zero.bordered(ones, ones, 0.0),  # an own-mirror band under a symmetric border
        centro,
    ]
    for matrix in cases:
        fact = lu_factor(matrix, pivot_rtol=0.0)
        assert not isinstance(fact, ParityLuFactorization)
        assert null_vector(fact).tobytes() == _unprojected_null_vector(fact).tobytes()


def test_neumann_laplacian_kernel_is_constant():
    """numpy's SVD finds a one-dimensional kernel, and it is the constant."""
    grid = GridSpec(60)
    _, sigma, vt = np.linalg.svd(laplacian_matrix(grid))
    assert sigma[-1] <= 1e-10 * sigma[0] < sigma[-2]
    kernel = vt[-1] * np.sign(vt[-1][0])
    expected = np.full(grid.n_nodes, 1.0 / np.sqrt(grid.n_nodes))
    assert np.max(np.abs(kernel - expected)) <= 1e-8


def test_null_mode_near_crossing_matches_analytic_eigenmode():
    """The mode detected at an AC crossing is the analytic eigenmode."""
    grid = GridSpec(100)
    model = model_by_kind("ac", grid)
    target = ac_bifurcation(1, "sine")  # eps = 2/(3 pi), alone in the window
    settings = default_settings("ac", param_min=0.19, param_max=0.25)
    (bif,) = detect_bifurcations_on_trivial(
        model, ModelParams(epsilon=0.5), settings, lambda p: np.zeros(grid.n_nodes))
    assert abs(bif.param - target.param_value) <= 1e-3 * target.param_value
    mode = eigenmode(1, "sine", grid)
    corr = abs(float(bif.null_mode @ mode)) / (np.linalg.norm(bif.null_mode) * np.linalg.norm(mode))
    assert corr >= 0.999


def _detect(kind, n_cells=60):
    grid = GridSpec(n_cells)
    model = model_by_kind(kind, grid)
    if kind == "acok":
        params = ModelParams(epsilon=0.3)
        settings = default_settings("acok", param_min=0.0, param_max=3000.0)
        state = np.full(grid.n_nodes, 0.5)
    else:
        params = ModelParams(epsilon=0.5)
        settings = default_settings("ac", param_min=0.1, param_max=0.7)
        state = np.zeros(grid.n_nodes)
    return model, params, detect_bifurcations_on_trivial(model, params, settings, lambda p: state)


@pytest.mark.parametrize("kind", ["ac", "acok"])
def test_event_null_mode_is_bitwise_repeatable(kind):
    _, _, first = _detect(kind)
    _, _, second = _detect(kind)
    assert len(first) == len(second) >= 2
    for a, b in zip(first, second):
        assert a.param == b.param
        assert np.array_equal(a.null_mode, b.null_mode)


@pytest.mark.parametrize("kind", ["ac", "acok"])
def test_event_null_mode_has_unit_norm_and_positive_leading_entry(kind):
    _, _, bifs = _detect(kind)
    assert bifs
    for bif in bifs:
        v = bif.null_mode
        assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-14
        leading = v[np.abs(v) > 1e-8 * np.max(np.abs(v))][0]
        assert leading > 0.0


def test_acok_event_modes_match_numpy_eigenvector_nearest_zero():
    """Each ACOK mode is numpy's eigenvector of the dense Jacobian for its
    eigenvalue nearest zero."""
    model, params, bifs = _detect("acok")
    assert len(bifs) >= 3
    for bif in bifs:
        w, vecs = np.linalg.eig(model.jacobian(bif.base_state, model.with_param(params, bif.param)))
        k = int(np.argmin(np.abs(w)))
        assert abs(w[k].imag) == 0.0
        ref = vecs[:, k].real
        corr = abs(float(bif.null_mode @ ref)) / (np.linalg.norm(bif.null_mode) * np.linalg.norm(ref))
        assert corr >= 1.0 - 1e-9, f"{bif.bif_id} at gamma={bif.param}: correlation {corr}"


class ShiftedDiagonal:
    """Toy model on a real grid: J(mu) = diag(mu + diagonal), held as a
    tridiagonal band, so it is exactly singular at each mu = -diagonal[i]."""

    def __init__(self, diagonal):
        self.grid = GridSpec(len(diagonal) - 1)
        self.diagonal = np.asarray(diagonal, dtype=float)
        self.factored_at = []

    def with_param(self, params, value):
        return float(value)

    def linearize(self, state, mu):
        self.factored_at.append(mu)
        band = np.zeros((len(self.diagonal), 3))
        band[:, 1] = mu + self.diagonal
        return BandBorder(band=band, kl=1)


def test_exactly_singular_event_is_factored_one_bisection_width_into_the_window():
    """A scan probe that hits det = 0 exactly makes an event at that probe;
    its null mode comes from the factorization one bisection width further
    into the window, which is regular."""
    model = ShiftedDiagonal([0.0, 1.0, 2.0, 3.0, 4.0])
    settings = default_settings("ac", param_min=0.0, param_max=1.0)
    (bif,) = detect_bifurcations_on_trivial(model, None, settings, lambda p: np.zeros(5))
    assert bif.param == 0.0
    assert model.factored_at[-2:] == [0.0, settings.bisection_width]
    assert np.max(np.abs(bif.null_mode - np.eye(5)[0])) <= 1e-8
    # At the window's upper end the step goes down instead.
    model = ShiftedDiagonal([-1.0, 1.0, 2.0, 3.0, 4.0])
    (bif,) = detect_bifurcations_on_trivial(model, None, settings, lambda p: np.zeros(5))
    assert bif.param == 1.0
    assert model.factored_at[-2:] == [1.0, 1.0 - settings.bisection_width]
    assert np.max(np.abs(bif.null_mode - np.eye(5)[0])) <= 1e-8


class SingularEverywhere(ShiftedDiagonal):
    """The toy with its second unknown's diagonal entry pinned at zero."""

    def linearize(self, state, mu):
        system = super().linearize(state, mu)
        system.band[1, 1] = 0.0
        return system


def test_event_singular_at_and_next_to_its_probe_raises():
    model = SingularEverywhere([0.0, 1.0, 2.0, 3.0, 4.0])
    settings = default_settings("ac", param_min=0.0, param_max=1.0)
    with pytest.raises(SingularMatrixError):
        detect_bifurcations_on_trivial(model, None, settings, lambda p: np.zeros(5))
    assert model.factored_at[-2:] == [0.0, settings.bisection_width]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
