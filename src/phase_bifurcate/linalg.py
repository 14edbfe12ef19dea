"""Linear-algebra kernels for the continuation engine.

Everything here is written against plain ``numpy.ndarray`` (float64) and is
deliberately self-contained: LU factorization with partial pivoting and an
explicit permutation sign, triangular solves, determinant signs, and an
inverse-iteration null-vector routine.  The determinant *sign* is the event
function for bifurcation detection, so the factorization tracks it exactly
(permutation parity times pivot signs) instead of going through a value that
would over/underflow for 200x200 Jacobians.

``lu_factor`` picks its kernel from the matrix itself.  If every nonzero lies
on the three central diagonals (the AC/CH Jacobians), it eliminates in O(N)
on Python floats, in the manner of LAPACK ``dgttrf``: the same partial
pivoting rule (swap only if the subdiagonal entry is strictly larger), the
same pivot floor and the same singularity rules as the dense kernel, so det
signs and singular flags agree with it.  ``lu_solve`` on such a factorization
averages the top-down solve with the solve of the mirrored (order-reversed)
system, which makes it exactly reflection-equivariant: with ``P`` the
reversal, ``solve(P J P, P b) == P solve(J, b)`` bit for bit, so Newton
iterates from odd guesses stay exactly odd.  The mirrored factorization is
made on the first solve, so sign-only factorizations never pay for it.

Every other matrix (the dense ACOK Jacobians, the bordered arclength
systems) goes through a right-looking blocked LU whose Schur update runs
through matrix-matrix products; for the ~200x200 systems the engine solves
this is an order of magnitude faster than a scalar-loop elimination while
staying bit-for-bit deterministic.  Neither kernel calls LAPACK, whose
results can depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "LuFactorization",
    "BandLuFactorization",
    "SingularMatrixError",
    "ConvergenceError",
    "NullVectorResult",
    "lu_factor",
    "lu_solve",
    "det_sign",
    "null_vector",
]

#: Default relative pivot floor: a pivot whose magnitude falls below
#: ``DEFAULT_PIVOT_RTOL * max-row-sum-norm`` marks the matrix singular.
DEFAULT_PIVOT_RTOL = 1e-12

#: Panel width of ``lu_factor``'s blocked Schur update.  It sets only the
#: speed; the factors agree to rounding for any positive width.
_LU_BLOCK = 48


class SingularMatrixError(RuntimeError):
    """Raised when a solve is attempted with a factorization flagged singular."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its iteration budget."""


@dataclass
class LuFactorization:
    """Packed result of ``lu_factor``.

    Attributes
    ----------
    packed:
        n x n array holding U on and above the diagonal and the unit-lower
        multipliers strictly below it.
    perm:
        Row permutation as an index array: ``packed`` factors ``a[perm]``.
    perm_sign:
        Parity of ``perm`` (+1 or -1).
    singular:
        True if any pivot magnitude fell on or below ``pivot_floor``.
    pivot_floor:
        The absolute threshold that was applied.
    """

    packed: np.ndarray
    perm: np.ndarray
    perm_sign: int
    singular: bool
    pivot_floor: float


@dataclass
class BandLuFactorization:
    """Result of ``lu_factor`` on a tridiagonal matrix.

    Step ``k`` of the elimination works on rows ``k`` and ``k + 1`` only:
    it interchanges them if ``swapped[k]``, then subtracts ``lower[k]``
    times row ``k`` from row ``k + 1``.  ``U`` has ``pivots`` on its
    diagonal, ``upper`` on the first and ``upper2`` (fill-in left by the
    interchanges, zero elsewhere) on the second superdiagonal.

    Attributes
    ----------
    lower, pivots, upper, upper2, swapped:
        Lists of length n-1, n, n-1, n-2 and n-1 (as far as nonnegative).
    band:
        The factored matrix's sub-, main and superdiagonal, kept for the
        mirrored factorization that ``lu_solve`` makes on its first call.
    perm_sign, singular, pivot_floor:
        As in ``LuFactorization``.
    """

    lower: list
    pivots: list
    upper: list
    upper2: list
    swapped: list
    band: tuple
    perm_sign: int
    singular: bool
    pivot_floor: float
    mirror: Optional["BandLuFactorization"] = None


Factorization = Union[LuFactorization, BandLuFactorization]


def _require_finite(a) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")


def _as_square_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _tridiagonal_band(a: np.ndarray) -> Optional[tuple]:
    """``(sub, diag, super)`` as lists if every nonzero of ``a`` is on them.

    ``count_nonzero`` counts NaN and inf, so equal counts also prove every
    off-band entry an exact, finite zero; only the band is checked further.
    """
    diagonals = (np.diagonal(a, -1), np.diagonal(a), np.diagonal(a, 1))
    if np.count_nonzero(a) != sum(np.count_nonzero(d) for d in diagonals):
        return None
    for d in diagonals:
        _require_finite(d)
    return tuple(d.tolist() for d in diagonals)


def _band_floor(band: tuple, pivot_rtol: float) -> float:
    """``pivot_rtol`` times the max row sum of ``|a|``, as in the dense path.

    Each row sums its two off-diagonal entries first, so the mirrored
    matrix gets the same floor bit for bit.
    """
    sub, diag, sup = (np.abs(d) for d in band)
    n = len(diag)
    if n == 0:
        return 0.0
    off = np.zeros(n)
    off[1:] += sub
    off[:-1] += sup
    return float(pivot_rtol) * float(np.max(off + diag))


def _band_factor(band: tuple, floor: float) -> BandLuFactorization:
    """gttrf-style elimination of a tridiagonal matrix given by its diagonals.

    The pivot rule, floor test and zero-pivot skip are the dense kernel's.
    """
    sub, diag, sup = band
    n = len(diag)
    d = list(diag)
    du = list(sup)
    lower = [0.0] * max(n - 1, 0)
    upper2 = [0.0] * max(n - 2, 0)
    swapped = [False] * max(n - 1, 0)
    sign = 1
    singular = False
    for k in range(n - 1):
        piv = d[k]
        below = sub[k]
        if abs(below) > abs(piv):
            # Row k+1 becomes the pivot row; row k is eliminated below it.
            swapped[k] = True
            sign = -sign
            mult = piv / below
            d[k], du[k], d[k + 1] = below, d[k + 1], du[k] - mult * d[k + 1]
            if k + 2 < n:
                upper2[k] = du[k + 1]
                du[k + 1] = 0.0 - mult * upper2[k]
            lower[k] = mult
            piv = below
        elif piv != 0.0:
            mult = below / piv
            d[k + 1] -= mult * du[k]
            lower[k] = mult
        if abs(piv) <= floor:
            singular = True
    if n and abs(d[n - 1]) <= floor:
        singular = True
    return BandLuFactorization(
        lower=lower, pivots=d, upper=du, upper2=upper2, swapped=swapped, band=band,
        perm_sign=sign, singular=singular, pivot_floor=floor,
    )


def _band_solve(fact: BandLuFactorization, b: list) -> list:
    """Top-down forward and back substitution through ``fact`` (O(n))."""
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


def _band_solve_equivariant(fact: BandLuFactorization, b: list) -> list:
    """Mean of the top-down solve and the mirrored system's solve.

    With ``P`` the reversal, the mirror of ``P J P`` is ``J`` itself and
    IEEE addition commutes, so ``P J P`` with ``P b`` gets exactly ``P``
    times this result.  If the mirrored factorization is singular the
    top-down solve is returned alone.
    """
    if fact.mirror is None:
        sub, diag, sup = fact.band
        fact.mirror = _band_factor((sup[::-1], diag[::-1], sub[::-1]), fact.pivot_floor)
    top = _band_solve(fact, b)
    if fact.mirror.singular:
        return top
    bottom = _band_solve(fact.mirror, b[::-1])
    bottom.reverse()
    return [0.5 * (u + v) for u, v in zip(top, bottom)]


def lu_factor(matrix, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> Factorization:
    """LU-factor a square matrix with partial (row) pivoting.

    A matrix whose nonzeros all lie on the three central diagonals gets a
    ``BandLuFactorization`` in O(n); any other a dense ``LuFactorization``.

    Parameters
    ----------
    matrix:
        Square 2-D array-like.  A copy is taken; the input is not modified.
    pivot_rtol:
        Relative singularity threshold.  The absolute floor is
        ``pivot_rtol * max_i sum_j |a_ij|``.  Pass 0.0 to flag only exact
        zero pivots (used by the bifurcation detector, which needs pivot
        *signs* arbitrarily close to a singularity).
    """
    a = _as_square_matrix(matrix)
    band = _tridiagonal_band(a)
    if band is not None:
        return _band_factor(band, _band_floor(band, pivot_rtol))
    _require_finite(a)
    return _dense_factor(a.copy(), pivot_rtol)


def _dense_factor(a: np.ndarray, pivot_rtol: float) -> LuFactorization:
    """Blocked right-looking LU of the dense matrix ``a``, in place."""
    n = a.shape[0]
    perm = np.arange(n)
    sign = 1
    singular = False
    floor = float(pivot_rtol) * (float(np.max(np.sum(np.abs(a), axis=1))) if n else 0.0)

    for start in range(0, n, _LU_BLOCK):
        stop = min(start + _LU_BLOCK, n)
        # Unblocked elimination restricted to the current panel columns.
        for k in range(start, stop):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if p != k:
                a[[k, p], :] = a[[p, k], :]
                perm[k], perm[p] = perm[p], perm[k]
                sign = -sign
            piv = a[k, k]
            if abs(piv) <= floor:
                singular = True
            if piv != 0.0 and k + 1 < n:
                a[k + 1 :, k] /= piv
                if k + 1 < stop:
                    a[k + 1 :, k + 1 : stop] -= np.outer(a[k + 1 :, k], a[k, k + 1 : stop])
        if stop < n:
            # Forward-substitute the U12 block through the panel's unit-lower
            # factor, then one matrix-matrix Schur update of the trailing block.
            u12 = a[start:stop, stop:]
            for i in range(1, stop - start):
                u12[i, :] -= a[start + i, start : start + i] @ u12[:i, :]
            a[stop:, stop:] -= a[stop:, start:stop] @ u12

    return LuFactorization(packed=a, perm=perm, perm_sign=sign, singular=singular, pivot_floor=floor)


def lu_solve(fact: Factorization, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` given ``fact = lu_factor(A)``.

    Accepts a vector or a matrix of stacked right-hand sides (columns).
    Raises ``SingularMatrixError`` if the factorization was flagged singular.
    A band factorization solves reflection-equivariantly (module docstring).
    """
    if fact.singular:
        raise SingularMatrixError("singular matrix")
    band = isinstance(fact, BandLuFactorization)
    n = len(fact.pivots) if band else fact.packed.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs of shape {b.shape} does not match matrix size {n}")
    if band:
        if b.ndim == 1:
            return np.array(_band_solve_equivariant(fact, b.tolist()))
        cols = [_band_solve_equivariant(fact, col) for col in b.T.tolist()]
        return np.array(cols, dtype=float).reshape(b.shape[1], n).T
    a = fact.packed
    squeeze = b.ndim == 1
    x = b[fact.perm].astype(float, copy=True)
    if squeeze:
        x = x.reshape(n, 1)
    # Forward substitution (unit lower triangle).
    for i in range(1, n):
        x[i] -= a[i, :i] @ x[:i]
    # Back substitution.
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= a[i, i + 1 :] @ x[i + 1 :]
        x[i] /= a[i, i]
    return x[:, 0] if squeeze else x


def _sign_from_fact(fact: Factorization) -> int:
    """Permutation parity times the product of pivot signs (0 if flagged)."""
    if fact.singular:
        return 0
    pivots = fact.pivots if isinstance(fact, BandLuFactorization) else np.diagonal(fact.packed)
    negatives = int(np.count_nonzero(np.less(pivots, 0.0)))
    return fact.perm_sign * (-1 if negatives % 2 else 1)


def det_sign(matrix_or_fact, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> int:
    """Sign of det(A) as -1, 0 or +1.

    A result of 0 means some pivot fell on or below the singularity floor,
    i.e. the matrix is singular *to within the configured threshold*.
    """
    if isinstance(matrix_or_fact, (LuFactorization, BandLuFactorization)):
        return _sign_from_fact(matrix_or_fact)
    return _sign_from_fact(lu_factor(matrix_or_fact, pivot_rtol=pivot_rtol))


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip ``v`` so its first significant entry is positive (deterministic)."""
    thresh = 1e-8 * float(np.max(np.abs(v)))
    for vi in v:
        if abs(vi) > thresh:
            return -v if vi < 0.0 else v
    return v


@dataclass
class NullVectorResult:
    """Inverse-iteration output: eigenvalue estimate first, then the vector."""

    eigenvalue: float
    vector: np.ndarray
    iterations: int
    residual: float

    def __iter__(self):  # allow ``lam, vec = null_vector(...)``
        return iter((self.eigenvalue, self.vector))


def null_vector(matrix, shift: float = 0.0, tol: float | None = None, max_iters: int = 50) -> NullVectorResult:
    """Eigenpair of smallest ``|lambda - shift|`` by shifted inverse iteration.

    Intended for (near-)singular Jacobians at bifurcation points, where the
    target eigenvalue is well separated from the rest of the spectrum and
    plain inverse iteration converges in a handful of sweeps.

    The start vector is a fixed seeded draw, so repeated calls are
    bit-for-bit reproducible.  The returned vector has unit 2-norm with its
    first significant component positive.  If ``A - shift I`` is *exactly*
    singular the shift is nudged by ``1e-14 * max|a_ij|`` (escalating by 10x,
    a few attempts) so the factorization exists.

    Raises ``ConvergenceError`` (with the iteration count) if the eigenpair
    residual ``||A v - lambda v||_2`` has not dropped below ``tol`` within
    ``max_iters`` sweeps.
    """
    a = _as_square_matrix(matrix)
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if n else 0.0
    if tol is None:
        tol = 1e-8 * (1.0 + scale)

    fact = None
    nudge = 1e-14 * (scale if scale > 0.0 else 1.0)
    shift_used = float(shift)
    for _ in range(5):
        m = a.copy()
        idx = np.arange(n)
        m[idx, idx] -= shift_used
        fact = lu_factor(m, pivot_rtol=0.0)
        if not fact.singular:
            break
        shift_used += nudge
        nudge *= 10.0
    if fact is None or fact.singular:
        raise SingularMatrixError("could not regularize exactly singular shifted matrix")

    rng = np.random.default_rng(1790)
    v = rng.standard_normal(n)
    v /= float(np.linalg.norm(v))
    lam = 0.0
    res = np.inf
    for it in range(1, max_iters + 1):
        w = lu_solve(fact, v)
        v = _fix_sign(w / float(np.linalg.norm(w)))
        av = a @ v
        lam = float(v @ av)
        res = float(np.linalg.norm(av - lam * v))
        if res <= tol:
            return NullVectorResult(eigenvalue=lam, vector=v, iterations=it, residual=res)
    raise ConvergenceError(
        f"inverse iteration did not converge in {max_iters} iterations (residual {res:.3e}, tol {tol:.3e})"
    )
