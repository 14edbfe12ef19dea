"""Dense linear-algebra kernels for the continuation engine.

Everything here is written against plain ``numpy.ndarray`` (float64) and is
deliberately self-contained: LU factorization with partial pivoting and an
explicit permutation sign, triangular solves, determinant signs, and an
inverse-iteration null-vector routine.  The determinant *sign* is the event
function for bifurcation detection, so the factorization tracks it exactly
(permutation parity times pivot signs) instead of going through a value that
would over/underflow for 200x200 Jacobians.

The factorization is right-looking and blocked so the Schur update runs
through matrix-matrix products; for the ~200x200 systems the engine solves
this is an order of magnitude faster than a scalar-loop elimination while
staying bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LuFactorization",
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


def _as_square_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def lu_factor(matrix, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> LuFactorization:
    """LU-factor a square matrix with partial (row) pivoting.

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
    a = _as_square_matrix(matrix).copy()
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


def lu_solve(fact: LuFactorization, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` given ``fact = lu_factor(A)``.

    Accepts a vector or a matrix of stacked right-hand sides (columns).
    Raises ``SingularMatrixError`` if the factorization was flagged singular.
    """
    if fact.singular:
        raise SingularMatrixError("singular matrix")
    a = fact.packed
    n = a.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs of shape {b.shape} does not match matrix size {n}")
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


def _sign_from_fact(fact: LuFactorization) -> int:
    """Permutation parity times the product of pivot signs (0 if flagged)."""
    if fact.singular:
        return 0
    diag = np.diagonal(fact.packed)
    negatives = int(np.count_nonzero(diag < 0.0))
    return fact.perm_sign * (-1 if negatives % 2 else 1)


def det_sign(matrix_or_fact, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> int:
    """Sign of det(A) as -1, 0 or +1.

    A result of 0 means some pivot fell on or below the singularity floor,
    i.e. the matrix is singular *to within the configured threshold*.
    """
    if isinstance(matrix_or_fact, LuFactorization):
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
