"""Linear-algebra kernels for the continuation engine.

Everything here is written against plain ``numpy.ndarray`` (float64) and is
deliberately self-contained: LU factorization with partial pivoting and an
explicit permutation sign, triangular solves, determinant signs, and an
inverse-iteration null-vector routine.  The determinant *sign* is the event
function for bifurcation detection, so the factorization tracks it exactly
(permutation parity times pivot signs) instead of going through a value that
would over/underflow for 200x200 Jacobians.  No kernel calls LAPACK, whose
results can depend on the BLAS thread count.

``lu_factor`` takes either a dense square matrix or a ``BandBorder``: a band
matrix ``A`` (``kl`` sub- and ``ku`` superdiagonals) plus ``k`` dense border
rows and columns, which is how the models hand over their linearizations.

* A ``BandBorder`` that is a plain tridiagonal matrix (no border), and a
  dense matrix whose nonzeros all lie on the three central diagonals (the
  AC/CH Jacobians), are eliminated in O(N) on Python floats in the manner of
  LAPACK ``dgttrf``: the dense kernel's pivoting rule (swap only if the
  subdiagonal entry is strictly larger), pivot floor and singularity rules,
  so det signs and singular flags agree with it.  ``lu_solve`` on such a
  factorization averages the top-down solve with the solve of the mirrored
  (order-reversed) system, which makes it exactly reflection-equivariant:
  with ``P`` the reversal, ``solve(P J P, P b) == P solve(J, b)`` bit for
  bit, so Newton iterates from odd guesses stay exactly odd.  The mirrored
  factorization is made on the first solve, so sign-only factorizations
  never pay for it.
* Every other ``BandBorder`` (the ACOK Jacobians in their augmented Poisson
  form, the pseudo-arclength systems, the bordered Neumann problem) gets a
  band LU with partial pivoting inside the band, O(N (kl + ku) kl), and its
  borders are eliminated by mixed block elimination (Govaerts & Pryce,
  *IMA J. Numer. Anal.* 13, 1993), which stays accurate when ``A`` itself
  is singular, as it is at every fold and bifurcation point and, exactly,
  in the Neumann problem.  A band pivot at rounding level (or on or below
  the singularity floor) is boosted to the band's size, which factors a
  rank-one change of ``A``; one more border takes that change back out
  exactly.  The det sign is the band's permutation parity times its pivot
  signs times the det sign of the borders' Schur block (times -1 per
  boost).
* ``det_signs`` signs many such band-plus-border systems of one structure
  at once (the detection scan's samples): one elimination runs over a pass
  of them with every numpy operation vectorized over the systems, in the
  scalar kernel's order, so each sign is ``det_sign(lu_factor(s))``'s.  A
  pass holds about 1 MiB.  A system whose band pivot the scalar kernel
  would boost is signed by ``lu_factor`` itself.  Tridiagonal and dense
  systems are signed one at a time: a tridiagonal elimination is cheaper
  than a pass's fixed cost of a dozen numpy calls per column.
* Any other dense matrix goes through a right-looking blocked LU whose Schur
  update runs through matrix-matrix products.  Of the engine's
  factorizations only the inverse iteration at a detected ACOK event takes
  this path; it also factors the bordered kernel's small Schur blocks, and
  it is the general path and the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Union

import numpy as np

__all__ = [
    "BandBorder",
    "LuFactorization",
    "BandLuFactorization",
    "BorderedLuFactorization",
    "SingularMatrixError",
    "ConvergenceError",
    "NullVectorResult",
    "lu_factor",
    "lu_solve",
    "det_sign",
    "det_signs",
    "null_vector",
]

#: Default relative pivot floor: a pivot whose magnitude falls below
#: ``DEFAULT_PIVOT_RTOL * max-row-sum-norm`` marks the matrix singular.
DEFAULT_PIVOT_RTOL = 1e-12

#: Band pivots of magnitude at most this times the band's max row sum
#: (or at most the singularity floor, if higher) are boosted and corrected
#: through a border; see ``_band_lu``.
_BOOST_RTOL = 1e-14

#: Panel width of ``lu_factor``'s blocked Schur update.  It sets only the
#: speed; the factors agree to rounding for any positive width.
_LU_BLOCK = 48

#: Bytes one ``det_signs`` pass holds (its systems and work arrays), which
#: sets how many systems it factors together.  It sets only the speed and
#: memory; the signs do not depend on it.
_SIGN_PASS_BYTES = 1 << 20


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


@dataclass(frozen=True, eq=False)
class BandBorder:
    """A band matrix ``A`` plus ``k`` dense border rows and columns.

    The full matrix is ``[[A, cols], [rows, corner]]`` of order ``nb + k``.
    ``A`` (order ``nb``) is held in row-wise band storage,
    ``band[i, kl + j - i] = A[i, j]`` for ``-kl <= j - i <= ku``, where
    ``ku = band.shape[1] - 1 - kl``; entries outside ``A`` are zero.

    The system a caller factors and solves is the Schur complement of the
    full matrix onto the unknowns ``outer`` (indices into the full matrix,
    all of them by default): a right-hand side is placed on the ``outer`` rows,
    zero elsewhere, and the solution is read off the ``outer`` unknowns.
    ``hidden_sign`` is the det sign of the eliminated block, so the det
    sign of the visible system is ``hidden_sign`` times the full matrix's.
    """

    band: np.ndarray
    kl: int
    cols: Optional[np.ndarray] = None  # (nb, k)
    rows: Optional[np.ndarray] = None  # (k, nb)
    corner: Optional[np.ndarray] = None  # (k, k)
    outer: Optional[np.ndarray] = None
    hidden_sign: int = 1

    def __post_init__(self):
        band = np.asarray(self.band, dtype=float)
        if band.ndim != 2 or not 0 <= self.kl < band.shape[1]:
            raise ValueError(f"band of shape {band.shape} does not hold kl={self.kl} subdiagonals")
        nb = band.shape[0]
        k = 0 if self.corner is None else np.shape(self.corner)[0]
        shapes = {"cols": (nb, k), "rows": (k, nb), "corner": (k, k)}
        for name, shape in shapes.items():
            value = getattr(self, name)
            value = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "band", band)
        outer = np.arange(nb + k) if self.outer is None else np.asarray(self.outer)
        object.__setattr__(self, "outer", outer)

    @property
    def ku(self) -> int:
        return self.band.shape[1] - 1 - self.kl

    @property
    def k(self) -> int:
        return self.corner.shape[0]

    def __len__(self) -> int:
        """Order of the visible system."""
        return len(self.outer)

    def bordered(self, col, row, corner: float) -> "BandBorder":
        """The visible system ``S`` bordered to ``[[S, col], [row, corner]]``."""
        nb, k = self.band.shape[0], self.k
        outer = self.outer
        full_col = np.zeros(nb + k)
        full_col[outer] = col
        full_row = np.zeros(nb + k)
        full_row[outer] = row
        new_corner = np.zeros((k + 1, k + 1))
        new_corner[:k, :k] = self.corner
        new_corner[:k, k] = full_col[nb:]
        new_corner[k, :k] = full_row[nb:]
        new_corner[k, k] = corner
        return BandBorder(
            band=self.band, kl=self.kl,
            cols=np.column_stack([self.cols, full_col[:nb]]),
            rows=np.vstack([self.rows, full_row[:nb]]),
            corner=new_corner, outer=np.append(outer, nb + k), hidden_sign=self.hidden_sign,
        )

    def to_dense(self) -> np.ndarray:
        """The full matrix ``[[A, cols], [rows, corner]]``."""
        nb, k = self.band.shape[0], self.k
        a = np.zeros((nb + k, nb + k))
        for c in range(self.band.shape[1]):
            d = c - self.kl
            lo, hi = max(0, -d), min(nb, nb - d)
            if lo < hi:
                idx = np.arange(lo, hi)
                a[idx, idx + d] = self.band[lo:hi, c]
        a[:nb, nb:] = self.cols
        a[nb:, :nb] = self.rows
        a[nb:, nb:] = self.corner
        return a

    @classmethod
    def from_dense(cls, matrix) -> "BandBorder":
        """The band of a dense square matrix, as narrow as its nonzeros allow."""
        a = _as_square_matrix(matrix)
        n = a.shape[0]
        i, j = np.nonzero(a)
        kl = int(max(0, np.max(i - j, initial=0)))
        ku = int(max(0, np.max(j - i, initial=0)))
        band = np.zeros((n, kl + ku + 1))
        for d in range(-kl, ku + 1):
            lo = max(0, -d)
            band[lo:lo + n - abs(d), kl + d] = np.diagonal(a, d)
        return cls(band=band, kl=kl)


@dataclass
class BorderedLuFactorization:
    """Result of ``lu_factor`` on a ``BandBorder`` (other than a plain tridiagonal).

    Step ``j`` of the band elimination interchanges rows ``j`` and
    ``swaps[j]``, then subtracts ``mults[j][i]`` times row ``j`` from row
    ``j + 1 + i``.  ``U`` has ``pivots`` on its diagonal and ``tails[j]``
    right of it in row ``j`` (at most ``kl + ku`` entries).  A boosted pivot
    adds one border to ``cols``, ``rows`` and ``corner``, the borders mixed
    block elimination works with (see ``_bordered_factor``).  ``right`` is
    ``A^-1 cols`` and ``schur`` the dense LU of the Schur block
    ``corner - rows A^-1 cols``; the transposed-side counterparts (``left``)
    are made on the first solve.

    Attributes
    ----------
    perm_sign:
        Parity of the band's interchanges, times -1 per boosted pivot.
    singular, pivot_floor:
        The floor is ``pivot_rtol`` times the full matrix's max row sum, as
        in ``LuFactorization``; every band pivot on or below it is boosted.
        The matrix is flagged singular if a pivot of the Schur block is no
        larger than ``pivot_rtol`` times the terms the block is computed
        from (``|corner| + |rows| |A^-1 cols|``, max row sum): at 0.0 only
        an exactly zero Schur pivot counts.
    """

    system: BandBorder
    pivots: list
    tails: list
    mults: list
    swaps: list
    perm_sign: int
    cols: list
    rows: list
    corner: list
    right: list
    schur: Optional[LuFactorization]
    singular: bool
    pivot_floor: float
    left: Optional[tuple] = None


Factorization = Union[LuFactorization, BandLuFactorization, BorderedLuFactorization]


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


def _dot(a: list, b: list) -> float:
    return math.fsum(map(mul, a, b))


def _band_lu(system: BandBorder, boost_floor: float, boost: float):
    """Band LU with partial pivoting inside the band (``dgbtf2``-style).

    Row ``i`` is held as a list over columns ``i - kl .. i + kl + ku``: the
    band plus the fill the interchanges leave, so an interchange of rows
    ``j`` and ``p`` shifts both lists by ``p - j``.  A pivot of magnitude
    ``<= boost_floor`` is boosted by ``delta = +-boost`` (the pivot's sign,
    + for zero): that factors ``A + delta e_r e_j^T`` exactly, with ``r``
    the pivot row's original index, and ``_bordered_factor`` takes the
    correction back out through one more border.  Returns ``(pivots, tails, mults, swaps, sign,
    boosts)``: ``tails[j]`` is row ``j`` of ``U`` right of its pivot and
    ``boosts`` a list of ``(r, j, delta)``.  The loops skip zero entries
    explicitly: on lists this short that is faster than slicing.
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
    return pivots, tails, mults, swaps, sign, boosts


def _band_lu_solve(fact: BorderedLuFactorization, x: list) -> list:
    """``A^-1 x`` through the band factors, in place."""
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


def _band_lu_solve_t(fact: BorderedLuFactorization, x: list) -> list:
    """``A^-T x`` through the band factors, in place."""
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


def _pivot_floors(system: BandBorder, pivot_rtol: float) -> tuple:
    """``(floor, boost_floor, boost)``: ``floor`` is ``pivot_rtol`` times the
    full matrix's max row sum; band pivots on or below ``boost_floor`` are
    boosted by ``+-boost`` (``_band_lu``)."""
    band_sums = np.sum(np.abs(system.band), axis=1)
    row_sums = np.concatenate([
        band_sums + np.sum(np.abs(system.cols), axis=1),
        np.sum(np.abs(system.rows), axis=1) + np.sum(np.abs(system.corner), axis=1),
    ])
    _require_finite(row_sums)  # a NaN or inf entry leaves its row sum non-finite
    floor = float(pivot_rtol) * (float(np.max(row_sums)) if row_sums.size else 0.0)
    scale = float(np.max(band_sums)) if len(band_sums) else 0.0
    return floor, max(floor, _BOOST_RTOL * scale), scale if scale > 0.0 else 1.0


def _schur_singular(schur: LuFactorization, corner: list, rows: list, right: list, pivot_rtol: float) -> bool:
    """A Schur pivot is zero to within ``pivot_rtol`` if it cancels that far
    below the terms the block is computed from (at 0.0 only an exact zero)."""
    schur_floor = 0.0
    if pivot_rtol and len(corner):
        terms = np.sum(np.abs(corner), axis=1) + np.sum(
            np.abs(rows) * np.sum(np.abs(right), axis=0), axis=1)
        schur_floor = float(pivot_rtol) * float(np.max(terms))
    return bool(np.any(np.abs(np.diagonal(schur.packed)) <= schur_floor))


def _bordered_factor(system: BandBorder, pivot_rtol: float) -> BorderedLuFactorization:
    """Band LU of ``A``, then the borders' Schur block (module docstring).

    Each boosted pivot ``(r, j, delta)`` becomes one more border: column
    ``-delta e_r``, row ``e_j^T`` and corner -1, whose unknown is ``x_j``,
    so the extended system is exact for ``A`` and its det is
    ``(-1)^boosts`` times the user matrix's.
    """
    nb = system.band.shape[0]
    floor, boost_floor, boost = _pivot_floors(system, pivot_rtol)
    pivots, tails, mults, swaps, sign, boosts = _band_lu(system, boost_floor, boost)
    cols = system.cols.T.tolist()
    rows = system.rows.tolist()
    k = len(cols) + len(boosts)
    corner = [r + [0.0] * len(boosts) for r in system.corner.tolist()]
    for r, j, delta in boosts:
        col = [0.0] * nb
        col[r] = -delta
        cols.append(col)
        row = [0.0] * nb
        row[j] = 1.0
        rows.append(row)
        corner.append([0.0] * k)
        corner[-1][len(cols) - 1] = -1.0
    fact = BorderedLuFactorization(
        system=system, pivots=pivots, tails=tails, mults=mults, swaps=swaps,
        perm_sign=sign * (-1 if len(boosts) % 2 else 1),
        cols=cols, rows=rows, corner=corner, right=[], schur=None, singular=False, pivot_floor=floor,
    )
    fact.right = [_band_lu_solve(fact, list(c)) for c in cols]
    fact.schur = _schur_factor(corner, rows, fact.right)
    fact.singular = _schur_singular(fact.schur, corner, rows, fact.right, pivot_rtol)
    return fact


def _schur_factor(corner: list, rows: list, right: list) -> LuFactorization:
    """Dense LU of the k x k block ``corner[i][c] - rows[i] . right[c]``."""
    k = len(corner)
    block = np.array([[corner[i][c] - _dot(rows[i], right[c]) for c in range(k)] for i in range(k)])
    return _dense_factor(block.reshape(k, k), 0.0)


def _bordered_solve(fact: BorderedLuFactorization, b: list) -> list:
    """Mixed block elimination for ``[[A, B], [C, D]] [x; y] = [f; g]``.

    With ``V = A^-T C^T`` and the two Schur blocks ``D - V^T B`` and
    ``D - C A^-1 B``: ``y1`` from the first, then ``xi = A^-1 (f - B y1)``,
    and the second corrects ``y`` by ``y2`` and ``x = xi - (A^-1 B) y2``.
    The borders here include the boosted pivots' (``_bordered_factor``),
    whose right-hand sides are zero and whose unknowns are dropped.
    """
    nb, k = len(fact.pivots), len(fact.cols)
    visible = len(b) - nb  # the caller's borders; the rest are boosted pivots'
    f, g = b[:nb], b[nb:] + [0.0] * (k - visible)
    if k == 0:
        return _band_lu_solve(fact, f)
    if fact.left is None:
        left = [_band_lu_solve_t(fact, list(r)) for r in fact.rows]
        fact.left = (left, _schur_factor(fact.corner, left, fact.cols))
    left, schur_t = fact.left
    if schur_t.singular:
        raise SingularMatrixError("singular border block")
    y1 = _dense_solve(schur_t, np.array([g[i] - _dot(left[i], f) for i in range(k)])).tolist()
    for c, yc in zip(fact.cols, y1):
        if yc != 0.0:
            f = [a - yc * v for a, v in zip(f, c)]
    g1 = [g[i] - _dot(fact.corner[i], y1) for i in range(k)]
    xi = _band_lu_solve(fact, f)
    y2 = _dense_solve(fact.schur, np.array([g1[i] - _dot(fact.rows[i], xi) for i in range(k)])).tolist()
    for w, yc in zip(fact.right, y2):
        if yc != 0.0:
            xi = [a - yc * v for a, v in zip(xi, w)]
    return xi + [u + v for u, v in zip(y1, y2)][:visible]


def lu_factor(matrix, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> Factorization:
    """LU-factor a square matrix with partial (row) pivoting.

    ``matrix`` is a ``BandBorder`` or a dense square array-like.  A plain
    tridiagonal ``BandBorder``, or a dense matrix whose nonzeros all lie on
    the three central diagonals, gets a ``BandLuFactorization`` in O(n); any
    other ``BandBorder`` a ``BorderedLuFactorization`` in O(n); any other
    dense matrix a dense ``LuFactorization``.

    Parameters
    ----------
    matrix:
        ``BandBorder`` or square 2-D array-like.  The input is not modified.
    pivot_rtol:
        Relative singularity threshold.  The absolute floor is
        ``pivot_rtol * max_i sum_j |a_ij|``.  Pass 0.0 to flag only exact
        zero pivots (used by the bifurcation detector, which needs pivot
        *signs* arbitrarily close to a singularity).
    """
    if isinstance(matrix, BandBorder):
        if _plain_tridiagonal(matrix):
            cols = matrix.band.T
            band = (cols[0, 1:], cols[1], cols[2, :-1])
            for d in band:
                _require_finite(d)
            band = tuple(d.tolist() for d in band)
            return _band_factor(band, _band_floor(band, pivot_rtol))
        return _bordered_factor(matrix, pivot_rtol)
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
    if isinstance(fact, BorderedLuFactorization):
        n = len(fact.system)
    elif isinstance(fact, BandLuFactorization):
        n = len(fact.pivots)
    else:
        n = fact.packed.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs of shape {b.shape} does not match matrix size {n}")
    if isinstance(fact, BorderedLuFactorization):
        outer = fact.system.outer
        full = np.zeros((fact.system.band.shape[0] + fact.system.k,) + b.shape[1:])
        full[outer] = b
        if b.ndim == 1:
            return np.array(_bordered_solve(fact, full.tolist()))[outer]
        cols = [_bordered_solve(fact, col) for col in full.T.tolist()]
        return np.array(cols, dtype=float).reshape(b.shape[1], len(full)).T[outer]
    if isinstance(fact, BandLuFactorization):
        if b.ndim == 1:
            return np.array(_band_solve_equivariant(fact, b.tolist()))
        cols = [_band_solve_equivariant(fact, col) for col in b.T.tolist()]
        return np.array(cols, dtype=float).reshape(b.shape[1], n).T
    return _dense_solve(fact, b)


def _dense_solve(fact: LuFactorization, b: np.ndarray) -> np.ndarray:
    """Forward and back substitution through the packed dense factors."""
    a = fact.packed
    n = a.shape[0]
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
    """Permutation parity times the product of pivot signs (0 if flagged).

    A bordered factorization also multiplies in its Schur block's det sign
    and the det sign of the block its visible system eliminates.
    """
    if fact.singular:
        return 0
    if isinstance(fact, LuFactorization):
        pivots = np.diagonal(fact.packed)
    else:
        pivots = fact.pivots
    negatives = int(np.count_nonzero(np.less(pivots, 0.0)))
    sign = fact.perm_sign * (-1 if negatives % 2 else 1)
    if isinstance(fact, BorderedLuFactorization):
        sign *= _sign_from_fact(fact.schur) * fact.system.hidden_sign
    return sign


def det_sign(matrix_or_fact, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> int:
    """Sign of det(A) as -1, 0 or +1.

    A result of 0 means some pivot fell on or below the singularity floor,
    i.e. the matrix is singular *to within the configured threshold*.
    """
    if isinstance(matrix_or_fact, (LuFactorization, BandLuFactorization, BorderedLuFactorization)):
        return _sign_from_fact(matrix_or_fact)
    return _sign_from_fact(lu_factor(matrix_or_fact, pivot_rtol=pivot_rtol))


def _plain_tridiagonal(system: BandBorder) -> bool:
    """Whether ``lu_factor`` hands ``system`` to the tridiagonal kernel."""
    return system.kl == system.ku == 1 and system.k == 0 and len(system) == len(system.band)


def det_signs(systems: Iterable, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> list:
    """``[det_sign(lu_factor(s, pivot_rtol)) for s in systems]``, element for element.

    Consecutive ``BandBorder``s of one structure that ``lu_factor`` would
    hand to ``_bordered_factor`` are signed together by ``_sign_pass``, in
    passes that hold about ``_SIGN_PASS_BYTES``; the iterable is consumed
    one pass at a time.  Every other system is signed alone.
    """
    signs: list = []
    batch: list = []
    for system in systems:
        if not isinstance(system, BandBorder) or _plain_tridiagonal(system):
            signs += _sign_pass(batch, pivot_rtol)
            batch = []
            signs.append(_sign_from_fact(lu_factor(system, pivot_rtol)))
            continue
        if batch and (_structure(system) != _structure(batch[0]) or len(batch) >= _pass_size(system)):
            signs += _sign_pass(batch, pivot_rtol)
            batch = []
        batch.append(system)
    return signs + _sign_pass(batch, pivot_rtol)


def _structure(system: BandBorder) -> tuple:
    return system.band.shape, system.kl, system.k


def _pass_size(system: BandBorder) -> int:
    """Systems per ``_sign_pass``: the systems and its work arrays take about ``_SIGN_PASS_BYTES``."""
    nb, w = system.band.shape
    kl, k = system.kl, system.k
    held = sum(a.nbytes for a in (system.band, system.cols, system.rows, system.corner, system.outer))
    return max(1, _SIGN_PASS_BYTES // (held + 8 * ((nb + kl) * (w + kl) + (nb + w) * k)))


def _sign_pass(systems: list, pivot_rtol: float) -> list:
    """det signs of band-plus-border systems of one structure, factored together.

    One ``dgbtf2``-style elimination runs over all of them, each numpy
    operation vectorized over the systems, so every system gets
    ``_band_lu``'s operations in its order: the same pivots, interchanges
    and multipliers bit for bit (up to the sign of zeros), where ``_band_lu``
    skips a zero entry this subtracts an exact zero.  The border columns are
    eliminated alongside the band and back-substituted through ``U``, which
    stays in the work array, giving ``_band_lu_solve``'s ``A^-1 cols``.
    Each system's Schur block is then factored and signed by the scalar
    helpers.  A system with a pivot ``_band_lu`` would boost (or a
    non-finite one) is signed by ``lu_factor`` instead: its pass results,
    which divided by that pivot, are discarded.

    The work array holds row ``i`` over columns ``i - kl .. i + kl + ku``,
    as in ``_band_lu``; step ``j`` sees rows ``j .. j + kl`` over columns
    ``j .. j + kl + ku`` through one strided view, in which an interchange
    of two rows is a plain swap.
    """
    if not systems:
        return []
    first = systems[0]
    m, nb, kl, k = len(systems), first.band.shape[0], first.kl, first.k
    w = first.band.shape[1]  # kl + ku + 1: the columns step j touches
    work = np.zeros((m, nb + kl, w + kl))
    x = np.zeros((nb + w, m, k))  # border columns; zero rows below the matrix
    boost_floor = np.empty(m)
    for i, system in enumerate(systems):
        work[i, :nb, :w] = system.band
        x[:nb, i] = system.cols
        boost_floor[i] = _pivot_floors(system, pivot_rtol)[1]
    s0, s1, s2 = work.strides
    windows = np.lib.stride_tricks.as_strided(
        work.reshape(-1)[kl:], shape=(m, nb, kl + 1, w), strides=(s0, s1, s1 - s2, s2))
    at = np.arange(m)
    swaps = np.zeros((m, nb), dtype=int)  # row offset of each step's pivot
    with np.errstate(all="ignore"):  # the systems left to lu_factor divide by their zero pivots
        for j in range(nb):
            win, xw = windows[:, j], x[j : j + kl + 1]
            t = np.argmax(np.abs(win[:, :, 0]), axis=1)  # the first largest, as in _band_lu
            prow, xrow = win[at, t], xw[t, at]
            win[at, t], xw[t, at] = win[:, 0], xw[0]
            win[:, 0], xw[0] = prow, xrow
            f = win[:, 1:, 0] / prow[:, :1]
            win[:, 1:, 1:] -= f[:, :, None] * prow[:, None, 1:]
            xw[1:] -= f.T[:, :, None] * xrow
            swaps[:, j] = t
        pivots = work[:, :nb, kl]
        if k:
            # x[j] = (((x[j] - u_1 x[j+1]) - u_2 x[j+2]) - ...) / u_0, as in _band_lu_solve.
            tails = work[:, :nb, kl + 1 :].transpose(1, 2, 0)[..., None]
            terms = np.empty((w, m, k))
            for j in range(nb - 1, -1, -1):
                terms[0] = x[j]
                np.multiply(tails[j], x[j + 1 : j + w], out=terms[1:])
                np.divide(np.subtract.accumulate(terms)[-1], pivots[:, j, None], out=x[j])
        redo = (np.any(np.abs(pivots) <= boost_floor[:, None], axis=1)
                | ~np.all(np.isfinite(pivots), axis=1) | ~np.all(np.isfinite(x), axis=(0, 2)))
    flips = np.count_nonzero(swaps, axis=1) + np.count_nonzero(pivots < 0.0, axis=1)
    signs = []
    for i, system in enumerate(systems):
        if redo[i]:
            signs.append(_sign_from_fact(lu_factor(system, pivot_rtol)))
            continue
        corner_i, rows_i, right = system.corner.tolist(), system.rows.tolist(), x[:nb, i].T.tolist()
        schur = _schur_factor(corner_i, rows_i, right)
        if _schur_singular(schur, corner_i, rows_i, right, pivot_rtol):
            signs.append(0)
        else:
            signs.append((-1 if flips[i] % 2 else 1) * _sign_from_fact(schur) * system.hidden_sign)
    return signs


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
